package polystyrene

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"polystyrene/internal/snap"
	"polystyrene/internal/space"
)

const systemKind = "system"

// systemDigest is the structural identity of a System embedded in every
// checkpoint: a snapshot may only be restored into a system wired from an
// equivalent configuration. Seed and ExchangeParallelism are excluded —
// the RNG state travels inside the snapshot, and exchange parallelism is
// a throughput knob whose batched trajectories are worker-count
// invariant. The shape itself is folded into a hash rather than stored
// (the interned point table inside the engine section carries the actual
// coordinates).
type systemDigest struct {
	spaceKind  string
	spaceDim   int
	widthsHash uint64
	shapeLen   int
	shapeHash  uint64
	k          int
	split      string
	baseline   bool
	delay      int
	neighborK  int
}

func (s *System) digest() systemDigest {
	return systemDigest{
		spaceKind:  s.cfg.Space.kind,
		spaceDim:   s.cfg.Space.dim,
		widthsHash: hashFloats(s.cfg.Space.widths),
		shapeLen:   len(s.stack.Points),
		shapeHash:  hashPoints(s.stack.Points),
		k:          s.cfg.ReplicationFactor,
		split:      s.cfg.Split,
		baseline:   s.cfg.Baseline,
		delay:      s.cfg.DetectionDelay,
		neighborK:  s.cfg.NeighborK,
	}
}

func hashFloats(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashPoints(pts []space.Point) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[:], uint64(len(p)))
		h.Write(b[:])
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func (d systemDigest) write(w *snap.Writer) {
	w.String(d.spaceKind)
	w.Int(d.spaceDim)
	w.U64(d.widthsHash)
	w.Int(d.shapeLen)
	w.U64(d.shapeHash)
	w.Int(d.k)
	w.String(d.split)
	w.Bool(d.baseline)
	w.Int(d.delay)
	w.Int(d.neighborK)
}

// check reads a snapshot's digest and returns why it does not match d,
// or nil.
func (d systemDigest) check(r *snap.Reader) error {
	var got systemDigest
	got.spaceKind = r.String()
	got.spaceDim = r.Int()
	got.widthsHash = r.U64()
	got.shapeLen = r.Int()
	got.shapeHash = r.U64()
	got.k = r.Int()
	got.split = r.String()
	got.baseline = r.Bool()
	got.delay = r.Int()
	got.neighborK = r.Int()
	if got != d {
		return fmt.Errorf("polystyrene: snapshot configuration %+v does not match this system %+v", got, d)
	}
	return nil
}

// Snapshot writes a checksummed checkpoint of the whole system to w: a
// configuration digest, the pinned positions of late-joined nodes and the
// complete engine state (RNG, liveness, message meter and every protocol
// layer), laid out by internal/scenario's Stack.WriteCheckpoint.
// Restoring it into a freshly built System of an equivalent configuration
// and running n more rounds is byte-identical to never having
// checkpointed, at every ExchangeParallelism setting.
func (s *System) Snapshot(w io.Writer) error {
	return s.stack.WriteCheckpoint(w, systemKind, s.digest().write, nil)
}

// Restore loads a checkpoint written by Snapshot into this system, which
// must have been built from an equivalent SystemConfig (Seed and
// ExchangeParallelism may differ). A corrupted, truncated or mismatched
// snapshot is refused before any state is touched; internal/scenario's
// Stack.RestoreCheckpoint states the one exception, after which the
// system must be discarded.
func (s *System) Restore(rd io.Reader) error {
	return s.stack.RestoreCheckpoint(rd, systemKind, s.digest().check, nil)
}
