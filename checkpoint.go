package polystyrene

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"polystyrene/internal/scenario"
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

func readSystemDigest(r *snap.Reader) systemDigest {
	var d systemDigest
	d.spaceKind = r.String()
	d.spaceDim = r.Int()
	d.widthsHash = r.U64()
	d.shapeLen = r.Int()
	d.shapeHash = r.U64()
	d.k = r.Int()
	d.split = r.String()
	d.baseline = r.Bool()
	d.delay = r.Int()
	d.neighborK = r.Int()
	return d
}

// Snapshot writes a checksummed checkpoint of the whole system — a
// configuration digest, the pinned positions of late-joined nodes, and
// the complete engine state (RNG, liveness, message meter and every
// protocol layer) — to w. Restoring it into a freshly built System of an
// equivalent configuration and running n more rounds is byte-identical
// to never having checkpointed, at every ExchangeParallelism setting.
func (s *System) Snapshot(w io.Writer) error {
	var sw snap.Writer
	s.digest().write(&sw)

	scenario.WritePinned(&sw, s.fixedPos)
	if err := s.stack.Engine.SnapshotState(&sw); err != nil {
		return err
	}
	return sw.WriteEnvelope(w, systemKind)
}

// Restore loads a checkpoint written by Snapshot into this system, which
// must have been built from an equivalent SystemConfig (Seed and
// ExchangeParallelism may differ). The file's checksum, format version
// and configuration digest are all verified before any state is touched,
// so a corrupted, truncated or mismatched snapshot never yields a
// partially restored system. One case is not covered: a well-formed
// file whose body is refused once the engine has begun to restore — a
// protocol layer refuses its section, or bytes trail the engine state;
// a crafted file or a foreign build's can do either — leaves the system
// partly restored (the engine's round, liveness and meter and the layers
// before the refusing one already replaced), so discard the system after
// such an error.
func (s *System) Restore(rd io.Reader) error {
	r, err := snap.ReadEnvelope(rd, systemKind)
	if err != nil {
		return err
	}
	got := readSystemDigest(r)

	pinned := scenario.ReadPinned(r)
	if err := r.Err(); err != nil {
		return err
	}
	if want := s.digest(); got != want {
		return fmt.Errorf("polystyrene: snapshot configuration %+v does not match this system %+v", got, want)
	}

	if err := s.stack.Engine.RestoreState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("polystyrene: %d trailing bytes in snapshot", r.Remaining())
	}

	s.fixedPos = pinned
	return nil
}
