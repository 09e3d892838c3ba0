package scenario

import (
	"bytes"
	"fmt"
	"io"

	"polystyrene/internal/fd"
	"polystyrene/internal/snap"
)

// SnapshotKind is the snap envelope kind of scenario checkpoints; pass
// it as ckpt.Options.Kind when a checkpoint directory holds scenario
// snapshots.
const SnapshotKind = "scenario"

// configDigest is the structural identity of a scenario embedded in every
// snapshot: a snapshot may only be restored into a scenario wired from an
// equivalent configuration (seed and execution knobs excluded — the RNG
// state travels in the snapshot itself, and exchange parallelism is a
// throughput knob that batched trajectories are invariant to). The
// failure detector is part of the identity: a Delayed(3) trajectory is
// not a Perfect one, and resuming across that divide must fail loudly.
// The shard count is a field of the format from when a sharded topology
// existed: it is always written as 1, and a snapshot carrying any other
// count is refused (see Restore). The overlay field is always written as
// "tman", the one overlay host, and the placement and fullCopyBackup
// fields as 0 and false, the random placement and incremental backups
// that are the only ones left, so snapshots keep their bytes and one
// taken under a removed backup ablation is refused.
type configDigest struct {
	w, h           int
	step           float64
	polystyrene    bool
	overlay        string
	k              int
	split          int
	placement      int
	fullCopyBackup bool
	neighborK      int
	detector       string
	shards         int
}

// detectorIdentity names a detector configuration for the digest. The
// default string covers third-party detectors conservatively: two runs
// only match when they use the same concrete type.
func detectorIdentity(d fd.Detector) string {
	switch det := d.(type) {
	case nil:
		return "perfect"
	case fd.Perfect:
		return "perfect"
	case *fd.Delayed:
		return fmt.Sprintf("delayed(%d)", det.Delay)
	case *fd.Probabilistic:
		return fmt.Sprintf("probabilistic(%g)", det.P)
	default:
		return fmt.Sprintf("%T", d)
	}
}

func digestOf(cfg Config) configDigest {
	cfg = cfg.withDefaults()
	return configDigest{
		w: cfg.W, h: cfg.H, step: gridStep,
		polystyrene: cfg.Polystyrene, overlay: "tman",
		k: cfg.K, split: int(cfg.Split), neighborK: neighborK,
		detector: detectorIdentity(cfg.Detector),
		shards:   1,
	}
}

func (d configDigest) write(w *snap.Writer) {
	w.Int(d.w)
	w.Int(d.h)
	w.F64(d.step)
	w.Bool(d.polystyrene)
	w.String(d.overlay)
	w.Int(d.k)
	w.Int(d.split)
	w.Int(d.placement)
	w.Bool(d.fullCopyBackup)
	w.Int(d.neighborK)
	w.String(d.detector)
	w.Int(d.shards)
}

// check reads a snapshot's digest and returns why it does not match d,
// or nil. A snapshot from the removed sharded topology is refused by
// name.
func (d configDigest) check(r *snap.Reader) error {
	var got configDigest
	got.w = r.Int()
	got.h = r.Int()
	got.step = r.F64()
	got.polystyrene = r.Bool()
	got.overlay = r.String()
	got.k = r.Int()
	got.split = r.Int()
	got.placement = r.Int()
	got.fullCopyBackup = r.Bool()
	got.neighborK = r.Int()
	got.detector = r.String()
	got.shards = r.Int()
	if got.shards != 1 {
		return fmt.Errorf("scenario: snapshot was taken under the sharded topology with %d shards, which has been removed; only single-engine snapshots restore", got.shards)
	}
	if got != d {
		return fmt.Errorf("scenario: snapshot configuration %+v does not match this scenario %+v", got, d)
	}
	return nil
}

// SnapshotTo writes a checksummed checkpoint of the whole scenario to w
// in Stack.WriteCheckpoint's layout, with the metric series recorded so
// far as the scenario's own section.
//
// (The name avoids Scenario.Snapshot, which predates checkpointing and
// captures node positions for rendering.)
func (sc *Scenario) SnapshotTo(w io.Writer) error {
	return sc.WriteCheckpoint(w, SnapshotKind, digestOf(sc.Cfg).write, sc.result.write)
}

// Restore loads a checkpoint written by SnapshotTo into this scenario,
// which must have been wired from an equivalent configuration (New has
// already run; everything its init paths produced is overwritten). A
// corrupted, truncated or mismatched snapshot is refused before any state
// is touched; Stack.RestoreCheckpoint states the one exception, after
// which the scenario must be discarded.
func (sc *Scenario) Restore(rd io.Reader) error {
	var res Result
	if err := sc.RestoreCheckpoint(rd, SnapshotKind, digestOf(sc.Cfg).check, res.read); err != nil {
		return err
	}
	*sc.result = res
	return nil
}

// write writes the scenario's own checkpoint section: the metric series.
func (res *Result) write(w *snap.Writer) {
	writeFloats(w, res.Homogeneity)
	writeFloats(w, res.Proximity)
	writeFloats(w, res.DataPoints)
	writeFloats(w, res.MsgCost)
	w.Len(len(res.LiveNodes))
	for _, v := range res.LiveNodes {
		w.Int(v)
	}
}

// read reads a section written by write into res.
func (res *Result) read(r *snap.Reader) {
	res.Homogeneity = readFloats(r)
	res.Proximity = readFloats(r)
	res.DataPoints = readFloats(r)
	res.MsgCost = readFloats(r)
	res.LiveNodes = make([]int, r.Len(8))
	for i := range res.LiveNodes {
		res.LiveNodes[i] = r.Int()
	}
}

func writeFloats(w *snap.Writer, s []float64) {
	w.Len(len(s))
	for _, v := range s {
		w.F64(v)
	}
}

func readFloats(r *snap.Reader) []float64 {
	s := make([]float64, r.Len(8))
	for i := range s {
		s[i] = r.F64()
	}
	return s
}

// MeasureReshapingFrom is MeasureReshaping with the convergence phase
// replaced by restoring snapshot: the SnapshotTo output of an equivalent
// configuration that has already converged. Reseeding the engine
// generator from cfg.Seed forks the cell's own trajectory: every warm cell
// continues from the same topology but diverges randomly, mirroring how
// cold cells differ only by seed.
func MeasureReshapingFrom(cfg Config, snapshot []byte, maxRounds int) (ReshapingOutcome, error) {
	cfg.SkipMetrics = true
	sc, err := New(cfg)
	if err != nil {
		return ReshapingOutcome{}, err
	}
	defer sc.Close()
	if err := sc.Restore(bytes.NewReader(snapshot)); err != nil {
		return ReshapingOutcome{}, err
	}
	sc.Engine.Rand().Reseed(cfg.Seed)
	return measureReshapingTail(sc, maxRounds), nil
}
