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

const scenarioKind = SnapshotKind

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

func readDigest(r *snap.Reader) configDigest {
	var d configDigest
	d.w = r.Int()
	d.h = r.Int()
	d.step = r.F64()
	d.polystyrene = r.Bool()
	d.overlay = r.String()
	d.k = r.Int()
	d.split = r.Int()
	d.placement = r.Int()
	d.fullCopyBackup = r.Bool()
	d.neighborK = r.Int()
	d.detector = r.String()
	d.shards = r.Int()
	return d
}

// SnapshotTo writes a checksummed checkpoint of the whole scenario —
// configuration digest, reinjection positions, the metric series recorded
// so far and the complete engine state (RNG, liveness, meter, every
// protocol layer) — to w. Restoring it into a freshly wired scenario of
// the same configuration and running n more rounds is byte-identical to
// never having checkpointed.
//
// (The name avoids Scenario.Snapshot, which predates checkpointing and
// captures node positions for rendering.)
func (sc *Scenario) SnapshotTo(w io.Writer) error {
	var sw snap.Writer
	digestOf(sc.Cfg).write(&sw)

	WritePinned(&sw, sc.fixedPos)

	writeFloats(&sw, sc.result.Homogeneity)
	writeFloats(&sw, sc.result.Proximity)
	writeFloats(&sw, sc.result.DataPoints)
	writeFloats(&sw, sc.result.MsgCost)
	sw.Len(len(sc.result.LiveNodes))
	for _, v := range sc.result.LiveNodes {
		sw.Int(v)
	}

	if err := sc.Engine.SnapshotState(&sw); err != nil {
		return err
	}
	return sw.WriteEnvelope(w, scenarioKind)
}

// Restore loads a checkpoint written by SnapshotTo into this scenario,
// which must have been wired from an equivalent configuration (New has
// already run; everything its init paths produced is overwritten). The
// file is checksum- and version-verified, and the configuration digest
// checked, before any state is touched — a corrupted, truncated or
// mismatched snapshot never yields a partial restore. One case is not
// covered: a well-formed file whose body is refused once the engine has
// begun to restore — a protocol layer refuses its section, or bytes trail
// the engine state; a crafted file or a foreign build's can do either —
// leaves the scenario partly restored (the engine's round, liveness and
// meter and the layers before the refusing one already replaced), so
// discard the scenario after such an error.
func (sc *Scenario) Restore(rd io.Reader) error {
	r, err := snap.ReadEnvelope(rd, scenarioKind)
	if err != nil {
		return err
	}
	got := readDigest(r)

	pinned := ReadPinned(r)

	homog := readFloats(r)
	prox := readFloats(r)
	dataPts := readFloats(r)
	msgCost := readFloats(r)
	nLive := r.Len(8)
	liveNodes := make([]int, nLive)
	for i := range liveNodes {
		liveNodes[i] = r.Int()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if got.shards != 1 {
		return fmt.Errorf("scenario: snapshot was taken under the sharded topology with %d shards, which has been removed; only single-engine snapshots restore", got.shards)
	}
	if want := digestOf(sc.Cfg); got != want {
		return fmt.Errorf("scenario: snapshot configuration %+v does not match this scenario %+v", got, want)
	}

	if err := sc.Engine.RestoreState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("scenario: %d trailing bytes in snapshot", r.Remaining())
	}

	sc.fixedPos = pinned
	sc.result.Homogeneity = homog
	sc.result.Proximity = prox
	sc.result.DataPoints = dataPts
	sc.result.MsgCost = msgCost
	sc.result.LiveNodes = liveNodes
	return nil
}

func writeFloats(w *snap.Writer, s []float64) {
	w.Len(len(s))
	for _, v := range s {
		w.F64(v)
	}
}

func readFloats(r *snap.Reader) []float64 {
	n := r.Len(8)
	s := make([]float64, n)
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
