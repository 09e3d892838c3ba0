package core

import (
	"fmt"

	"polystyrene/internal/space"
	"polystyrene/internal/xrand"
)

// SplitKind selects the strategy used to distribute the merged guest sets
// of two interacting nodes during migration (paper Sec. III-F).
type SplitKind int

const (
	// SplitBasic allocates each data point to the closer of the two node
	// positions (Algorithm 4) — a step of distributed k-means. It can get
	// stuck in status-quo configurations (Fig. 5a).
	SplitBasic SplitKind = iota + 1
	// SplitPD partitions the merged set along one of its diameters
	// (heuristic PD of Algorithm 5) and assigns the two parts in the
	// (u→p, v→q) orientation, without the displacement heuristic.
	SplitPD
	// SplitMD partitions with the basic closest-position rule but then
	// allocates the two clusters so as to minimise the movement of the two
	// nodes (heuristic MD of Algorithm 5 on its own, as in Fig. 10b).
	SplitMD
	// SplitAdvanced combines both heuristics (Algorithm 5): partition
	// along a diameter (PD), then orient the allocation to minimise node
	// displacement (MD). This is what the headline results use.
	SplitAdvanced
)

// String implements fmt.Stringer.
func (k SplitKind) String() string {
	switch k {
	case SplitBasic:
		return "basic"
	case SplitPD:
		return "pd"
	case SplitMD:
		return "md"
	case SplitAdvanced:
		return "advanced"
	default:
		return fmt.Sprintf("SplitKind(%d)", int(k))
	}
}

// ParseSplitKind converts a CLI string into a SplitKind.
func ParseSplitKind(s string) (SplitKind, error) {
	switch s {
	case "basic":
		return SplitBasic, nil
	case "pd":
		return SplitPD, nil
	case "md":
		return SplitMD, nil
	case "advanced", "pd+md":
		return SplitAdvanced, nil
	default:
		return 0, fmt.Errorf("core: unknown split kind %q (want basic|pd|md|advanced)", s)
	}
}

// Splitter distributes a merged point set between two nodes at positions
// posP and posQ, returning the points each node should keep. The two
// returned slices always form a partition of the input: every input point
// appears in exactly one of them.
type Splitter struct {
	// Kind selects the strategy.
	Kind SplitKind
	// Space supplies the metric.
	Space space.Space
	// Rng supplies randomness for diameter sampling. Required only when
	// point sets can exceed the exact-search threshold.
	Rng *xrand.Rand

	// Pooled partition buffers: the two clusters are assembled here, and
	// the slices returned by Split alias them.
	aPts, bPts []space.Point
	aIDs, bIDs []space.PointID
}

// diameterSampleCap bounds the number of candidate pairs examined when
// approximating a diameter over large point sets (the paper suggests
// sampling once a set exceeds ~30 points); exact search is used whenever
// the set has no more pairs than the cap.
const diameterSampleCap = 500

// Split distributes points between the nodes at posP and posQ. ids carries
// the points' interned identities in lockstep and is partitioned alongside
// them; callers that do not track identities may pass nil, in which case
// the returned ID slices are empty.
//
// The returned slices alias scratch buffers owned by the Splitter: they
// are valid only until the next Split call, and callers copy whatever they
// keep. This keeps the migration hot path allocation-free.
func (sp *Splitter) Split(points []space.Point, ids []space.PointID, posP, posQ space.Point) (toP, toQ []space.Point, idsP, idsQ []space.PointID) {
	sp.aPts, sp.bPts = sp.aPts[:0], sp.bPts[:0]
	sp.aIDs, sp.bIDs = sp.aIDs[:0], sp.bIDs[:0]
	switch sp.Kind {
	case SplitPD:
		u, v, ok := sp.diameter(points)
		if !ok {
			sp.partition(points, ids, posP, posQ)
		} else {
			sp.partition(points, ids, u, v)
		}
		return sp.aPts, sp.bPts, sp.aIDs, sp.bIDs
	case SplitMD:
		sp.partition(points, ids, posP, posQ)
		return sp.orientByDisplacement(posP, posQ)
	case SplitAdvanced:
		u, v, ok := sp.diameter(points)
		if !ok {
			sp.partition(points, ids, posP, posQ)
			return sp.aPts, sp.bPts, sp.aIDs, sp.bIDs
		}
		sp.partition(points, ids, u, v)
		return sp.orientByDisplacement(posP, posQ)
	default: // SplitBasic and unset
		sp.partition(points, ids, posP, posQ)
		return sp.aPts, sp.bPts, sp.aIDs, sp.bIDs
	}
}

// diameter returns a farthest pair (exact for small sets, sampled for
// large ones). ok is false when fewer than two points exist.
func (sp *Splitter) diameter(points []space.Point) (u, v space.Point, ok bool) {
	if len(points) < 2 {
		return nil, nil, false
	}
	var i, j int
	if sp.Rng != nil {
		i, j, _ = space.DiameterSampled(sp.Space, points, diameterSampleCap, sp.Rng)
	} else {
		i, j, _ = space.Diameter(sp.Space, points)
	}
	if i < 0 {
		return nil, nil, false
	}
	return points[i], points[j], true
}

// partition implements the shared closest-pole rule of Algorithm 4
// (SPLIT_BASIC, poles = node positions) and heuristic PD (Algorithm 5
// lines 2-4, poles = a diameter): points strictly closer to poleA go into
// the a-buffers; ties and the rest into b. ids, when non-nil, follows in
// lockstep.
func (sp *Splitter) partition(points []space.Point, ids []space.PointID, poleA, poleB space.Point) {
	s := sp.Space
	for i, x := range points {
		if s.Distance(x, poleA) < s.Distance(x, poleB) {
			sp.aPts = append(sp.aPts, x)
			if ids != nil {
				sp.aIDs = append(sp.aIDs, ids[i])
			}
		} else {
			sp.bPts = append(sp.bPts, x)
			if ids != nil {
				sp.bIDs = append(sp.bIDs, ids[i])
			}
		}
	}
}

// orientByDisplacement implements heuristic MD (Algorithm 5, lines 5-13):
// allocate the two assembled clusters to p and q so the sum of
// medoid-to-position distances — how far each node would move — is
// minimal. Empty clusters contribute no displacement.
func (sp *Splitter) orientByDisplacement(posP, posQ space.Point) (toP, toQ []space.Point, idsP, idsQ []space.PointID) {
	ma := space.MedoidPoint(sp.Space, sp.aPts)
	mb := space.MedoidPoint(sp.Space, sp.bPts)
	dist := func(m, pos space.Point) float64 {
		if m == nil {
			return 0
		}
		return sp.Space.Distance(m, pos)
	}
	deltaAB := dist(ma, posP) + dist(mb, posQ)
	deltaBA := dist(mb, posP) + dist(ma, posQ)
	if deltaAB < deltaBA {
		return sp.aPts, sp.bPts, sp.aIDs, sp.bIDs
	}
	return sp.bPts, sp.aPts, sp.bIDs, sp.aIDs
}
