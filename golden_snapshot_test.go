package polystyrene

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"polystyrene/internal/snap"
)

// goldenSystemConfig is the configuration the checked-in facade snapshots
// were taken from: testdata/system_poly_8x4_r8.psysnap under Polystyrene
// and testdata/system_baseline_8x4_r8.psysnap under the plain T-Man
// baseline, both at round 8 of goldenSystemScript. The files are never
// regenerated: they pin that facade snapshots written by earlier builds
// keep restoring byte-for-byte.
func goldenSystemConfig(baseline bool) SystemConfig {
	return SystemConfig{
		Seed:              9,
		Space:             Torus(8, 4),
		Shape:             TorusShape(8, 4, 1),
		ReplicationFactor: 3,
		DetectionDelay:    1,
		Baseline:          baseline,
	}
}

// goldenSystemScript drives a fresh golden system to round 8: converge,
// crash the right half, heal, then add four late joiners (so the
// snapshot's pinned-position section is non-empty) and run on.
func goldenSystemScript(t *testing.T, sys *System) {
	t.Helper()
	sys.Run(4)
	sys.CrashRegion(func(p []float64) bool { return p[0] >= 4 })
	sys.Run(2)
	if _, err := sys.AddNodes([][]float64{{4.5, 0.5}, {5.5, 1.5}, {6.5, 2.5}, {7.5, 3.5}}); err != nil {
		t.Fatal(err)
	}
	sys.Run(2)
}

func systemSnapshotBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSystemSnapshotRestores pins the facade's snapshot format in
// both modes. Each checked-in version 1 snapshot and its version 2 twin
// (*.v2.psysnap) carry one body. Both restore, as does the version 3 twin
// (*.v3.psysnap), and each re-snapshot equals the version 4 twin
// (*.v4.psysnap, written once by restoring the version 1 file and
// snapshotting again), which restores and re-snapshots to itself. Five
// more rounds from any of the four equal an uninterrupted run of the same
// script.
func TestGoldenSystemSnapshotRestores(t *testing.T) {
	for _, tc := range []struct {
		file     string
		baseline bool
	}{
		{"system_poly_8x4_r8.psysnap", false},
		{"system_baseline_8x4_r8.psysnap", true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var goldens [][]byte // versions 1 to 4
			stem := strings.TrimSuffix(tc.file, ".psysnap")
			for _, name := range []string{tc.file, stem + ".v2.psysnap", stem + ".v3.psysnap", stem + ".v4.psysnap"} {
				b, err := os.ReadFile("testdata/" + name)
				if err != nil {
					t.Fatal(err)
				}
				goldens = append(goldens, b)
			}
			v1Body, err := snap.Decode(systemKind, goldens[0])
			if err != nil {
				t.Fatal(err)
			}
			v2Body, err := snap.Decode(systemKind, goldens[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v1Body, v2Body) {
				t.Fatal("the version 1 golden snapshot and its version 2 twin carry different bodies")
			}
			cfg := goldenSystemConfig(tc.baseline)

			var restored []*System
			for i, golden := range goldens {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				if err := sys.Restore(bytes.NewReader(golden)); err != nil {
					t.Fatalf("golden snapshot v%d refused: %v", i+1, err)
				}
				if got := sys.Round(); got != 8 {
					t.Fatalf("restored round = %d, want 8", got)
				}
				if !bytes.Equal(systemSnapshotBytes(t, sys), goldens[3]) {
					t.Fatalf("re-snapshot of the version %d golden snapshot is not byte-identical to its version 4 twin", i+1)
				}
				restored = append(restored, sys)
			}

			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			goldenSystemScript(t, fresh)
			fresh.Run(5)
			want := systemSnapshotBytes(t, fresh)
			for i, sys := range restored {
				sys.Run(5)
				if !bytes.Equal(systemSnapshotBytes(t, sys), want) {
					t.Fatalf("golden snapshot v%d + 5 rounds diverged from an uninterrupted run", i+1)
				}
			}
		})
	}
}
