package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"polystyrene/internal/snap"
)

func testManager(t *testing.T, keep int) *Manager {
	t.Helper()
	m, err := NewManager(Options{Dir: t.TempDir(), Kind: "blob", Keep: keep})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func decodeBlob(t *testing.T, raw []byte) string {
	t.Helper()
	body, err := snap.Decode("blob", raw)
	if err != nil {
		t.Fatalf("decoding recovered envelope: %v", err)
	}
	return string(body)
}

func saveBlob(t *testing.T, m *Manager, round int, body string) Generation {
	t.Helper()
	g, err := m.Save(round, func(w io.Writer) error {
		return snap.WriteEnvelope(w, "blob", []byte(body))
	})
	if err != nil {
		t.Fatalf("Save(%d): %v", round, err)
	}
	return g
}

func TestSaveAndRecoverLatest(t *testing.T) {
	m := testManager(t, 3)
	for round := 10; round <= 50; round += 10 {
		saveBlob(t, m, round, fmt.Sprintf("state@%d", round))
	}
	g, body, err := m.OpenLatestGood()
	if err != nil {
		t.Fatalf("OpenLatestGood: %v", err)
	}
	if g.Round != 50 || decodeBlob(t, body) != "state@50" {
		t.Fatalf("recovered round %d body %q", g.Round, body)
	}
	// Rotation: only the last 3 generations (30, 40, 50) remain, and
	// nothing else is written beside them.
	if got, want := dirNames(t, m.opts.Dir), []string{GenName(30), GenName(40), GenName(50)}; !slices.Equal(got, want) {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
}

// dirNames lists dir's file names in lexical order, which for
// generation files is round order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}

func TestRecoverySkipsCorruptNewest(t *testing.T) {
	m := testManager(t, 3)
	saveBlob(t, m, 1, "old")
	g2 := saveBlob(t, m, 2, "new")
	// Torn write: truncate the newest generation mid-file.
	path := g2.Path(m.opts.Dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	g, body, err := m.OpenLatestGood()
	if err != nil {
		t.Fatalf("OpenLatestGood: %v", err)
	}
	if g.Round != 1 || decodeBlob(t, body) != "old" {
		t.Fatalf("fell back to round %d body %q, want 1 %q", g.Round, body, "old")
	}
}

func TestRecoveryScansDirectory(t *testing.T) {
	m := testManager(t, 3)
	saveBlob(t, m, 7, "found")
	// A fresh manager over the same dir finds the generation by scan.
	m2, err := NewManager(Options{Dir: m.opts.Dir, Kind: "blob"})
	if err != nil {
		t.Fatal(err)
	}
	g, body, err := m2.OpenLatestGood()
	if err != nil {
		t.Fatalf("OpenLatestGood: %v", err)
	}
	if g.Round != 7 || decodeBlob(t, body) != "found" {
		t.Fatalf("recovered round %d body %q", g.Round, body)
	}
}

// TestRotationDropsCrashedSaveOrphan: a save that crashed after its
// rename leaves a valid generation no manager saved in this process.
// Rotation must count it like any other, so three later saves with
// Keep 2 remove it.
func TestRotationDropsCrashedSaveOrphan(t *testing.T) {
	m := testManager(t, 2)
	saveBlob(t, m, 1, "r1")
	saveBlob(t, m, 2, "r2")
	orphan := snap.Encode("blob", []byte("r3"))
	if err := os.WriteFile(filepath.Join(m.opts.Dir, GenName(3)), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Options{Dir: m.opts.Dir, Kind: "blob", Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 4; round <= 6; round++ {
		saveBlob(t, m2, round, fmt.Sprintf("r%d", round))
	}
	if got, want := dirNames(t, m.opts.Dir), []string{GenName(5), GenName(6)}; !slices.Equal(got, want) {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
}

// TestSavesLeaveOnlyNewestGenerations saves random rounds, repeats and
// out-of-order ones included, and checks after every save that the
// directory holds exactly the newest Keep distinct rounds saved so far,
// as generation files and nothing else.
func TestSavesLeaveOnlyNewestGenerations(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for keep := 1; keep <= 4; keep++ {
		m := testManager(t, keep)
		var rounds []int
		for range 40 {
			round := rng.IntN(30)
			saveBlob(t, m, round, fmt.Sprintf("r%d", round))
			if !slices.Contains(rounds, round) {
				rounds = append(rounds, round)
			}
			slices.Sort(rounds)
			rounds = rounds[max(len(rounds)-keep, 0):]
			want := make([]string, len(rounds))
			for i, r := range rounds {
				want[i] = GenName(r)
			}
			if got := dirNames(t, m.opts.Dir); !slices.Equal(got, want) {
				t.Fatalf("Keep %d, after saving round %d: directory holds %q, want %q", keep, round, got, want)
			}
		}
	}
}

// TestRecoveryIgnoresEarlierManifest opens a directory in the layout an
// earlier build wrote, which kept a MANIFEST.snap listing its
// generations beside them: recovery returns the same generation, and
// rotation goes on by the directory listing alone.
func TestRecoveryIgnoresEarlierManifest(t *testing.T) {
	dir := t.TempDir()
	var w snap.Writer
	w.Len(3)
	for round := 1; round <= 3; round++ {
		enc := snap.Encode("blob", []byte(fmt.Sprintf("r%d", round)))
		if err := os.WriteFile(filepath.Join(dir, GenName(round)), enc, 0o644); err != nil {
			t.Fatal(err)
		}
		w.String(GenName(round))
		w.Int(round)
		w.I64(int64(len(enc)))
		w.U64(uint64(crc32.Checksum(enc, crc32.MakeTable(crc32.Castagnoli))))
	}
	const manifest = "MANIFEST.snap"
	if err := os.WriteFile(filepath.Join(dir, manifest), snap.Encode("ckpt-manifest", w.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Dir: dir, Kind: "blob"})
	if err != nil {
		t.Fatal(err)
	}
	g, body, err := m.OpenLatestGood()
	if err != nil {
		t.Fatalf("OpenLatestGood: %v", err)
	}
	if g.Round != 3 || decodeBlob(t, body) != "r3" {
		t.Fatalf("recovered round %d body %q, want 3 %q", g.Round, body, "r3")
	}
	saveBlob(t, m, 4, "r4")
	saveBlob(t, m, 5, "r5")
	if got, want := dirNames(t, dir), []string{manifest, GenName(3), GenName(4), GenName(5)}; !slices.Equal(got, want) {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
	if g, _, err := m.OpenLatestGood(); err != nil || g.Round != 5 {
		t.Fatalf("after two saves recovered %+v, %v; want round 5", g, err)
	}
}

func TestOpenLatestGoodAtMost(t *testing.T) {
	m := testManager(t, 10)
	for _, round := range []int{3, 6, 9} {
		saveBlob(t, m, round, fmt.Sprintf("r%d", round))
	}
	g, body, err := m.OpenLatestGoodAtMost(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.Round != 6 || decodeBlob(t, body) != "r6" {
		t.Fatalf("AtMost(8) → round %d body %q", g.Round, body)
	}
	if _, _, err := m.OpenLatestGoodAtMost(2); err == nil {
		t.Fatal("AtMost(2) found a generation before any were saved")
	}
}

func TestRecoveryRejectsWrongKind(t *testing.T) {
	m := testManager(t, 3)
	saveBlob(t, m, 1, "blob-body")
	other, err := NewManager(Options{Dir: m.opts.Dir, Kind: "scenario"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.OpenLatestGood(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("wrong-kind generation accepted or unclear error: %v", err)
	}
}

type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// flakyFS fails the first n mutating Create calls with a transient
// error, then behaves normally.
type flakyFS struct {
	FS
	failsLeft int
}

func (f *flakyFS) Create(path string) (File, error) {
	if f.failsLeft > 0 {
		f.failsLeft--
		return nil, transientErr{"simulated EAGAIN"}
	}
	return f.FS.Create(path)
}

func TestSaveRetriesTransientErrors(t *testing.T) {
	var slept []time.Duration
	fs := &flakyFS{FS: OS, failsLeft: 2}
	m, err := NewManager(Options{
		Dir: t.TempDir(), Kind: "blob", Keep: 2,
		FS:    fs,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	saveBlob(t, m, 1, "eventually")
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms 20ms]", slept)
	}
	if _, _, err := m.OpenLatestGood(); err != nil {
		t.Fatalf("recovery after retried save: %v", err)
	}
}

func TestSaveGivesUpAfterRetryBudget(t *testing.T) {
	fs := &flakyFS{FS: OS, failsLeft: 100}
	m, err := NewManager(Options{
		Dir: t.TempDir(), Kind: "blob",
		FS:    fs,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Save(1, func(w io.Writer) error {
		return snap.WriteEnvelope(w, "blob", []byte("x"))
	})
	if err == nil || !IsTransient(err) {
		t.Fatalf("exhausted retries: err=%v", err)
	}
	if fs.failsLeft != 100-4 {
		t.Fatalf("attempts = %d, want 4 (1 + 3 retries)", 100-fs.failsLeft)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is transient")
	}
	if IsTransient(io.ErrUnexpectedEOF) {
		t.Error("plain error is transient")
	}
	if !IsTransient(transientErr{"x"}) {
		t.Error("transient error not recognized")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", transientErr{"x"})) {
		t.Error("wrapped transient error not recognized")
	}
}

func TestParseGenRound(t *testing.T) {
	cases := []struct {
		name  string
		round int
		ok    bool
	}{
		{GenName(0), 0, true},
		{GenName(123456), 123456, true},
		{"gen-123.snap", 0, false}, // not zero-padded
		{"gen--000000001.snap", 0, false},
		{"MANIFEST.snap", 0, false},
		{"gen-0000000001.snap.tmp", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		round, ok := ParseGenRound(tc.name)
		if ok != tc.ok || round != tc.round {
			t.Errorf("ParseGenRound(%q) = %d,%v want %d,%v", tc.name, round, ok, tc.round, tc.ok)
		}
	}
}

// TestRecoveryVerifiesNewestFirst: for random kinds and bodies, recovery
// opens the newest generation, and a torn or bit-flipped newest one is
// refused in favour of the one before it. A version 1 generation an
// earlier build left behind still opens.
func TestRecoveryVerifiesNewestFirst(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for i := range 40 {
		kind := fmt.Sprintf("kind-%d", rng.IntN(1000))
		m, err := NewManager(Options{Dir: t.TempDir(), Kind: kind, Keep: 4})
		if err != nil {
			t.Fatal(err)
		}
		var saved []Generation
		for round := 1; round <= 3; round++ {
			body := make([]byte, rng.IntN(4096))
			for j := range body {
				body[j] = byte(rng.IntN(256))
			}
			g, err := m.Save(round, func(w io.Writer) error { return snap.WriteEnvelope(w, kind, body) })
			if err != nil {
				t.Fatal(err)
			}
			saved = append(saved, g)
		}
		newest := saved[len(saved)-1]
		switch i % 3 {
		case 1: // torn
			data, _ := os.ReadFile(newest.Path(m.opts.Dir))
			if err := os.WriteFile(newest.Path(m.opts.Dir), data[:rng.IntN(len(data))], 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // corrupt
			data, _ := os.ReadFile(newest.Path(m.opts.Dir))
			data[rng.IntN(len(data))] ^= 0x10
			if err := os.WriteFile(newest.Path(m.opts.Dir), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := newest
		if i%3 != 0 {
			want = saved[len(saved)-2]
		}
		g, data, err := m.OpenLatestGood()
		if err != nil {
			t.Fatalf("OpenLatestGood: %v", err)
		}
		onDisk, err := os.ReadFile(want.Path(m.opts.Dir))
		if err != nil {
			t.Fatal(err)
		}
		if g != want || !slices.Equal(data, onDisk) {
			t.Fatalf("case %d: opened %+v, want %+v", i, g, want)
		}
	}

	m := testManager(t, 3)
	v1 := []byte("PSYSNAP\x00")
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(len("blob")))
	v1 = append(v1, "blob"...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(len("older state")))
	v1 = append(v1, "older state"...)
	h := fnv.New64a()
	h.Write(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, h.Sum64())
	if err := os.WriteFile(filepath.Join(m.opts.Dir, GenName(9)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	g, data, err := m.OpenLatestGood()
	if err != nil {
		t.Fatalf("version 1 generation refused: %v", err)
	}
	if want := (Generation{Name: GenName(9), Round: 9}); g != want {
		t.Fatalf("version 1 generation opened as %+v, want %+v", g, want)
	}
	if got := decodeBlob(t, data); got != "older state" {
		t.Fatalf("version 1 generation body %q", got)
	}
}
