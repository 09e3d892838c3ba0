package ckpt

import (
	"fmt"
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
	// Rotation: only the last 3 generations (30, 40, 50) remain.
	gens := m.Generations()
	if len(gens) != 3 || gens[0].Round != 30 || gens[2].Round != 50 {
		t.Fatalf("retained %+v", gens)
	}
	for _, round := range []int{10, 20} {
		if _, err := os.Stat(filepath.Join(m.Dir(), GenName(round))); !os.IsNotExist(err) {
			t.Errorf("dropped generation %d still on disk (err=%v)", round, err)
		}
	}
}

func TestRecoverySkipsCorruptNewest(t *testing.T) {
	m := testManager(t, 3)
	saveBlob(t, m, 1, "old")
	g2 := saveBlob(t, m, 2, "new")
	// Torn write: truncate the newest generation mid-file.
	path := g2.Path(m.Dir())
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

func TestRecoveryWithoutManifest(t *testing.T) {
	m := testManager(t, 3)
	saveBlob(t, m, 7, "orphan")
	if err := os.Remove(filepath.Join(m.Dir(), ManifestName)); err != nil {
		t.Fatal(err)
	}
	// A fresh manager over the same dir finds the generation by scan.
	m2, err := NewManager(Options{Dir: m.Dir(), Kind: "blob"})
	if err != nil {
		t.Fatal(err)
	}
	g, body, err := m2.OpenLatestGood()
	if err != nil {
		t.Fatalf("OpenLatestGood: %v", err)
	}
	if g.Round != 7 || decodeBlob(t, body) != "orphan" {
		t.Fatalf("recovered round %d body %q", g.Round, body)
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
	other, err := NewManager(Options{Dir: m.Dir(), Kind: "scenario"})
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
		Retries: 3, Backoff: time.Millisecond,
		FS:    fs,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	saveBlob(t, m, 1, "eventually")
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [1ms 2ms]", slept)
	}
	if _, _, err := m.OpenLatestGood(); err != nil {
		t.Fatalf("recovery after retried save: %v", err)
	}
}

func TestSaveGivesUpAfterRetryBudget(t *testing.T) {
	fs := &flakyFS{FS: OS, failsLeft: 100}
	m, err := NewManager(Options{
		Dir: t.TempDir(), Kind: "blob",
		Retries: 2, Backoff: time.Microsecond,
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
	if fs.failsLeft != 100-3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", 100-fs.failsLeft)
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
		{ManifestName, 0, false},
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

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.snap")
	for i := 0; i < 3; i++ {
		if err := WriteFileAtomic(nil, path, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("final contents %q err %v", got, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("dir entries %v err %v", names, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManager(t, 5)
	want := []Generation{
		saveBlob(t, m, 4, "a"),
		saveBlob(t, m, 8, "bb"),
	}
	m2, err := NewManager(Options{Dir: m.Dir(), Kind: "blob"})
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Generations()
	if len(got) != len(want) {
		t.Fatalf("reloaded %d generations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("generation %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// FuzzManifest feeds arbitrary bytes through the manifest decoder: it
// must never panic, and anything it accepts must re-encode to entries
// with valid generation names.
func FuzzManifest(f *testing.F) {
	var w snap.Writer
	w.Len(2)
	w.String(GenName(1))
	w.Int(1)
	w.I64(64)
	w.U64(0xabcdef)
	w.String(GenName(9))
	w.Int(9)
	w.I64(128)
	w.U64(0x123456)
	f.Add(snap.Encode(manifestKind, w.Bytes()))
	f.Add([]byte{})
	f.Add([]byte("PSYSNAP\x00garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gens, err := decodeManifest(data)
		if err != nil {
			return
		}
		for _, g := range gens {
			if round, ok := ParseGenRound(g.Name); !ok || round != g.Round {
				t.Fatalf("decoder accepted invalid entry %+v", g)
			}
		}
	})
}

// TestOpenDerivesWholeFileSum pins the Sum recovery reports without
// hashing the file twice: for random kinds and bodies it equals FNV-1a over
// the file and the Sum Save computed while writing, the manifest
// round-trips unchanged, and a torn or corrupt newest candidate is still
// refused before any sum is taken.
func TestOpenDerivesWholeFileSum(t *testing.T) {
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
			data, _ := os.ReadFile(newest.Path(m.Dir()))
			if err := os.WriteFile(newest.Path(m.Dir()), data[:rng.IntN(len(data))], 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // corrupt
			data, _ := os.ReadFile(newest.Path(m.Dir()))
			data[rng.IntN(len(data))] ^= 0x10
			if err := os.WriteFile(newest.Path(m.Dir()), data, 0o644); err != nil {
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
		h := fnv.New64a()
		h.Write(data)
		if g != want || g.Sum != h.Sum64() || g.Size != int64(len(data)) {
			t.Fatalf("case %d: opened %+v (FNV-1a of its bytes %#x), want %+v", i, g, h.Sum64(), want)
		}
		m2, err := NewManager(Options{Dir: m.Dir(), Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if got := m2.Generations(); !slices.Equal(got, saved) {
			t.Fatalf("case %d: manifest reloaded as %+v, want %+v", i, got, saved)
		}
	}
}
