package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"polystyrene/internal/ckpt"
	"polystyrene/internal/snap"
)

// This file holds faultFS, a deterministic fault-injecting filesystem
// shim over ckpt.FS, for property tests that must prove crash safety
// rather than assume it.
//
// Every mutating operation — MkdirAll, Create, each Write chunk, Sync,
// Close, Rename, Remove, SyncDir — consumes one slot of a global op
// counter. Faults are keyed on that counter, which makes the fault
// space enumerable: run the workload once with no faults, read Ops(),
// and every index in [0, Ops()) is a distinct crash point.
//
// Two fault styles:
//
//   - CrashAt n: the n-th mutating op fails with errCrash and the shim
//     latches a crashed state — every later operation (reads included)
//     fails too, modelling process death. A crash landing on a Write
//     chunk first writes a seed-determined prefix of that chunk, so
//     torn writes are part of the enumeration, not a separate mode.
//   - TransientOps n: the first n mutating ops fail with a retryable
//     error (IsTransient-positive), exercising the manager's
//     retry-with-backoff path.
//
// Everything is driven by faultConfig.Seed through a splitmix64 stream,
// so a failing crash point reproduces bit-identically from its index.
// The crash-safety tests of this package (crash_test.go) soak the
// scenario's checkpoint cadence through it; the tests below hold the
// shim itself and ckpt.Manager's recovery to it.

// errCrash marks a simulated crash. It is deliberately not transient:
// a dead process does not retry.
var errCrash = errors.New("faultfs: simulated crash")

// noCrash disables the crash point.
const noCrash = -1

// faultConfig selects the faults to inject.
type faultConfig struct {
	// Seed drives torn-write prefix lengths deterministically.
	Seed uint64
	// CrashAt is the 0-based mutating-op index that crashes, or
	// noCrash (-1). The zero value crashes at the very first op, so
	// always set it explicitly.
	CrashAt int
	// TransientOps makes the first N mutating ops fail retryably.
	TransientOps int
	// ChunkBytes splits each Write into chunks of at most this many
	// bytes, each consuming one op slot — this is what turns byte
	// offsets inside a large envelope write into enumerable crash
	// points. 0 leaves writes whole.
	ChunkBytes int
}

// faultFS implements ckpt.FS with injected faults. Not safe for concurrent
// use: the op counter is the enumeration axis and must stay ordered.
type faultFS struct {
	inner   ckpt.FS
	cfg     faultConfig
	rng     uint64
	ops     int
	crashed bool
}

// newFaultFS wraps inner (usually ckpt.OS over a test temp dir) with faults.
func newFaultFS(inner ckpt.FS, cfg faultConfig) *faultFS {
	return &faultFS{inner: inner, cfg: cfg, rng: cfg.Seed}
}

// Ops reports how many mutating-op slots have been consumed. Run the
// workload once with CrashAt: noCrash to size the crash-point sweep.
func (f *faultFS) Ops() int { return f.ops }

// Crashed reports whether the crash point has fired.
func (f *faultFS) Crashed() bool { return f.crashed }

func (f *faultFS) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gate consumes one op slot and returns the fault for it, if any.
func (f *faultFS) gate(op string) error {
	if f.crashed {
		return fmt.Errorf("faultfs: %s after crash: %w", op, errCrash)
	}
	idx := f.ops
	f.ops++
	if f.cfg.CrashAt >= 0 && idx == f.cfg.CrashAt {
		f.crashed = true
		return fmt.Errorf("faultfs: crash at op %d (%s): %w", idx, op, errCrash)
	}
	if idx < f.cfg.TransientOps {
		return transientFault{op: op, idx: idx}
	}
	return nil
}

func (f *faultFS) readGate(op string) error {
	if f.crashed {
		return fmt.Errorf("faultfs: %s after crash: %w", op, errCrash)
	}
	return nil
}

func (f *faultFS) MkdirAll(dir string) error {
	if err := f.gate("mkdir"); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *faultFS) Create(path string) (ckpt.File, error) {
	if err := f.gate("create"); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *faultFS) Rename(oldPath, newPath string) error {
	if err := f.gate("rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *faultFS) Remove(path string) error {
	if err := f.gate("remove"); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *faultFS) ReadDir(dir string) ([]string, error) {
	if err := f.readGate("readdir"); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *faultFS) ReadFile(path string) ([]byte, error) {
	if err := f.readGate("readfile"); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.gate("syncdir"); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

type faultFile struct {
	fs    *faultFS
	inner ckpt.File
}

// Write consumes one op slot per chunk. A crash landing on a chunk
// tears it: a seed-determined prefix reaches the inner file before the
// error, so recovery sees a partially written region, not a clean cut
// at a chunk boundary.
func (w *faultFile) Write(p []byte) (int, error) {
	chunk := w.fs.cfg.ChunkBytes
	if chunk <= 0 {
		chunk = len(p)
	}
	total := 0
	for len(p) > 0 {
		n := chunk
		if n > len(p) {
			n = len(p)
		}
		wasCrashed := w.fs.crashed
		if err := w.fs.gate("write"); err != nil {
			// Tear only the chunk that fired the crash; a process
			// that is already dead writes nothing.
			if !wasCrashed && w.fs.crashed {
				torn := int(w.fs.next() % uint64(n+1))
				m, _ := w.inner.Write(p[:torn])
				total += m
			}
			return total, err
		}
		m, err := w.inner.Write(p[:n])
		total += m
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func (w *faultFile) Sync() error {
	if err := w.fs.gate("fsync"); err != nil {
		return err
	}
	return w.inner.Sync()
}

// Close always releases the inner handle — the kernel closes the fds
// of a dead process — but the reported error still honors the fault
// schedule, so a crash at Close leaves the temp file unrenamed.
func (w *faultFile) Close() error {
	gateErr := w.fs.gate("close")
	closeErr := w.inner.Close()
	if gateErr != nil {
		return gateErr
	}
	return closeErr
}

type transientFault struct {
	op  string
	idx int
}

func (e transientFault) Error() string {
	return fmt.Sprintf("faultfs: transient %s failure at op %d", e.op, e.idx)
}

func (e transientFault) Transient() bool { return true }

// workload performs one fixed sequence of mutating ops through fs and
// returns the first error.
func faultWorkload(fs ckpt.FS, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	path := filepath.Join(dir, "a.snap")
	f, err := fs.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("0123456789abcdef0123456789abcdef")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(path+".tmp", path); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

func TestOpCountingIsDeterministic(t *testing.T) {
	count := func(chunk int) int {
		fs := newFaultFS(ckpt.OS, faultConfig{CrashAt: noCrash, ChunkBytes: chunk})
		if err := faultWorkload(fs, t.TempDir()); err != nil {
			t.Fatalf("fault-free workload failed: %v", err)
		}
		return fs.Ops()
	}
	// mkdir + create + write(s) + sync + close + rename + syncdir.
	if got := count(0); got != 7 {
		t.Fatalf("unchunked ops = %d, want 7", got)
	}
	// 32-byte payload in 8-byte chunks: 4 write ops instead of 1.
	if got := count(8); got != 10 {
		t.Fatalf("chunked ops = %d, want 10", got)
	}
	if a, b := count(8), count(8); a != b {
		t.Fatalf("op count not deterministic: %d vs %d", a, b)
	}
}

func TestEveryCrashPointFailsAndLatches(t *testing.T) {
	probe := newFaultFS(ckpt.OS, faultConfig{CrashAt: noCrash, ChunkBytes: 8})
	if err := faultWorkload(probe, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	for at := 0; at < total; at++ {
		fs := newFaultFS(ckpt.OS, faultConfig{Seed: uint64(at), CrashAt: at, ChunkBytes: 8})
		dir := t.TempDir()
		err := faultWorkload(fs, dir)
		if !errors.Is(err, errCrash) {
			t.Fatalf("crash point %d: err = %v", at, err)
		}
		if !fs.Crashed() {
			t.Fatalf("crash point %d did not latch", at)
		}
		// Everything after the crash fails, reads included.
		if err := fs.MkdirAll(dir); !errors.Is(err, errCrash) {
			t.Fatalf("post-crash mkdir: %v", err)
		}
		if _, err := fs.ReadFile(filepath.Join(dir, "a.snap")); !errors.Is(err, errCrash) {
			t.Fatalf("post-crash read: %v", err)
		}
	}
}

func TestTornWriteLeavesPrefixOnly(t *testing.T) {
	// Ops: mkdir=0, create=1, first write chunk=2 — so CrashAt=3
	// lands on the second write chunk and tears it.
	dir := t.TempDir()
	fs := newFaultFS(ckpt.OS, faultConfig{Seed: 42, CrashAt: 3, ChunkBytes: 8})
	err := faultWorkload(fs, dir)
	if !errors.Is(err, errCrash) {
		t.Fatalf("err = %v", err)
	}
	data, rerr := os.ReadFile(filepath.Join(dir, "a.snap.tmp"))
	if rerr != nil {
		t.Fatalf("reading torn temp file: %v", rerr)
	}
	// One full chunk landed, then up to 8 torn bytes of the second.
	if len(data) < 8 || len(data) > 16 {
		t.Fatalf("torn file has %d bytes, want [8,16]", len(data))
	}
	want := "0123456789abcdef"
	if string(data) != want[:len(data)] {
		t.Fatalf("torn file %q is not a prefix of the payload", data)
	}
	// Same seed, same tear.
	dir2 := t.TempDir()
	fs2 := newFaultFS(ckpt.OS, faultConfig{Seed: 42, CrashAt: 3, ChunkBytes: 8})
	_ = faultWorkload(fs2, dir2)
	data2, _ := os.ReadFile(filepath.Join(dir2, "a.snap.tmp"))
	if string(data2) != string(data) {
		t.Fatalf("tear not deterministic: %q vs %q", data, data2)
	}
}

func TestTransientOpsAreRetryable(t *testing.T) {
	fs := newFaultFS(ckpt.OS, faultConfig{CrashAt: noCrash, TransientOps: 2})
	err := fs.MkdirAll(t.TempDir())
	if err == nil || !ckpt.IsTransient(err) {
		t.Fatalf("first op: %v", err)
	}
	if errors.Is(err, errCrash) {
		t.Fatal("transient error claims to be a crash")
	}
}

func TestCrashIsNotTransient(t *testing.T) {
	fs := newFaultFS(ckpt.OS, faultConfig{CrashAt: 0})
	err := fs.MkdirAll(t.TempDir())
	if !errors.Is(err, errCrash) || ckpt.IsTransient(err) {
		t.Fatalf("crash error misclassified: %v", err)
	}
}

// TestManagerSurvivesEveryCrashPoint is the property at the heart of
// the shim: enumerate every mutating op in a two-generation save
// sequence, crash at each one, and require that recovery over the real
// directory still yields a verified generation — with data no older
// than the generation that had already been made durable.
func TestManagerSurvivesEveryCrashPoint(t *testing.T) {
	save := func(m *ckpt.Manager, round int, body string) error {
		_, err := m.Save(round, func(w io.Writer) error {
			return snap.WriteEnvelope(w, "blob", []byte(body))
		})
		return err
	}
	// Probe run: count ops for save(1) + save(2) after a durable save(0).
	countOps := func() int {
		dir := t.TempDir()
		seedM, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := save(seedM, 0, "gen0"); err != nil {
			t.Fatal(err)
		}
		fs := newFaultFS(ckpt.OS, faultConfig{CrashAt: noCrash, ChunkBytes: 8})
		m, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := save(m, 1, "gen1"); err != nil {
			t.Fatal(err)
		}
		if err := save(m, 2, "gen2"); err != nil {
			t.Fatal(err)
		}
		return fs.Ops()
	}
	total := countOps()
	if total < 10 {
		t.Fatalf("implausible op count %d", total)
	}
	for at := 0; at < total; at++ {
		dir := t.TempDir()
		seedM, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := save(seedM, 0, "gen0"); err != nil {
			t.Fatal(err)
		}
		fs := newFaultFS(ckpt.OS, faultConfig{Seed: uint64(at), CrashAt: at, ChunkBytes: 8})
		m, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2, FS: fs, Sleep: func(d time.Duration) {}})
		if err != nil {
			// NewManager itself crashed (MkdirAll is op 0): the
			// durable state is untouched.
			if !errors.Is(err, errCrash) {
				t.Fatalf("crash %d: NewManager: %v", at, err)
			}
		} else {
			err1 := save(m, 1, "gen1")
			if err1 == nil {
				if err2 := save(m, 2, "gen2"); err2 != nil && !errors.Is(err2, errCrash) {
					t.Fatalf("crash %d: save(2): %v", at, err2)
				}
			} else if !errors.Is(err1, errCrash) {
				t.Fatalf("crash %d: save(1): %v", at, err1)
			}
		}
		// Recovery: a fresh process over the same directory.
		rec, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2})
		if err != nil {
			t.Fatalf("crash %d: recovery NewManager: %v", at, err)
		}
		g, body, err := rec.OpenLatestGood()
		if err != nil {
			t.Fatalf("crash %d: no good generation: %v", at, err)
		}
		if g.Round < 0 || g.Round > 2 {
			t.Fatalf("crash %d: recovered impossible round %d", at, g.Round)
		}
		want := map[int]string{0: "gen0", 1: "gen1", 2: "gen2"}[g.Round]
		inner, derr := snap.Decode("blob", body)
		if derr != nil {
			t.Fatalf("crash %d: decoding recovered envelope: %v", at, derr)
		}
		if string(inner) != want {
			t.Fatalf("crash %d: recovered round %d body %q, want %q", at, g.Round, inner, want)
		}
	}
}

// FuzzCrashPoint fuzzes the (seed, crash point, chunk size) space of a
// save-then-crash sequence: whatever the tear looks like, recovery must
// return a verified generation whose body is one of the states that was
// actually saved.
func FuzzCrashPoint(f *testing.F) {
	f.Add(uint64(1), 3, 8)
	f.Add(uint64(7), 0, 4)
	f.Add(uint64(1234567), 25, 16)
	f.Fuzz(func(t *testing.T, seed uint64, crashAt int, chunk int) {
		if crashAt < 0 {
			crashAt = -crashAt
		}
		crashAt %= 64
		if chunk < 0 {
			chunk = -chunk
		}
		chunk = 1 + chunk%32
		dir := t.TempDir()
		seedM, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seedM.Save(0, func(w io.Writer) error {
			return snap.WriteEnvelope(w, "blob", []byte("gen0"))
		}); err != nil {
			t.Fatal(err)
		}
		fs := newFaultFS(ckpt.OS, faultConfig{Seed: seed, CrashAt: crashAt, ChunkBytes: chunk})
		if m, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2, FS: fs,
			Sleep: func(time.Duration) {}}); err == nil {
			_, _ = m.Save(1, func(w io.Writer) error {
				return snap.WriteEnvelope(w, "blob", []byte("gen1"))
			})
		}
		rec, err := ckpt.NewManager(ckpt.Options{Dir: dir, Kind: "blob", Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		g, body, err := rec.OpenLatestGood()
		if err != nil {
			t.Fatalf("seed=%d crashAt=%d chunk=%d: no good generation: %v", seed, crashAt, chunk, err)
		}
		want := map[int]string{0: "gen0", 1: "gen1"}[g.Round]
		inner, derr := snap.Decode("blob", body)
		if derr != nil {
			t.Fatalf("decoding recovered envelope: %v", derr)
		}
		if string(inner) != want {
			t.Fatalf("recovered round %d body %q", g.Round, inner)
		}
	})
}
