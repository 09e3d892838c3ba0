// Package ckpt manages durable checkpoint generations on disk.
//
// A checkpoint directory holds one run's numbered generation files
// ("gen-0000000042.snap", round encoded in the name), and its listing is
// the only record of which generations exist. A save writes its
// generation through the atomic dance:
//
//	create temp file → write → fsync → close → rename → fsync directory
//
// so a crash at any point leaves either the old file or the new file,
// never a truncated hybrid at the final path. Only once the new
// generation is durable does the save remove every generation older than
// the newest Keep. Removal is best-effort: a file it misses, or one a
// crashed save left behind, is removed by the next save that lists it.
// Rotation counts every generation file in the directory, whatever its
// kind, so two runs must not share one.
//
// Recovery (OpenLatestGood) lists the same files newest-first and
// verifies each via the snap envelope's checksum, returning the newest
// generation that decodes cleanly. A torn or corrupted newest generation
// therefore degrades to the previous one instead of failing the resume.
// Neither a temp file nor the MANIFEST.snap an earlier build kept beside
// its generations is ever a candidate: ParseGenRound refuses both names.
//
// Transient write errors (anything carrying Transient() bool, see
// IsTransient) are retried up to 3 times with doubling backoff from 10 ms;
// everything else — including an injected crash — propagates.
package ckpt

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"polystyrene/internal/snap"
)

// genPattern is the generation filename layout; the zero-padded round
// makes lexical and numeric order agree.
const genPattern = "gen-%010d.snap"

// File is the writable-file surface the manager needs. *os.File
// satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations the manager performs, so
// fault-injection shims (faultFS in internal/scenario's tests) can
// interpose on every mutating step. OS is the real implementation.
type FS interface {
	MkdirAll(dir string) error
	Create(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// SyncDir fsyncs a directory, making a preceding rename durable.
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// OS is the real filesystem.
var OS FS = osFS{}

// IsTransient reports whether err (or anything it wraps) marks itself
// retryable by implementing Transient() bool returning true. The
// manager retries only such errors; a crash mid-dance is permanent by
// definition.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Generation identifies one checkpoint generation.
type Generation struct {
	Name  string // filename within the checkpoint directory
	Round int    // simulation round the snapshot was taken at
}

// Path returns the generation's full path under dir.
func (g Generation) Path(dir string) string { return filepath.Join(dir, g.Name) }

// GenName returns the generation filename for a round.
func GenName(round int) string { return fmt.Sprintf(genPattern, round) }

// ParseGenRound extracts the round from a generation filename.
func ParseGenRound(name string) (int, bool) {
	var round int
	if _, err := fmt.Sscanf(name, genPattern, &round); err != nil {
		return 0, false
	}
	if name != GenName(round) || round < 0 {
		return 0, false
	}
	return round, true
}

// Options configures a Manager.
type Options struct {
	// Dir is the checkpoint directory; created if missing.
	Dir string
	// Kind is the snap envelope kind every generation must carry
	// (e.g. "scenario"). Recovery rejects files of any other kind.
	Kind string
	// Keep is how many generations to retain; older ones are removed
	// after each save. Default 3.
	Keep int
	// FS defaults to OS.
	FS FS
	// Sleep waits out a retry's backoff; swappable for tests. Default
	// time.Sleep.
	Sleep func(time.Duration)
}

// Manager writes, rotates and recovers checkpoint generations in one
// directory. Methods are not safe for concurrent use; callers serialize
// saves (the scenario auto-checkpointer runs them on the round loop).
type Manager struct {
	opts Options
}

// NewManager opens (creating if needed) a checkpoint directory.
func NewManager(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ckpt: Options.Dir is required")
	}
	if opts.Kind == "" {
		return nil, fmt.Errorf("ckpt: Options.Kind is required")
	}
	if opts.Keep == 0 {
		opts.Keep = 3
	}
	if opts.Keep < 1 {
		return nil, fmt.Errorf("ckpt: Keep must be >= 1, got %d", opts.Keep)
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	m := &Manager{opts: opts}
	if err := m.retry(func() error { return opts.FS.MkdirAll(opts.Dir) }); err != nil {
		return nil, fmt.Errorf("ckpt: creating %s: %w", opts.Dir, err)
	}
	return m, nil
}

// Save durably writes one generation for round: the write callback
// streams the snapshot envelope into the temp file, which is then
// fsynced and renamed into place, replacing a same-round generation.
// Transient failures of any step are retried with doubling backoff. Once
// the generation is durable, every generation older than the newest Keep
// in the directory is removed best-effort.
func (m *Manager) Save(round int, write func(io.Writer) error) (Generation, error) {
	if round < 0 {
		return Generation{}, fmt.Errorf("ckpt: negative round %d", round)
	}
	gen := Generation{Name: GenName(round), Round: round}
	final := gen.Path(m.opts.Dir)
	if err := m.retry(func() error { return m.writeGen(final, write) }); err != nil {
		return Generation{}, fmt.Errorf("ckpt: saving %s: %w", gen.Name, err)
	}
	if gens, err := m.generations(); err == nil {
		for _, g := range gens[:max(len(gens)-m.opts.Keep, 0)] {
			_ = m.opts.FS.Remove(g.Path(m.opts.Dir))
		}
	}
	return gen, nil
}

// generations lists the directory's generation files in ascending round
// order.
func (m *Manager) generations() ([]Generation, error) {
	names, err := m.opts.FS.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, err
	}
	var gens []Generation
	for _, name := range names {
		if round, ok := ParseGenRound(name); ok {
			gens = append(gens, Generation{Name: name, Round: round})
		}
	}
	slices.SortFunc(gens, func(a, b Generation) int { return cmp.Compare(a.Round, b.Round) })
	return gens, nil
}

// A step whose failure is transient (see IsTransient) is re-attempted
// up to saveRetries times, the first after saveBackoff and each later
// one after twice the wait before it.
const (
	saveRetries = 3
	saveBackoff = 10 * time.Millisecond
)

func (m *Manager) retry(attempt func() error) error {
	backoff := saveBackoff
	for tries := 0; ; tries++ {
		err := attempt()
		if err == nil || tries >= saveRetries || !IsTransient(err) {
			return err
		}
		m.opts.Sleep(backoff)
		backoff *= 2
	}
}

// writeGen runs one attempt of the atomic write dance for a single file.
func (m *Manager) writeGen(final string, write func(io.Writer) error) error {
	fs := m.opts.FS
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("rename %s: %w", final, err)
	}
	if err := fs.SyncDir(filepath.Dir(final)); err != nil {
		return fmt.Errorf("fsync dir of %s: %w", final, err)
	}
	return nil
}

// OpenLatestGood returns the newest generation that verifies cleanly,
// together with its raw file bytes (the full snap envelope, already
// checksum-verified — feed them straight to the restore path).
// Candidates are the directory's generation files, newest round first;
// corrupt or torn files are skipped. The error reports every rejected
// candidate when nothing survives.
func (m *Manager) OpenLatestGood() (Generation, []byte, error) {
	return m.OpenLatestGoodAtMost(int(^uint(0) >> 1))
}

// OpenLatestGoodAtMost is OpenLatestGood restricted to generations at
// or before round — the time-travel entry point: replay from the last
// retained generation preceding a failure.
func (m *Manager) OpenLatestGoodAtMost(round int) (Generation, []byte, error) {
	gens, err := m.generations()
	if err != nil {
		return Generation{}, nil, fmt.Errorf("ckpt: listing %s: %w", m.opts.Dir, err)
	}
	var rejected []string
	for _, g := range slices.Backward(gens) {
		if g.Round > round {
			continue
		}
		data, err := m.opts.FS.ReadFile(g.Path(m.opts.Dir))
		if err == nil {
			_, err = snap.Decode(m.opts.Kind, data)
		}
		if err != nil {
			rejected = append(rejected, fmt.Sprintf("%s: %v", g.Name, err))
			continue
		}
		return g, data, nil
	}
	if len(rejected) == 0 {
		return Generation{}, nil, fmt.Errorf("ckpt: no generations at or before round %d in %s", round, m.opts.Dir)
	}
	return Generation{}, nil, fmt.Errorf("ckpt: no good generation in %s; rejected:\n  %s",
		m.opts.Dir, strings.Join(rejected, "\n  "))
}
