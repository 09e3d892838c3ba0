// Package ckpt manages durable checkpoint generations on disk.
//
// A checkpoint directory holds numbered generation files
// ("gen-0000000042.snap", round encoded in the name) plus a checksummed
// manifest ("MANIFEST.snap") listing the retained generations. Every
// write — generation or manifest — follows the atomic dance:
//
//	create temp file → write → fsync → close → rename → fsync directory
//
// so a crash at any point leaves either the old file or the new file,
// never a truncated hybrid at the final path. Rotation removes dropped
// generations only after the new manifest is durable; an orphaned file
// from a crash between those steps is harmless, because recovery scans
// the directory as well as the manifest.
//
// Recovery (OpenLatestGood) walks candidates newest-first — the union
// of the directory scan and the manifest — and verifies each via the
// snap envelope's checksum, returning the newest generation that decodes
// cleanly. A torn or corrupted newest generation therefore degrades to
// the previous one instead of failing the resume. A generation's Sum is
// the whole-file checksum under the file's own envelope version: CRC-32C
// for the version 2 files this build writes, FNV-1a for version 1 files
// an earlier build left behind. Save computes it while the file streams
// out; recovery derives it from the verified checksum (snap.FileSum)
// instead of hashing the file twice.
//
// Transient write errors (anything carrying Transient() bool, see
// IsTransient) are retried up to 3 times with doubling backoff from 10 ms;
// everything else — including an injected crash — propagates.
package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"polystyrene/internal/snap"
)

// ManifestName is the manifest file inside a checkpoint directory.
const ManifestName = "MANIFEST.snap"

// manifestKind is the snap envelope kind of the manifest file.
const manifestKind = "ckpt-manifest"

// castagnoli is the CRC-32C table, the version 2 snap envelope's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

// Generation identifies one retained checkpoint generation.
type Generation struct {
	Name  string // filename within the checkpoint directory
	Round int    // simulation round the snapshot was taken at
	Size  int64  // file size in bytes
	Sum   uint64 // whole-file checksum under the file's envelope version (see snap.FileSum)
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
	gens []Generation // retained generations, ascending round
}

// NewManager opens (creating if needed) a checkpoint directory. An
// existing manifest is loaded best-effort: a missing or corrupt
// manifest is not an error, because recovery rebuilds the candidate
// list from the directory scan anyway.
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
	if data, err := opts.FS.ReadFile(filepath.Join(opts.Dir, ManifestName)); err == nil {
		if gens, err := decodeManifest(data); err == nil {
			m.gens = gens
		}
	}
	return m, nil
}

// Save durably writes one generation for round: the write callback
// streams the snapshot envelope into the temp file, which is then
// fsynced and renamed into place. On success the manifest is rewritten
// (atomically, same dance) to the retained set and dropped generations
// are removed best-effort. Transient failures of any step are retried
// with doubling backoff.
func (m *Manager) Save(round int, write func(io.Writer) error) (Generation, error) {
	if round < 0 {
		return Generation{}, fmt.Errorf("ckpt: negative round %d", round)
	}
	name := GenName(round)
	final := filepath.Join(m.opts.Dir, name)
	var size int64
	var sum uint64
	err := m.retry(func() error {
		n, s, err := m.writeGen(final, write)
		size, sum = n, s
		return err
	})
	if err != nil {
		return Generation{}, fmt.Errorf("ckpt: saving %s: %w", name, err)
	}
	gen := Generation{Name: name, Round: round, Size: size, Sum: sum}

	// Fold the new generation into the retained set (replacing a
	// same-round save) and rotate.
	kept := m.gens[:0:0]
	for _, g := range m.gens {
		if g.Name != name {
			kept = append(kept, g)
		}
	}
	kept = append(kept, gen)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Round < kept[j].Round })
	var dropped []Generation
	if n := len(kept) - m.opts.Keep; n > 0 {
		dropped = append(dropped, kept[:n]...)
		kept = kept[n:]
	}
	if err := m.retry(func() error { return m.writeManifest(kept) }); err != nil {
		// The generation itself is durable and discoverable by the
		// directory scan; report the stale manifest anyway so a soak
		// with a persistently failing disk does not run silent.
		m.gens = kept
		return gen, fmt.Errorf("ckpt: %s saved but manifest update failed: %w", name, err)
	}
	m.gens = kept
	// Only now is it safe to drop old generations: the manifest no
	// longer references them. Removal failures are harmless — the
	// orphans are re-dropped on the next rotation or ignored forever.
	for _, g := range dropped {
		_ = m.opts.FS.Remove(g.Path(m.opts.Dir))
	}
	return gen, nil
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

// writeGen runs one attempt of the atomic write dance for a single
// file, returning the byte count and the CRC-32C, zero-extended, of what
// was written. For the version 2 envelope a save streams, that is
// snap.FileSum of the file.
func (m *Manager) writeGen(final string, write func(io.Writer) error) (int64, uint64, error) {
	fs := m.opts.FS
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("create %s: %w", tmp, err)
	}
	h := crc32.New(castagnoli)
	cw := &countWriter{w: io.MultiWriter(f, h)}
	if err := write(cw); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return 0, 0, fmt.Errorf("rename %s: %w", final, err)
	}
	if err := fs.SyncDir(filepath.Dir(final)); err != nil {
		return 0, 0, fmt.Errorf("fsync dir of %s: %w", final, err)
	}
	return cw.n, uint64(h.Sum32()), nil
}

func (m *Manager) writeManifest(gens []Generation) error {
	var w snap.Writer
	w.Len(len(gens))
	for _, g := range gens {
		w.String(g.Name)
		w.Int(g.Round)
		w.I64(g.Size)
		w.U64(g.Sum)
	}
	enc := snap.Encode(manifestKind, w.Bytes())
	path := filepath.Join(m.opts.Dir, ManifestName)
	_, _, err := m.writeGen(path, func(out io.Writer) error {
		_, werr := out.Write(enc)
		return werr
	})
	return err
}

func decodeManifest(data []byte) ([]Generation, error) {
	r, err := snap.Open(manifestKind, data)
	if err != nil {
		return nil, err
	}
	n := r.Len(8 + 8 + 8 + 8 + 1) // name len + round + size + sum + ≥1 name byte
	gens := make([]Generation, 0, n)
	for i := 0; i < n; i++ {
		g := Generation{Name: r.String(), Round: r.Int(), Size: r.I64(), Sum: r.U64()}
		if r.Err() != nil {
			break
		}
		if round, ok := ParseGenRound(g.Name); !ok || round != g.Round {
			return nil, fmt.Errorf("ckpt: manifest entry %d: name %q does not match round %d", i, g.Name, g.Round)
		}
		gens = append(gens, g)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing manifest bytes", r.Remaining())
	}
	return gens, nil
}

// OpenLatestGood returns the newest generation that verifies cleanly,
// together with its raw file bytes (the full snap envelope, already
// checksum-verified — feed them straight to the restore path).
// Candidates are the union of the directory scan and the manifest,
// newest round first; corrupt or torn files are skipped. The error
// reports every rejected candidate when nothing survives.
func (m *Manager) OpenLatestGood() (Generation, []byte, error) {
	return m.OpenLatestGoodAtMost(int(^uint(0) >> 1))
}

// OpenLatestGoodAtMost is OpenLatestGood restricted to generations at
// or before round — the time-travel entry point: replay from the last
// retained generation preceding a failure.
func (m *Manager) OpenLatestGoodAtMost(round int) (Generation, []byte, error) {
	fs := m.opts.FS
	seen := map[string]int{}
	if names, err := fs.ReadDir(m.opts.Dir); err == nil {
		for _, name := range names {
			if r, ok := ParseGenRound(name); ok {
				seen[name] = r
			}
		}
	}
	for _, g := range m.gens {
		seen[g.Name] = g.Round
	}
	cands := make([]Generation, 0, len(seen))
	for name, r := range seen {
		if r <= round {
			cands = append(cands, Generation{Name: name, Round: r})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Round > cands[j].Round })

	var rejected []string
	for _, c := range cands {
		path := c.Path(m.opts.Dir)
		data, err := fs.ReadFile(path)
		if err != nil {
			rejected = append(rejected, fmt.Sprintf("%s: %v", c.Name, err))
			continue
		}
		if _, err := snap.Decode(m.opts.Kind, data); err != nil {
			rejected = append(rejected, fmt.Sprintf("%s: %v", c.Name, err))
			continue
		}
		// Decode has just hashed every byte but the checksum; FileSum
		// extends that over the last eight instead of hashing the file again.
		c.Size = int64(len(data))
		c.Sum = snap.FileSum(data)
		return c, data, nil
	}
	if len(rejected) == 0 {
		return Generation{}, nil, fmt.Errorf("ckpt: no generations at or before round %d in %s", round, m.opts.Dir)
	}
	return Generation{}, nil, fmt.Errorf("ckpt: no good generation in %s; rejected:\n  %s",
		m.opts.Dir, strings.Join(rejected, "\n  "))
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
