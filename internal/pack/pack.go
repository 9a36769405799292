// Package pack implements the LDV package container: a virtual file tree
// with symlink support, deterministic single-file serialization (a minimal
// tar-like format), size accounting, and extraction into any filesystem
// implementing the engine.FileSystem surface. LDV, PTU, and VMI packages are
// all Archives with different contents.
package pack

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"

	"ldv/internal/bin"
	"ldv/internal/obs"
)

// Packaging accounting: member adds, serialized archive bytes, and
// extraction volume — the inputs to the paper's package-size figures.
var (
	mFilesAdded     = obs.NewCounter("pack.files_added", "Members added to package archives")
	mBytesAdded     = obs.NewCounter("pack.bytes_added", "Bytes of member content added to package archives")
	mBytesMarshaled = obs.NewCounter("pack.bytes_marshaled", "Bytes of serialized package archives")
	mFilesExtracted = obs.NewCounter("pack.files_extracted", "Members extracted from package archives")
	mBytesExtracted = obs.NewCounter("pack.bytes_extracted", "Bytes extracted from package archives")
)

// Archive is a self-contained package: a mapping from slash paths to file
// contents or symlink targets. The zero value is not usable; call New.
type Archive struct {
	files map[string]*Entry
}

// Entry is one archive member.
type Entry struct {
	Data    []byte
	Symlink string // non-empty for symlinks; Data is then ignored
}

// New returns an empty archive.
func New() *Archive { return &Archive{files: map[string]*Entry{}} }

func normalize(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return p
}

// Add stores a regular file, replacing any existing entry. The archive
// takes ownership of data without copying it: the caller must not modify it
// afterwards.
func (a *Archive) Add(path string, data []byte) {
	a.files[normalize(path)] = &Entry{Data: data}
	mFilesAdded.Inc()
	mBytesAdded.Add(int64(len(data)))
}

// AddSymlink stores a symbolic link.
func (a *Archive) AddSymlink(path, target string) {
	a.files[normalize(path)] = &Entry{Symlink: target}
}

// Has reports whether the archive contains path.
func (a *Archive) Has(path string) bool {
	_, ok := a.files[normalize(path)]
	return ok
}

// Read returns the contents of a regular file member.
func (a *Archive) Read(path string) ([]byte, error) {
	e, ok := a.files[normalize(path)]
	if !ok {
		return nil, fmt.Errorf("package: no member %q", path)
	}
	if e.Symlink != "" {
		return nil, fmt.Errorf("package: member %q is a symlink to %q", path, e.Symlink)
	}
	return e.Data, nil
}

// Entry returns the raw entry for path, or nil.
func (a *Archive) Entry(path string) *Entry { return a.files[normalize(path)] }

// Paths lists all member paths sorted.
func (a *Archive) Paths() []string {
	out := make([]string, 0, len(a.files))
	for p := range a.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PathsUnder lists member paths with the given prefix directory.
func (a *Archive) PathsUnder(dir string) []string {
	dir = strings.TrimSuffix(normalize(dir), "/")
	var out []string
	for p := range a.files {
		if strings.HasPrefix(p, dir+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of members.
func (a *Archive) Len() int { return len(a.files) }

// TotalSize sums all regular-file payload sizes — the package size measure
// used in the paper's Figure 9.
func (a *Archive) TotalSize() int64 {
	var total int64
	for _, e := range a.files {
		if e.Symlink == "" {
			total += int64(len(e.Data))
		}
	}
	return total
}

// SizeUnder sums payload sizes below a directory prefix.
func (a *Archive) SizeUnder(dir string) int64 {
	dir = strings.TrimSuffix(normalize(dir), "/")
	var total int64
	for p, e := range a.files {
		if e.Symlink == "" && strings.HasPrefix(p, dir+"/") {
			total += int64(len(e.Data))
		}
	}
	return total
}

const archiveMagic = "LDVPKG1\n"

// Marshal serializes the archive deterministically, into a buffer sized
// exactly once: the magic, the member count, then per member in path order
// its path, a type byte and either the file's bytes (0) or the symlink's
// target (1), all length-prefixed.
func (a *Archive) Marshal() []byte {
	paths := a.Paths()
	buf := bin.Encode(0, func(w *bin.Writer) {
		w.Fixed([]byte(archiveMagic))
		w.Uvarint(uint64(len(paths)))
		for _, p := range paths {
			w.Str(p)
			if e := a.files[p]; e.Symlink != "" {
				w.Byte(1)
				w.Str(e.Symlink)
			} else {
				w.Byte(0)
				w.Raw(e.Data)
			}
		}
	})
	mBytesMarshaled.Add(int64(len(buf)))
	return buf
}

// Unmarshal parses an archive produced by Marshal — and only that: members
// must come in strictly ascending path order, paths must be absolute and
// symlink targets non-empty, so an accepted input marshals back to itself.
// The members alias data instead of copying it: the caller must not modify
// data afterwards. (ExtractTo hands each member to FileSystem.WriteFile,
// which keeps its own copy.)
func Unmarshal(data []byte) (*Archive, error) {
	if !bytes.HasPrefix(data, []byte(archiveMagic)) {
		return nil, fmt.Errorf("package: bad magic")
	}
	r := bin.NewReader(data[len(archiveMagic):])
	a := New()
	prev := ""
	for n := r.Count("member", 3); n > 0 && r.Err() == nil; n-- {
		p := r.Str()
		switch kind := r.Byte(); {
		case !strings.HasPrefix(p, "/") || p <= prev:
			r.Failf("member %q: not an absolute path after %q", p, prev)
		case kind == 0:
			a.Add(p, r.Raw())
		case kind == 1:
			if target := r.Str(); target != "" {
				a.AddSymlink(p, target)
			} else {
				r.Failf("member %q: empty symlink target", p)
			}
		default:
			r.Failf("member %q: unknown type %d", p, kind)
		}
		prev = p
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("package: %w", err)
	}
	return a, nil
}

// FileSystem is the extraction target surface (a subset of
// engine.FileSystem plus symlinks, satisfied by osim.FS).
type FileSystem interface {
	WriteFile(path string, data []byte) error
	MkdirAll(path string) error
	Symlink(target, linkPath string) error
}

// ExtractTo materializes every member under root in fs, re-creating the
// chroot-like directory layout of §VII-D.
func (a *Archive) ExtractTo(fs FileSystem, root string) error {
	root = strings.TrimSuffix(normalize(root), "/")
	for _, p := range a.Paths() {
		e := a.files[p]
		dst := root + p
		if e.Symlink != "" {
			target := e.Symlink
			if strings.HasPrefix(target, "/") {
				target = root + target
			}
			if err := fs.Symlink(target, dst); err != nil {
				return fmt.Errorf("extract %s: %w", p, err)
			}
			continue
		}
		if err := fs.WriteFile(dst, e.Data); err != nil {
			return fmt.Errorf("extract %s: %w", p, err)
		}
		mFilesExtracted.Inc()
		mBytesExtracted.Add(int64(len(e.Data)))
	}
	return nil
}

// Save writes the serialized archive to the real filesystem.
func (a *Archive) Save(osPath string) error {
	return os.WriteFile(osPath, a.Marshal(), 0o644)
}

// Load reads a serialized archive from the real filesystem.
func Load(osPath string) (*Archive, error) {
	data, err := os.ReadFile(osPath)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
