// Package pack implements the LDV package container: a virtual file tree
// with symlink support, deterministic single-file serialization (a minimal
// tar-like format), size accounting, and extraction into any filesystem
// implementing the engine.FileSystem surface. LDV, PTU, and VMI packages are
// all Archives with different contents.
package pack

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"

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
// exactly once.
func (a *Archive) Marshal() []byte {
	paths := a.Paths()
	size := len(archiveMagic) + uvarintLen(uint64(len(paths)))
	for _, p := range paths {
		size += uvarintLen(uint64(len(p))) + len(p) + 1
		if e := a.files[p]; e.Symlink != "" {
			size += uvarintLen(uint64(len(e.Symlink))) + len(e.Symlink)
		} else {
			size += uvarintLen(uint64(len(e.Data))) + len(e.Data)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, archiveMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(paths)))
	for _, p := range paths {
		e := a.files[p]
		buf = appendString(buf, p)
		if e.Symlink != "" {
			buf = append(buf, 1)
			buf = appendString(buf, e.Symlink)
		} else {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(len(e.Data)))
			buf = append(buf, e.Data...)
		}
	}
	mBytesMarshaled.Add(int64(len(buf)))
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Unmarshal parses an archive produced by Marshal. The members alias data
// instead of copying it: the caller must not modify data afterwards.
// (ExtractTo hands each member to FileSystem.WriteFile, which keeps its own
// copy.)
func Unmarshal(data []byte) (*Archive, error) {
	if len(data) < len(archiveMagic) || string(data[:len(archiveMagic)]) != archiveMagic {
		return nil, fmt.Errorf("package: bad magic")
	}
	b := data[len(archiveMagic):]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("package: bad member count")
	}
	b = b[n:]
	a := New()
	for i := uint64(0); i < count; i++ {
		var p string
		var err error
		p, b, err = readString(b)
		if err != nil {
			return nil, fmt.Errorf("package member %d: %w", i, err)
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("package member %d: truncated", i)
		}
		isLink := b[0] == 1
		b = b[1:]
		if isLink {
			var target string
			target, b, err = readString(b)
			if err != nil {
				return nil, fmt.Errorf("package member %d: %w", i, err)
			}
			a.AddSymlink(p, target)
			continue
		}
		size, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < size {
			return nil, fmt.Errorf("package member %d: bad size", i)
		}
		end := n + int(size)
		a.Add(p, b[n:end:end])
		b = b[end:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("package: %d trailing bytes", len(b))
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

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", nil, fmt.Errorf("bad string")
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}
