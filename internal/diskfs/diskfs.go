// Package diskfs adapts a real on-disk directory to the engine.FileSystem
// interface, letting the database engine persist its data directory to the
// host filesystem (used by the standalone ldvdb server).
package diskfs

import (
	"os"
	"path/filepath"
	"strings"
)

// FS roots all paths under Dir.
type FS struct {
	Dir string
}

// New returns a disk filesystem rooted at dir.
func New(dir string) *FS { return &FS{Dir: dir} }

// resolve maps a virtual absolute path into the root directory, preventing
// escapes via "..".
func (f *FS) resolve(p string) string {
	clean := filepath.Clean("/" + strings.TrimPrefix(p, "/"))
	return filepath.Join(f.Dir, filepath.FromSlash(clean))
}

// WriteFile implements engine.FileSystem. Per the interface's atomicity
// contract the replacement is crash-atomic: the data is written to a
// temporary file, synced, and renamed over the target, so a reader never
// observes a partial mix of old and new contents.
func (f *FS) WriteFile(path string, data []byte) error {
	full := f.resolve(path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(full), ".tmp-"+filepath.Base(full)+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), full); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// AppendFile implements engine.FileSystem: an fsynced append, the WAL's
// group-commit flush unit. A crash mid-call may leave a prefix of data at
// the tail — the torn-record case the WAL's checksums detect.
func (f *FS) AppendFile(path string, data []byte) error {
	full := f.resolve(path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	file, err := os.OpenFile(full, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Write(data); err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Remove implements engine.FileSystem.
func (f *FS) Remove(path string) error {
	return os.Remove(f.resolve(path))
}

// ReadFile implements engine.FileSystem.
func (f *FS) ReadFile(path string) ([]byte, error) {
	return os.ReadFile(f.resolve(path))
}

// ReadDir implements engine.FileSystem.
func (f *FS) ReadDir(path string) ([]string, error) {
	entries, err := os.ReadDir(f.resolve(path))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// MkdirAll implements engine.FileSystem.
func (f *FS) MkdirAll(path string) error {
	return os.MkdirAll(f.resolve(path), 0o755)
}

// Symlink satisfies the package-extraction surface.
func (f *FS) Symlink(target, linkPath string) error {
	full := f.resolve(linkPath)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	return os.Symlink(target, full)
}
