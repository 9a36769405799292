package osim

import "fmt"

// ProcFS adapts a Process to the engine.FileSystem interface so that a
// program (notably the DB server persisting its data directory) performs
// its file I/O through traced syscalls. A ptrace-style monitor therefore
// observes the server's data files exactly as PTU would on a real system —
// which is how whole-DB packagers come to include them.
type ProcFS struct {
	p *Process
}

// NewProcFS returns a filesystem view bound to p.
func NewProcFS(p *Process) *ProcFS { return &ProcFS{p: p} }

// WriteFile creates or replaces a file via traced open/write/close.
func (f *ProcFS) WriteFile(path string, data []byte) error { return f.p.WriteFile(path, data) }

// AppendFile appends to a file, creating it if absent, via traced
// open/write/close: a monitor sees it as a write, like WriteFile.
func (f *ProcFS) AppendFile(path string, data []byte) error { return f.p.AppendFile(path, data) }

// ReadFile reads a whole file via traced open/read/close.
func (f *ProcFS) ReadFile(path string) ([]byte, error) { return f.p.ReadFile(path) }

// ReadDir lists a directory (metadata access; not traced, like getdents
// under PTU's file-level monitoring).
func (f *ProcFS) ReadDir(path string) ([]string, error) {
	return f.p.kernel.fs.ReadDir(path)
}

// MkdirAll creates directories (not traced; PTU tracks files).
func (f *ProcFS) MkdirAll(path string) error { return f.p.kernel.fs.MkdirAll(path) }

// Remove deletes a file (not traced, like ReadDir and MkdirAll: unlink opens
// nothing, so a file-level monitor records no interaction).
func (f *ProcFS) Remove(path string) error { return f.p.kernel.fs.Remove(path) }

// Symlink creates a symbolic link.
func (f *ProcFS) Symlink(target, linkPath string) error {
	return f.p.kernel.fs.Symlink(target, linkPath)
}

// String identifies the view for diagnostics.
func (f *ProcFS) String() string { return fmt.Sprintf("procfs(pid=%d)", f.p.PID) }
