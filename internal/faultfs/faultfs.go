// Package faultfs wraps a filesystem with crash-point injection for
// durability testing: the wrapper counts mutating operations and, at a
// configured point, "crashes" — the crashing operation takes partial or no
// effect and every operation after it fails, exactly as if the process had
// died mid-write. The crash-matrix test in internal/engine drives one
// database run per crash point and asserts that recovery from the
// underlying (surviving) filesystem restores precisely the acknowledged
// commits.
//
// Injection follows the engine.FileSystem atomicity contract: WriteFile at
// the crash point applies nothing (readers keep the old contents, like an
// unrenamed temp file), while AppendFile applies a prefix of its bytes —
// the torn tail a real append can leave, which the WAL's record checksums
// must detect.
//
// The package declares its own filesystem interface, structurally
// engine.FileSystem, so it imports nothing from the engine and the engine's
// tests can import it freely.
package faultfs

import (
	"errors"
	"fmt"
	"sync"
)

// Inner is the filesystem surface the wrapper forwards to: structurally
// engine.FileSystem (satisfied by osim.FS and diskfs.FS).
type Inner interface {
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]string, error)
	MkdirAll(path string) error
	AppendFile(path string, data []byte) error
	Remove(path string) error
}

// ErrCrashed is the error every operation returns once the crash point has
// been reached.
var ErrCrashed = errors.New("faultfs: simulated crash")

// FS counts mutating operations (WriteFile, AppendFile, MkdirAll, Remove)
// and crashes on the CrashAt-th one. Safe for concurrent use.
type FS struct {
	inner Inner

	mu      sync.Mutex
	ops     int
	crashAt int     // 1-based op index to crash on; 0 = never
	frac    float64 // fraction of bytes a crashing AppendFile still lands
	crashed bool
}

// New wraps inner to crash on the crashAt-th mutating operation (0 = run to
// completion). frac in [0,1] is the fraction of the payload a crashing
// append still writes — 0 models a crash before the write reached the
// medium, 1 a crash after the bytes landed but before the caller learned.
func New(inner Inner, crashAt int, frac float64) *FS {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return &FS{inner: inner, crashAt: crashAt, frac: frac}
}

// Ops returns the number of mutating operations observed so far; a dry run
// with crashAt 0 sizes the crash matrix.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step accounts one mutating operation. It returns crashing=true for
// exactly the operation at the crash point (which may take partial effect)
// and err=ErrCrashed for every operation after it.
func (f *FS) step() (crashing bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.ops++
	if f.crashAt != 0 && f.ops == f.crashAt {
		f.crashed = true
		return true, nil
	}
	return false, nil
}

// WriteFile forwards the write, or — at the crash point — drops it whole
// (WriteFile is atomic under the engine's filesystem contract).
func (f *FS) WriteFile(path string, data []byte) error {
	crashing, err := f.step()
	if err != nil {
		return err
	}
	if crashing {
		return fmt.Errorf("write %s: %w", path, ErrCrashed)
	}
	return f.inner.WriteFile(path, data)
}

// AppendFile forwards the append, or — at the crash point — lands only the
// configured prefix of the payload before failing: the torn tail.
func (f *FS) AppendFile(path string, data []byte) error {
	crashing, err := f.step()
	if err != nil {
		return err
	}
	if crashing {
		if n := int(f.frac * float64(len(data))); n > 0 {
			if werr := f.inner.AppendFile(path, data[:n]); werr != nil {
				return werr
			}
		}
		return fmt.Errorf("append %s: %w", path, ErrCrashed)
	}
	return f.inner.AppendFile(path, data)
}

// MkdirAll forwards the mkdir; at the crash point it takes no effect.
func (f *FS) MkdirAll(path string) error {
	crashing, err := f.step()
	if err != nil {
		return err
	}
	if crashing {
		return fmt.Errorf("mkdir %s: %w", path, ErrCrashed)
	}
	return f.inner.MkdirAll(path)
}

// Remove forwards the delete; at the crash point it takes no effect.
func (f *FS) Remove(path string) error {
	crashing, err := f.step()
	if err != nil {
		return err
	}
	if crashing {
		return fmt.Errorf("remove %s: %w", path, ErrCrashed)
	}
	return f.inner.Remove(path)
}

// ReadFile reads through until the crash, after which the machine is gone.
func (f *FS) ReadFile(path string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.ReadFile(path)
}

// ReadDir reads through until the crash.
func (f *FS) ReadDir(path string) ([]string, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(path)
}
