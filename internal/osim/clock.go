// Package osim implements a deterministic simulated operating system: a
// virtual filesystem, processes with fork/exec/open/read/write/close/connect
// syscalls, a shared logical clock, and a Tracer interception hook — the
// ptrace analog used by LDV's monitoring layer.
//
// The paper's prototype observes real processes through the Linux ptrace
// facility (via PTU). LDV itself consumes only the resulting stream of
// timestamped syscall events; this package produces an equivalent stream
// from simulated processes, which keeps experiments deterministic and
// self-contained. Applications are ordinary Go functions registered as
// executable binaries in the virtual filesystem.
package osim

import "sync"

// Clock is the logical timeline shared by the kernel and (when the DB
// server runs inside the simulation) the database engine, so that OS and DB
// provenance events are totally ordered against each other — the property
// the temporal dependency inference in the paper's §VI-C requires.
//
// Clock implements engine.Clock.
type Clock struct {
	mu sync.Mutex
	t  uint64
}

// NewClock returns a clock starting at 0; the first Tick returns 1.
func NewClock() *Clock { return &Clock{} }

// Tick advances the clock and returns the new time.
func (c *Clock) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t++
	return c.t
}

// Now returns the current time without advancing.
func (c *Clock) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// AdvanceTo moves the clock to at least t. Crash recovery uses it so ticks
// after a restart sort strictly after every timestamp the restored state
// carries.
func (c *Clock) AdvanceTo(t uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t < t {
		c.t = t
	}
}
