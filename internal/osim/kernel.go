package osim

import (
	"fmt"
	"net"
	"sync"
)

// EventKind classifies intercepted syscall events.
type EventKind int

// The syscall events a tracer can observe — the same set PTU derives from
// ptrace: process creation/exit, file opens/closes (with access mode), and
// connections to network services.
const (
	EvSpawn   EventKind = iota // child process created (fork+exec)
	EvExit                     // process exited
	EvOpen                     // file opened
	EvClose                    // file closed
	EvConnect                  // connected to a network address
)

func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvExit:
		return "exit"
	case EvOpen:
		return "open"
	case EvClose:
		return "close"
	case EvConnect:
		return "connect"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one intercepted syscall.
type Event struct {
	Kind  EventKind
	Time  uint64
	PID   int
	PPID  int    // parent pid, set on EvSpawn
	Path  string // file path (open/close), binary path (spawn), address (connect)
	Write bool   // open-for-write (open/close)
}

// Tracer receives intercepted syscall events — the ptrace attachment point.
// Callbacks run synchronously inside the syscall.
type Tracer interface {
	OnEvent(Event)
}

// Program is the body of a simulated executable. It runs with the identity
// of its Process and may only touch the world through the process's
// syscall-like methods (enforced by convention, as for real binaries).
type Program func(p *Process) error

// Kernel owns the simulated machine: filesystem, clock, process table,
// registered binaries, network services, and attached tracers.
type Kernel struct {
	fs    *FS
	clock *Clock

	mu        sync.Mutex
	nextPID   int
	programs  map[string]Program
	listeners map[string]chan net.Conn
	tracers   []Tracer
}

// NewKernel boots a simulated machine with an empty filesystem.
func NewKernel() *Kernel {
	return &Kernel{
		fs:        NewFS(),
		clock:     NewClock(),
		programs:  make(map[string]Program),
		listeners: make(map[string]chan net.Conn),
	}
}

// FS returns the machine's filesystem.
func (k *Kernel) FS() *FS { return k.fs }

// Clock returns the machine's logical clock.
func (k *Kernel) Clock() *Clock { return k.clock }

// Trace attaches a tracer; pass nil to do nothing. Detach removes it.
func (k *Kernel) Trace(t Tracer) {
	if t == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.tracers = append(k.tracers, t)
}

// Detach removes a previously attached tracer.
func (k *Kernel) Detach(t Tracer) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, x := range k.tracers {
		if x == t {
			k.tracers = append(k.tracers[:i], k.tracers[i+1:]...)
			return
		}
	}
}

func (k *Kernel) emit(ev Event) {
	k.mu.Lock()
	ts := append([]Tracer(nil), k.tracers...)
	k.mu.Unlock()
	for _, t := range ts {
		t.OnEvent(ev)
	}
}

// InstallBinary writes an executable file of the given size at path and
// registers prog as its behaviour. Library dependencies are separate files
// installed with InstallLibrary and named at spawn time.
func (k *Kernel) InstallBinary(path string, size int, prog Program) error {
	if err := k.fs.WriteFile(path, fakeELF(path, size)); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.programs[path] = prog
	return nil
}

// RegisterProgram associates a program body with a binary path without
// writing the file — used when the binary's bytes already exist (e.g. they
// were extracted from a package).
func (k *Kernel) RegisterProgram(path string, prog Program) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.programs[path] = prog
}

// InstallLibrary writes a shared-library file of the given size.
func (k *Kernel) InstallLibrary(path string, size int) error {
	return k.fs.WriteFile(path, fakeELF(path, size))
}

// fakeELF returns deterministic placeholder binary content of roughly the
// requested size so package-size accounting is meaningful. An image is a
// function of (name, size) alone and costs an LCG step per byte — tens of
// milliseconds for a server binary of megabytes — so each is generated once
// per process and then shared: callers must not write to it (FS.WriteFile
// stores a copy).
func fakeELF(name string, size int) []byte {
	size = max(size, 16)
	key := elfKey{name, size}
	if img, ok := elfImages.Load(key); ok {
		return img.([]byte)
	}
	img, _ := elfImages.LoadOrStore(key, genELF(name, size))
	return img.([]byte)
}

// elfKey names one fakeELF image.
type elfKey struct {
	name string
	size int
}

// elfImages caches fakeELF's images by elfKey.
var elfImages sync.Map

// genELF generates the image fakeELF caches.
func genELF(name string, size int) []byte {
	buf := make([]byte, size)
	copy(buf, "\x7fELF(sim)")
	seed := uint64(14695981039346656037)
	for _, c := range name {
		seed = (seed ^ uint64(c)) * 1099511628211
	}
	for i := 9; i < size; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		buf[i] = byte(seed >> 33)
	}
	return buf
}

// Start creates and starts the init-like root process for a program that is
// not itself a registered binary (e.g. a test harness driving the machine).
// The returned process has no parent.
func (k *Kernel) Start(name string) *Process {
	k.mu.Lock()
	k.nextPID++
	pid := k.nextPID
	k.mu.Unlock()
	return &Process{kernel: k, PID: pid, Name: name, open: map[*File]bool{}}
}

// Listen registers a network service at addr and returns its listener.
// Connections made with Process.Connect are delivered to Accept.
func (k *Kernel) Listen(addr string) (*Listener, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, busy := k.listeners[addr]; busy {
		return nil, fmt.Errorf("listen %s: address in use", addr)
	}
	ch := make(chan net.Conn, 16)
	k.listeners[addr] = ch
	return &Listener{kernel: k, addr: addr, ch: ch}, nil
}

// Listener accepts simulated connections for one address.
type Listener struct {
	kernel *Kernel
	addr   string
	ch     chan net.Conn
	once   sync.Once
}

// Accept blocks until a client connects or the listener is closed.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.ch
	if !ok {
		return nil, fmt.Errorf("accept %s: listener closed", l.addr)
	}
	return c, nil
}

// Close unregisters the service and unblocks Accept.
func (l *Listener) Close() error {
	l.once.Do(func() {
		l.kernel.mu.Lock()
		delete(l.kernel.listeners, l.addr)
		l.kernel.mu.Unlock()
		close(l.ch)
	})
	return nil
}

// Addr returns the listen address.
func (l *Listener) Addr() string { return l.addr }
