package osim

import (
	"fmt"
	"net"
	"sync"
)

// Process is one simulated process. Its methods are the syscall surface;
// every call advances the logical clock and is reported to attached tracers,
// exactly the view a ptrace-based monitor gets of a real process.
type Process struct {
	kernel *Kernel
	PID    int
	PPID   int
	Name   string // path of the executed binary

	mu   sync.Mutex
	open map[*File]bool
	dead bool
}

// Kernel returns the machine this process runs on.
func (p *Process) Kernel() *Kernel { return p.kernel }

// File is an open file description.
type File struct {
	proc   *Process
	path   string
	write  bool
	append bool
	offset int
	closed bool
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Open opens a file for reading. The open and eventual close are traced as
// an interaction interval between this process and the file.
func (p *Process) Open(path string) (*File, error) { return p.open3(path, false, false) }

// Create opens a file for writing, truncating any existing content.
func (p *Process) Create(path string) (*File, error) { return p.open3(path, true, false) }

// OpenAppend opens a file for appending.
func (p *Process) OpenAppend(path string) (*File, error) { return p.open3(path, true, true) }

func (p *Process) open3(path string, write, appendMode bool) (*File, error) {
	if err := p.checkAlive(); err != nil {
		return nil, err
	}
	fs := p.kernel.fs
	if !write {
		if !fs.Exists(path) {
			return nil, fmt.Errorf("open %s: no such file", path)
		}
	} else if !appendMode {
		if err := fs.WriteFile(path, nil); err != nil {
			return nil, err
		}
	} else if !fs.Exists(path) {
		if err := fs.WriteFile(path, nil); err != nil {
			return nil, err
		}
	}
	f := &File{proc: p, path: path, write: write, append: appendMode}
	p.mu.Lock()
	p.open[f] = true
	p.mu.Unlock()
	p.kernel.emit(Event{Kind: EvOpen, Time: p.kernel.clock.Tick(), PID: p.PID, Path: path, Write: write})
	return f, nil
}

// Read reads up to len(buf) bytes from the file's current offset.
func (f *File) Read(buf []byte) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("read %s: file closed", f.path)
	}
	data, err := f.proc.kernel.fs.ReadFile(f.path)
	if err != nil {
		return 0, err
	}
	if f.offset >= len(data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(buf, data[f.offset:])
	f.offset += n
	return n, nil
}

// ReadAll returns the file's entire remaining contents.
func (f *File) ReadAll() ([]byte, error) {
	if f.closed {
		return nil, fmt.Errorf("read %s: file closed", f.path)
	}
	data, err := f.proc.kernel.fs.ReadFile(f.path)
	if err != nil {
		return nil, err
	}
	out := data[min(f.offset, len(data)):]
	f.offset = len(data)
	return out, nil
}

// Write appends bytes to the file (all simulated writes are sequential).
func (f *File) Write(buf []byte) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("write %s: file closed", f.path)
	}
	if !f.write {
		return 0, fmt.Errorf("write %s: file not open for writing", f.path)
	}
	if err := f.proc.kernel.fs.AppendFile(f.path, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// Close closes the file, emitting the close event that ends the
// process-file interaction interval.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	p := f.proc
	p.mu.Lock()
	delete(p.open, f)
	p.mu.Unlock()
	p.kernel.emit(Event{Kind: EvClose, Time: p.kernel.clock.Tick(), PID: p.PID, Path: f.path, Write: f.write})
	return nil
}

// ReadFile is the open/read/close convenience used by most programs.
func (p *Process) ReadFile(path string) ([]byte, error) {
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.ReadAll()
}

// WriteFile is the create/write/close convenience.
func (p *Process) WriteFile(path string, data []byte) error { return writeVia(p.Create, path, data) }

// AppendFile is the open-for-append/write/close convenience.
func (p *Process) AppendFile(path string, data []byte) error {
	return writeVia(p.OpenAppend, path, data)
}

// writeVia opens path with open, writes data and closes it.
func writeVia(open func(string) (*File, error), path string, data []byte) error {
	f, err := open(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Spawn forks and execs a registered binary as a child process, running it
// to completion before returning (the sequential-composition pattern of the
// paper's example applications). The exec opens the binary and any library
// files it links against, so file-granularity packagers capture them.
func (p *Process) Spawn(binary string, libs ...string) error {
	child, prog, err := p.spawnCommon(binary, libs)
	if err != nil {
		return err
	}
	return child.run(prog)
}

// SpawnAsync starts a child process concurrently (used for server
// processes) and returns a handle to wait for it.
func (p *Process) SpawnAsync(binary string, libs ...string) (*ProcHandle, error) {
	child, prog, err := p.spawnCommon(binary, libs)
	if err != nil {
		return nil, err
	}
	h := &ProcHandle{Proc: child, done: make(chan struct{})}
	go func() {
		h.err = child.run(prog)
		close(h.done)
	}()
	return h, nil
}

func (p *Process) spawnCommon(binary string, libs []string) (*Process, Program, error) {
	if err := p.checkAlive(); err != nil {
		return nil, nil, err
	}
	k := p.kernel
	k.mu.Lock()
	prog, ok := k.programs[binary]
	if ok {
		k.nextPID++
	}
	pid := k.nextPID
	k.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("exec %s: no such binary", binary)
	}
	child := &Process{kernel: k, PID: pid, PPID: p.PID, Name: binary, open: map[*File]bool{}}
	k.emit(Event{Kind: EvSpawn, Time: k.clock.Tick(), PID: child.PID, PPID: p.PID, Path: binary})
	// The loader reads the binary and its libraries.
	for _, dep := range append([]string{binary}, libs...) {
		f, err := child.Open(dep)
		if err != nil {
			return nil, nil, fmt.Errorf("exec %s: %w", binary, err)
		}
		f.Close()
	}
	return child, prog, nil
}

func (p *Process) run(prog Program) error {
	err := prog(p)
	p.exit()
	return err
}

func (p *Process) exit() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	stillOpen := make([]*File, 0, len(p.open))
	for f := range p.open {
		stillOpen = append(stillOpen, f)
	}
	p.mu.Unlock()
	for _, f := range stillOpen {
		f.Close()
	}
	p.kernel.emit(Event{Kind: EvExit, Time: p.kernel.clock.Tick(), PID: p.PID})
}

// Exit terminates the process explicitly (normally run/Spawn does this).
func (p *Process) Exit() { p.exit() }

func (p *Process) checkAlive() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("process %d has exited", p.PID)
	}
	return nil
}

// ProcHandle tracks an asynchronously spawned process.
type ProcHandle struct {
	Proc *Process
	done chan struct{}
	err  error
}

// Wait blocks until the process exits and returns its error.
func (h *ProcHandle) Wait() error {
	<-h.done
	return h.err
}

// Connect opens a simulated network connection to a registered service.
// The tracer observes the connect; payload bytes are not traced (DB
// interactions are audited inside the client library, as in the paper).
func (p *Process) Connect(addr string) (net.Conn, error) {
	if err := p.checkAlive(); err != nil {
		return nil, err
	}
	k := p.kernel
	k.mu.Lock()
	ch, ok := k.listeners[addr]
	k.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("connect %s: connection refused", addr)
	}
	client, server := net.Pipe()
	ch <- server
	k.emit(Event{Kind: EvConnect, Time: k.clock.Tick(), PID: p.PID, Path: addr})
	return client, nil
}
