package ldv

import (
	"fmt"
	"sync"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/server"
)

// Default filesystem layout of a simulated machine. Sizes approximate a
// real PostgreSQL installation so package-size comparisons are meaningful.
const (
	DefaultAddr     = "ldvdb:5432"
	DefaultDataDir  = "/var/lib/ldvdb/data"
	DefaultDatabase = "main"

	ServerBinaryPath = "/usr/local/ldvdb/bin/ldvdb"
	serverBinarySize = 8 << 20 // 8 MiB server executable

	LibCPath      = "/lib/libc.so.6"
	libCSize      = 2 << 20
	LibClientPath = "/usr/lib/libldvpq.so" // the instrumented client library
	libClientSize = 320 << 10
	LibSSLPath    = "/usr/lib/libssl.so"
	libSSLSize    = 640 << 10
)

// ServerLibs lists the shared libraries the server binary links against.
func ServerLibs() []string { return []string{LibCPath, LibSSLPath} }

// ClientLibs lists the libraries a DB application links against.
func ClientLibs() []string { return []string{LibCPath, LibClientPath} }

// App describes one application binary: where it is installed, what it
// links against, its on-disk size, and its behaviour.
type App struct {
	Binary string
	Libs   []string
	Size   int
	Prog   osim.Program
}

// Machine bundles a simulated kernel with an installed LDV database server
// whose data directory lives in the simulated filesystem.
type Machine struct {
	Kernel   *osim.Kernel
	DB       *engine.DB
	Server   *server.Server
	Addr     string
	DataDir  string
	Database string

	mu        sync.Mutex
	listener  *osim.Listener
	handle    *osim.ProcHandle
	serverPID int
	ready     chan error
}

// NewMachine boots a machine with standard libraries, a server binary, and
// an empty database sharing the kernel's logical clock.
func NewMachine() (*Machine, error) {
	k := osim.NewKernel()
	m := &Machine{
		Kernel:   k,
		Addr:     DefaultAddr,
		DataDir:  DefaultDataDir,
		Database: DefaultDatabase,
	}
	m.DB = engine.NewDB(k.Clock())
	m.Server = server.New(m.DB, nil)
	if err := k.InstallLibrary(LibCPath, libCSize); err != nil {
		return nil, err
	}
	if err := k.InstallLibrary(LibClientPath, libClientSize); err != nil {
		return nil, err
	}
	if err := k.InstallLibrary(LibSSLPath, libSSLSize); err != nil {
		return nil, err
	}
	if err := k.InstallBinary(ServerBinaryPath, serverBinarySize, m.serverProgram); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMachineForReplay boots a machine around an existing kernel (whose
// filesystem was populated by package extraction) and the database its
// server serves, which the server's start loads from dataDir. Only the server
// *program* is registered — the binary file must already exist in the
// filesystem (it came from the package).
func NewMachineForReplay(k *osim.Kernel, db *engine.DB, addr, dataDir, database string) *Machine {
	m := &Machine{
		Kernel:   k,
		DB:       db,
		Addr:     addr,
		DataDir:  dataDir,
		Database: database,
	}
	m.Server = server.New(db, nil)
	k.RegisterProgram(ServerBinaryPath, m.serverProgram)
	return m
}

// InstallApps writes application binaries into the filesystem and registers
// their programs.
func (m *Machine) InstallApps(apps []App) error {
	for _, app := range apps {
		size := app.Size
		if size == 0 {
			size = 64 << 10
		}
		if err := m.Kernel.InstallBinary(app.Binary, size, app.Prog); err != nil {
			return fmt.Errorf("install %s: %w", app.Binary, err)
		}
	}
	return nil
}

// RegisterApps registers program bodies without writing binary files (the
// replay path: binaries come from the package).
func (m *Machine) RegisterApps(apps []App) {
	for _, app := range apps {
		m.Kernel.RegisterProgram(app.Binary, app.Prog)
	}
}

// serverProgram is the DB server process body: load the data directory
// through traced file I/O, serve connections until the listener closes,
// then checkpoint the data directory back through traced file I/O. The
// traced I/O is what lets file-granularity packagers (PTU) capture the
// data files (§IX-A's start-server/stop-server protocol).
func (m *Machine) serverProgram(sp *osim.Process) error {
	pfs := osim.NewProcFS(sp)
	m.Server.SetFS(pfs)
	if m.Kernel.FS().Exists(m.DataDir) {
		if err := m.DB.LoadDir(pfs, m.DataDir); err != nil {
			m.signalReady(err)
			return fmt.Errorf("server: load data dir: %w", err)
		}
	}
	l, err := m.Kernel.Listen(m.Addr)
	if err != nil {
		m.signalReady(err)
		return fmt.Errorf("server: %w", err)
	}
	m.mu.Lock()
	m.listener = l
	m.serverPID = sp.PID
	m.mu.Unlock()
	m.signalReady(nil)
	_ = m.Server.Serve(l) // returns when the listener is closed
	if err := m.DB.Checkpoint(pfs, m.DataDir); err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	return nil
}

func (m *Machine) signalReady(err error) {
	m.mu.Lock()
	ch := m.ready
	m.ready = nil
	m.mu.Unlock()
	if ch != nil {
		ch <- err
	}
}

// PersistData checkpoints the database into the machine's data directory
// directly (untraced), modelling a database that was installed on disk
// before any monitored run begins — the state §IX-A's experiments start
// from. Without this, the first server start finds no data files and
// file-granularity packagers have nothing to capture.
func (m *Machine) PersistData() error {
	return m.DB.Checkpoint(m.Kernel.FS(), m.DataDir)
}

// StartServer spawns the DB server as a child of parent and waits until it
// accepts connections.
func (m *Machine) StartServer(parent *osim.Process) error {
	m.mu.Lock()
	if m.handle != nil {
		m.mu.Unlock()
		return fmt.Errorf("server already running")
	}
	ready := make(chan error, 1)
	m.ready = ready
	m.mu.Unlock()

	h, err := parent.SpawnAsync(ServerBinaryPath, ServerLibs()...)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.handle = h
	m.mu.Unlock()
	if err := <-ready; err != nil {
		h.Wait()
		m.mu.Lock()
		m.handle = nil
		m.mu.Unlock()
		return err
	}
	return nil
}

// StopServer closes the listener and waits for the server process to
// checkpoint its data directory and exit.
func (m *Machine) StopServer() error {
	m.mu.Lock()
	l, h := m.listener, m.handle
	m.listener, m.handle = nil, nil
	m.mu.Unlock()
	if l == nil || h == nil {
		return fmt.Errorf("server not running")
	}
	l.Close()
	return h.Wait()
}

// ServerPID returns the server process's pid (0 before the first start).
func (m *Machine) ServerPID() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serverPID
}
