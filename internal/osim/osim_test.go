package osim

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockMonotonic(t *testing.T) {
	c := NewClock()
	prev := c.Now()
	for i := 0; i < 100; i++ {
		n := c.Tick()
		if n <= prev {
			t.Fatalf("tick %d not monotonic", n)
		}
		prev = n
	}
}

func TestFSWriteReadRoundTrip(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/a/b/c.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c.txt")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// Parents were auto-created as directories.
	info, err := fs.Stat("/a/b")
	if err != nil || !info.Dir {
		t.Fatalf("stat /a/b: %+v, %v", info, err)
	}
}

func TestFSErrors(t *testing.T) {
	fs := NewFS()
	if _, err := fs.ReadFile("/missing"); err == nil {
		t.Error("reading missing file must fail")
	}
	fs.MkdirAll("/dir")
	if _, err := fs.ReadFile("/dir"); err == nil {
		t.Error("reading a directory must fail")
	}
	if err := fs.WriteFile("/dir", []byte("x")); err == nil {
		t.Error("writing over a directory must fail")
	}
	fs.WriteFile("/f", []byte("x"))
	if err := fs.MkdirAll("/f"); err == nil {
		t.Error("mkdir over a file must fail")
	}
	if _, err := fs.ReadDir("/missing"); err == nil {
		t.Error("readdir of missing dir must fail")
	}
	if _, err := fs.ReadDir("/f"); err == nil {
		t.Error("readdir of a file must fail")
	}
	if err := fs.Remove("/missing"); err == nil {
		t.Error("removing missing file must fail")
	}
}

func TestFSSymlink(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/real/file.txt", []byte("data"))
	if err := fs.Symlink("/real/file.txt", "/link"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/link")
	if err != nil || string(data) != "data" {
		t.Fatalf("via symlink: %q, %v", data, err)
	}
	// Relative symlink.
	if err := fs.Symlink("file.txt", "/real/rel"); err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.ReadFile("/real/rel"); string(data) != "data" {
		t.Error("relative symlink failed")
	}
	// Cycle detection.
	fs.Symlink("/c2", "/c1")
	fs.Symlink("/c1", "/c2")
	if _, err := fs.ReadFile("/c1"); err == nil {
		t.Error("symlink cycle must fail")
	}
	// Duplicate symlink.
	if err := fs.Symlink("/x", "/link"); err == nil {
		t.Error("symlink over existing path must fail")
	}
}

func TestFSReadDirAndWalk(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/data/a.tbl", []byte("aaa"))
	fs.WriteFile("/data/b.tbl", []byte("bb"))
	fs.WriteFile("/data/sub/c.tbl", []byte("c"))
	names, err := fs.ReadDir("/data")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "a.tbl,b.tbl,sub" {
		t.Fatalf("readdir = %v", names)
	}
	var visited []string
	fs.Walk("/data", func(in FileInfo) error {
		visited = append(visited, in.Path)
		return nil
	})
	if len(visited) != 4 { // /data, a, b, sub + c? sub and c = 5? count: /data,/data/a.tbl,/data/b.tbl,/data/sub,/data/sub/c.tbl = 5
		if len(visited) != 5 {
			t.Fatalf("walk visited %v", visited)
		}
	}
	if got := fs.TotalSize("/data"); got != 6 {
		t.Fatalf("total size = %d", got)
	}
}

func TestFSRemove(t *testing.T) {
	fs := NewFS()
	fs.WriteFile("/d/f", []byte("x"))
	if err := fs.Remove("/d"); err == nil {
		t.Error("removing non-empty dir must fail")
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
}

// recorder collects events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) OnEvent(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) kinds() []EventKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EventKind, len(r.events))
	for i, e := range r.events {
		out[i] = e.Kind
	}
	return out
}

func TestProcessFileSyscallsTraced(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	k.FS().WriteFile("/in.txt", []byte("input"))

	root := k.Start("harness")
	f, err := root.Open("/in.txt")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := f.ReadAll()
	f.Close()
	if string(data) != "input" {
		t.Fatalf("read = %q", data)
	}
	if err := root.WriteFile("/out.txt", []byte("output")); err != nil {
		t.Fatal(err)
	}
	kinds := rec.kinds()
	want := []EventKind{EvOpen, EvClose, EvOpen, EvClose}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Times must be strictly increasing.
	for i := 1; i < len(rec.events); i++ {
		if rec.events[i].Time <= rec.events[i-1].Time {
			t.Fatal("event times not increasing")
		}
	}
	// The write open must be flagged.
	if rec.events[2].Write != true || rec.events[0].Write != false {
		t.Error("write flags wrong")
	}
}

func TestSpawnRunsProgramAndTracesBinary(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	k.InstallLibrary("/lib/libc.so", 1000)
	ran := false
	k.InstallBinary("/bin/app", 5000, func(p *Process) error {
		ran = true
		return p.WriteFile("/tmp/out", []byte("done"))
	})
	root := k.Start("harness")
	if err := root.Spawn("/bin/app", "/lib/libc.so"); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("program did not run")
	}
	// Event stream must include: spawn, open+close of binary and lib, the
	// program's own open/close, and exit.
	var sawSpawn, sawBinOpen, sawLibOpen, sawExit bool
	for _, e := range rec.events {
		switch {
		case e.Kind == EvSpawn && e.Path == "/bin/app":
			sawSpawn = true
		case e.Kind == EvOpen && e.Path == "/bin/app":
			sawBinOpen = true
		case e.Kind == EvOpen && e.Path == "/lib/libc.so":
			sawLibOpen = true
		case e.Kind == EvExit:
			sawExit = true
		}
	}
	if !sawSpawn || !sawBinOpen || !sawLibOpen || !sawExit {
		t.Fatalf("missing events: spawn=%v bin=%v lib=%v exit=%v", sawSpawn, sawBinOpen, sawLibOpen, sawExit)
	}
}

func TestSpawnMissingBinary(t *testing.T) {
	k := NewKernel()
	root := k.Start("h")
	if err := root.Spawn("/bin/missing"); err == nil {
		t.Fatal("spawning missing binary must fail")
	}
}

func TestNestedSpawnParentChain(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	k.InstallBinary("/bin/child", 100, func(p *Process) error { return nil })
	k.InstallBinary("/bin/parent", 100, func(p *Process) error {
		return p.Spawn("/bin/child")
	})
	root := k.Start("h")
	if err := root.Spawn("/bin/parent"); err != nil {
		t.Fatal(err)
	}
	// Find the two spawn events and verify the parent chain.
	var spawns []Event
	for _, e := range rec.events {
		if e.Kind == EvSpawn {
			spawns = append(spawns, e)
		}
	}
	if len(spawns) != 2 {
		t.Fatalf("spawns = %d", len(spawns))
	}
	if spawns[1].PPID != spawns[0].PID {
		t.Fatal("child's parent must be the first spawned process")
	}
}

func TestExitClosesOpenFiles(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	k.InstallBinary("/bin/leaky", 100, func(p *Process) error {
		_, err := p.Create("/leak.txt")
		return err // never closed explicitly
	})
	root := k.Start("h")
	if err := root.Spawn("/bin/leaky"); err != nil {
		t.Fatal(err)
	}
	closeSeen := false
	for _, e := range rec.events {
		if e.Kind == EvClose && e.Path == "/leak.txt" {
			closeSeen = true
		}
	}
	if !closeSeen {
		t.Fatal("exit must close leaked files")
	}
}

func TestDeadProcessRejectsSyscalls(t *testing.T) {
	k := NewKernel()
	root := k.Start("h")
	root.Exit()
	if _, err := root.Open("/x"); err == nil {
		t.Error("dead process open must fail")
	}
	if err := root.Spawn("/bin/x"); err == nil {
		t.Error("dead process spawn must fail")
	}
	if _, err := root.Connect("db"); err == nil {
		t.Error("dead process connect must fail")
	}
}

func TestConnectAndListen(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	l, err := k.Listen("db:5432")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Listen("db:5432"); err == nil {
		t.Fatal("double listen must fail")
	}
	serverDone := make(chan string, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverDone <- err.Error()
			return
		}
		buf := make([]byte, 5)
		conn.Read(buf)
		conn.Write([]byte("world"))
		conn.Close()
		serverDone <- string(buf)
	}()

	root := k.Start("h")
	conn, err := root.Connect("db:5432")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("hello"))
	reply := make([]byte, 5)
	conn.Read(reply)
	conn.Close()
	if got := <-serverDone; got != "hello" {
		t.Fatalf("server got %q", got)
	}
	if string(reply) != "world" {
		t.Fatalf("client got %q", reply)
	}
	sawConnect := false
	for _, e := range rec.kinds() {
		if e == EvConnect {
			sawConnect = true
		}
	}
	if !sawConnect {
		t.Fatal("connect event not traced")
	}
	l.Close()
	if _, err := root.Connect("db:5432"); err == nil {
		t.Fatal("connect after close must be refused")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("accept after close must fail")
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	k := NewKernel()
	root := k.Start("h")
	if _, err := root.Connect("nowhere"); err == nil {
		t.Fatal("connect without listener must be refused")
	}
}

func TestFileReadWriteSemantics(t *testing.T) {
	k := NewKernel()
	root := k.Start("h")
	f, err := root.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("abc"))
	f.Write([]byte("def"))
	f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Error("write after close must fail")
	}
	if _, err := f.Read(make([]byte, 1)); err == nil {
		t.Error("read after close must fail")
	}

	rf, _ := root.Open("/f")
	buf := make([]byte, 4)
	n, _ := rf.Read(buf)
	if n != 4 || string(buf) != "abcd" {
		t.Fatalf("read = %q", buf[:n])
	}
	rest, _ := rf.ReadAll()
	if string(rest) != "ef" {
		t.Fatalf("rest = %q", rest)
	}
	if _, err := rf.Read(buf); err == nil {
		t.Error("read past EOF must fail")
	}
	if _, err := rf.Write([]byte("x")); err == nil {
		t.Error("write to read-only file must fail")
	}
	rf.Close()

	// Create truncates.
	f2, _ := root.Create("/f")
	f2.Write([]byte("new"))
	f2.Close()
	data, _ := k.FS().ReadFile("/f")
	if string(data) != "new" {
		t.Fatalf("truncate failed: %q", data)
	}

	// Append keeps existing.
	f3, _ := root.OpenAppend("/f")
	f3.Write([]byte("+more"))
	f3.Close()
	data, _ = k.FS().ReadFile("/f")
	if string(data) != "new+more" {
		t.Fatalf("append failed: %q", data)
	}
	// OpenAppend creates missing files.
	f4, err := root.OpenAppend("/fresh")
	if err != nil {
		t.Fatal(err)
	}
	f4.Close()
}

func TestOpenMissingFileFails(t *testing.T) {
	k := NewKernel()
	root := k.Start("h")
	if _, err := root.Open("/missing"); err == nil {
		t.Fatal("open missing must fail")
	}
}

func TestDetachTracer(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	k.Trace(nil) // no-op
	root := k.Start("h")
	root.WriteFile("/a", nil)
	n := len(rec.kinds())
	k.Detach(rec)
	root.WriteFile("/b", nil)
	if len(rec.kinds()) != n {
		t.Fatal("detached tracer still receiving events")
	}
}

func TestFakeELFDeterministic(t *testing.T) {
	a := fakeELF("/bin/x", 100)
	b := fakeELF("/bin/x", 100)
	c := fakeELF("/bin/y", 100)
	if !bytes.Equal(a, b) {
		t.Error("fakeELF must be deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("different names should differ")
	}
	if len(fakeELF("/b", 1)) != 16 {
		t.Error("minimum size not enforced")
	}
}

// Two kernels install the same binary image, generated once and shared by
// fakeELF; each filesystem holds its own copy, so writing into one kernel's
// file in place changes neither the other kernel's file nor the image the
// next boot installs.
func TestInstalledBinariesAreCopies(t *testing.T) {
	const path, size = "/usr/bin/served", 1 << 20
	k1, k2 := NewKernel(), NewKernel()
	for _, k := range []*Kernel{k1, k2} {
		if err := k.InstallBinary(path, size, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := k1.FS().ReadFile(path)
	b, _ := k2.FS().ReadFile(path)
	if len(a) != size || !bytes.Equal(a, b) {
		t.Fatalf("the two kernels installed %d and %d different bytes", len(a), len(b))
	}
	k1.fs.mu.Lock()
	img := k1.fs.nodes[path].data
	for i := range img {
		img[i] ^= 0xff
	}
	k1.fs.mu.Unlock()
	if got, _ := k2.FS().ReadFile(path); !bytes.Equal(got, b) {
		t.Fatal("writing one kernel's binary changed the other kernel's")
	}
	if !bytes.Equal(fakeELF(path, size), b) {
		t.Fatal("writing one kernel's binary changed the cached image")
	}
	if err := k1.FS().WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := k2.FS().ReadFile(path); !bytes.Equal(got, b) {
		t.Fatal("overwriting one kernel's binary changed the other kernel's")
	}
}

func TestQuickFSPathNormalization(t *testing.T) {
	fs := NewFS()
	f := func(segs []uint8) bool {
		if len(segs) == 0 {
			segs = []uint8{0}
		}
		if len(segs) > 4 {
			segs = segs[:4]
		}
		parts := make([]string, len(segs))
		for i, s := range segs {
			parts[i] = fmt.Sprintf("d%d", s%8)
		}
		p := "/" + strings.Join(parts, "/")
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			// May conflict with an earlier directory; that's legitimate.
			return true
		}
		// Reading with redundant slashes and dots must hit the same file.
		messy := "/" + strings.Join(parts, "//./")
		data, err := fs.ReadFile(messy)
		return err == nil && string(data) == "x"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
