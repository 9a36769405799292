package osim

import (
	"reflect"
	"testing"
)

func TestProcFSTracedIO(t *testing.T) {
	k := NewKernel()
	rec := &recorder{}
	k.Trace(rec)
	p := k.Start("server")
	pfs := NewProcFS(p)

	if err := pfs.WriteFile("/data/t.tbl", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := pfs.ReadFile("/data/t.tbl")
	if err != nil || string(data) != "payload" {
		t.Fatalf("read = %q, %v", data, err)
	}
	// Both the write and the read surfaced as traced open/close pairs.
	var writes, reads int
	for _, e := range rec.events {
		if e.Kind == EvClose && e.Path == "/data/t.tbl" {
			if e.Write {
				writes++
			} else {
				reads++
			}
		}
	}
	if writes != 1 || reads != 1 {
		t.Fatalf("traced writes=%d reads=%d", writes, reads)
	}
	// Untraced metadata surface.
	names, err := pfs.ReadDir("/data")
	if err != nil || len(names) != 1 {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if err := pfs.MkdirAll("/data/sub"); err != nil {
		t.Fatal(err)
	}
	if err := pfs.Symlink("/data/t.tbl", "/data/link"); err != nil {
		t.Fatal(err)
	}
	if pfs.String() == "" {
		t.Fatal("String must identify the view")
	}
}

func TestProcFSWriteFailurePaths(t *testing.T) {
	k := NewKernel()
	p := k.Start("x")
	pfs := NewProcFS(p)
	k.FS().MkdirAll("/dir")
	if err := pfs.WriteFile("/dir", []byte("x")); err == nil {
		t.Fatal("writing over a directory must fail")
	}
	if _, err := pfs.ReadFile("/missing"); err == nil {
		t.Fatal("reading missing file must fail")
	}
	p.Exit()
	if err := pfs.WriteFile("/f", nil); err == nil {
		t.Fatal("dead-process write must fail")
	}
}

// AppendFile is one traced write interval — an open for writing and its
// close — that adds to what is there; Remove deletes the file and, like the
// other metadata calls, opens nothing.
func TestProcFSAppendAndRemove(t *testing.T) {
	k := NewKernel()
	p := k.Start("server")
	pfs := NewProcFS(p)
	if err := pfs.WriteFile("/data/wal.log", []byte("head")); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	k.Trace(rec)
	if err := pfs.AppendFile("/data/wal.log", []byte("+tail")); err != nil {
		t.Fatal(err)
	}
	if data, err := k.FS().ReadFile("/data/wal.log"); err != nil || string(data) != "head+tail" {
		t.Fatalf("after the append the file holds %q, %v", data, err)
	}
	if kinds := rec.kinds(); !reflect.DeepEqual(kinds, []EventKind{EvOpen, EvClose}) {
		t.Fatalf("the append traced %v, want one open and its close", kinds)
	}
	for _, e := range rec.events {
		if e.Path != "/data/wal.log" || !e.Write || e.PID != p.PID {
			t.Fatalf("the append traced %+v, want a write of /data/wal.log by pid %d", e, p.PID)
		}
	}
	if err := pfs.AppendFile("/data/new.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if data, err := k.FS().ReadFile("/data/new.log"); err != nil || string(data) != "x" {
		t.Fatalf("an append to a missing file creates it: %q, %v", data, err)
	}

	rec.events = nil
	if err := pfs.Remove("/data/wal.log"); err != nil {
		t.Fatal(err)
	}
	if k.FS().Exists("/data/wal.log") {
		t.Fatal("Remove left the file")
	}
	if len(rec.events) != 0 {
		t.Fatalf("Remove traced %v, want nothing", rec.kinds())
	}
	if err := pfs.Remove("/data/wal.log"); err == nil {
		t.Fatal("removing a missing file must fail")
	}
}
