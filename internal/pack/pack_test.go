package pack

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ldv/internal/osim"
)

func TestArchiveBasics(t *testing.T) {
	a := New()
	a.Add("/bin/app", []byte("elf"))
	a.Add("etc/conf", []byte("k=v")) // relative paths are normalized
	a.AddSymlink("/lib/link.so", "/lib/real.so")
	if !a.Has("/etc/conf") {
		t.Fatal("normalized path missing")
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
	data, err := a.Read("/bin/app")
	if err != nil || string(data) != "elf" {
		t.Fatalf("read: %q %v", data, err)
	}
	if _, err := a.Read("/lib/link.so"); err == nil {
		t.Error("reading a symlink must fail")
	}
	if _, err := a.Read("/missing"); err == nil {
		t.Error("reading missing member must fail")
	}
	if a.TotalSize() != 6 {
		t.Fatalf("total size = %d", a.TotalSize())
	}
	want := []string{"/bin/app", "/etc/conf", "/lib/link.so"}
	if !reflect.DeepEqual(a.Paths(), want) {
		t.Fatalf("paths = %v", a.Paths())
	}
}

func TestPathsUnderAndSizeUnder(t *testing.T) {
	a := New()
	a.Add("/db/data/t1.tbl", make([]byte, 100))
	a.Add("/db/data/t2.tbl", make([]byte, 50))
	a.Add("/bin/x", make([]byte, 10))
	if got := a.PathsUnder("/db/data"); len(got) != 2 {
		t.Fatalf("paths under = %v", got)
	}
	if a.SizeUnder("/db") != 150 {
		t.Fatalf("size under = %d", a.SizeUnder("/db"))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := New()
	a.Add("/a", []byte("alpha"))
	a.Add("/b/c", nil)
	a.AddSymlink("/d", "relative/target")
	data := a.Marshal()
	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Paths(), b.Paths()) {
		t.Fatalf("paths differ: %v vs %v", a.Paths(), b.Paths())
	}
	got, _ := b.Read("/a")
	if string(got) != "alpha" {
		t.Fatal("content differs")
	}
	if b.Entry("/d").Symlink != "relative/target" {
		t.Fatal("symlink differs")
	}
	// Determinism.
	if !bytes.Equal(a.Marshal(), a.Marshal()) {
		t.Fatal("marshal is not deterministic")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTPKG0\n"),
		[]byte(archiveMagic),            // missing count
		append([]byte(archiveMagic), 5), // count but no members
		append(New().Marshal(), 0xFF),   // trailing garbage
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestExtractToSimFS(t *testing.T) {
	a := New()
	a.Add("/app/bin/tool", []byte("bin"))
	a.AddSymlink("/app/lib/l.so", "/app/lib/real.so")
	a.Add("/app/lib/real.so", []byte("lib"))
	fs := osim.NewFS()
	if err := a.ExtractTo(fs, "/pkgroot"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/pkgroot/app/bin/tool")
	if err != nil || string(data) != "bin" {
		t.Fatalf("extract: %q %v", data, err)
	}
	// Absolute symlink targets are rebased into the package root.
	data, err = fs.ReadFile("/pkgroot/app/lib/l.so")
	if err != nil || string(data) != "lib" {
		t.Fatalf("symlink extract: %q %v", data, err)
	}
}

func TestSaveLoadRealDisk(t *testing.T) {
	a := New()
	a.Add("/x", []byte("payload"))
	p := filepath.Join(t.TempDir(), "pkg.ldv")
	if err := a.Save(p); err != nil {
		t.Fatal(err)
	}
	b, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.Read("/x")
	if string(got) != "payload" {
		t.Fatal("disk round trip failed")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file must fail")
	}
}

type quickArchive struct{ A *Archive }

func (quickArchive) Generate(r *rand.Rand, _ int) reflect.Value {
	a := New()
	n := r.Intn(10)
	for i := 0; i < n; i++ {
		p := "/f" + string(rune('a'+r.Intn(26)))
		if r.Intn(5) == 0 {
			a.AddSymlink(p, "/target")
			continue
		}
		data := make([]byte, r.Intn(64))
		r.Read(data)
		a.Add(p, data)
	}
	return reflect.ValueOf(quickArchive{A: a})
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(q quickArchive) bool {
		b, err := Unmarshal(q.A.Marshal())
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(q.A.Paths(), b.Paths()) {
			return false
		}
		for _, p := range q.A.Paths() {
			ea, eb := q.A.Entry(p), b.Entry(p)
			if ea.Symlink != eb.Symlink || !bytes.Equal(ea.Data, eb.Data) {
				return false
			}
		}
		return b.TotalSize() == q.A.TotalSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The archive moves member bytes exactly once, in Marshal: Add keeps the
// caller's slice, Unmarshal's members alias its input, and Marshal writes
// into one buffer of exactly the final size.
func TestNoMemberCopies(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	a := New()
	a.Add("/big", big)
	a.Add("/small", []byte("s"))
	a.AddSymlink("/link", "/big")
	if got := a.Entry("/big").Data; &got[0] != &big[0] {
		t.Error("Add copied the member instead of taking ownership")
	}

	out := a.Marshal()
	if cap(out) != len(out) {
		t.Errorf("Marshal buffer: len %d, cap %d; want it sized exactly", len(out), cap(out))
	}
	// Paths (slice + sort) and the output buffer; nothing per member, no regrowth.
	if n := testing.AllocsPerRun(10, func() { a.Marshal() }); n > 4 {
		t.Errorf("Marshal allocates %v times, want a constant <= 4", n)
	}

	b, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Entry("/big").Data
	at := bytes.Index(out, big)
	if at < 0 || &got[0] != &out[at] {
		t.Error("Unmarshal copied the member instead of aliasing its input")
	}
	if cap(got) != len(got) {
		t.Errorf("aliased member has cap %d beyond its len %d: an append would overwrite the next member", cap(got), len(got))
	}
	// Three entries, three map slots, the archive: far fewer than one
	// allocation per KB of payload.
	if n := testing.AllocsPerRun(10, func() { Unmarshal(out) }); n > 16 {
		t.Errorf("Unmarshal allocates %v times for 3 members", n)
	}
}

// benchArchive has the shape of a server-included package: a few large
// binaries, a couple of MB of CSV, and small metadata members.
func benchArchive() *Archive {
	a := New()
	a.Add("/usr/lib/ldvdb/bin/ldvdb", make([]byte, 8<<20))
	a.Add("/lib/libc.so.6", make([]byte, 2<<20))
	a.Add("/usr/lib/libssl.so", make([]byte, 1<<20))
	a.Add("/db/provenance/lineitem.csv", make([]byte, 2<<20))
	a.Add("/db/provenance/orders.csv", make([]byte, 300<<10))
	a.Add("/ldv/trace.bin.gz", make([]byte, 240<<10))
	a.Add("/ldv/manifest.json", make([]byte, 2<<10))
	a.AddSymlink("/usr/lib/libldvpq.so", "/usr/lib/libldvpq.so.5")
	return a
}

func BenchmarkArchiveMarshal(b *testing.B) {
	a := benchArchive()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.SetBytes(int64(len(a.Marshal())))
	}
}

func BenchmarkArchiveUnmarshal(b *testing.B) {
	data := benchArchive().Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.ldvpkg from goldenArchive")

const goldenArchivePath = "testdata/golden.ldvpkg"

// goldenArchive holds one member of each shape: a file, an empty file and a
// symlink.
func goldenArchive() *Archive {
	a := New()
	a.Add("/bin/app", []byte("\x7fELF\x00naïve"))
	a.Add("/etc/empty", nil)
	a.AddSymlink("/lib/link.so", "/lib/real.so")
	return a
}

// TestArchiveGolden pins the archive format byte for byte against
// testdata/golden.ldvpkg: the archive marshals to the file, the file
// unmarshals to the same members and marshals to itself, and every strict
// prefix of it is refused. Regenerate it only for a deliberate format change.
func TestArchiveGolden(t *testing.T) {
	got := goldenArchive().Marshal()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArchivePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("archive encoding changed:\n got %q\nwant %q", got, want)
	}
	a, err := Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantArchive := goldenArchive()
	if !reflect.DeepEqual(a.Paths(), wantArchive.Paths()) {
		t.Fatalf("paths = %v", a.Paths())
	}
	for _, p := range a.Paths() {
		if e, w := a.Entry(p), wantArchive.Entry(p); e.Symlink != w.Symlink || !bytes.Equal(e.Data, w.Data) {
			t.Errorf("%s = %+v, want %+v", p, e, w)
		}
	}
	if again := a.Marshal(); !bytes.Equal(again, want) {
		t.Fatalf("golden archive re-marshals to %q", again)
	}
	for n := 0; n < len(want); n++ {
		if _, err := Unmarshal(want[:n]); err == nil {
			t.Errorf("prefix of %d bytes unmarshals", n)
		}
	}
}

// TestUnmarshalAllocatesInProportion: an archive whose member count claims
// more members than its bytes could hold is refused, and refusing it
// allocates at most a small constant times its size.
func TestUnmarshalAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	data := binary.AppendUvarint([]byte(archiveMagic), math.MaxUint64)
	data = append(data, bytes.Repeat([]byte{0xff}, n-len(data))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a member count beyond the archive unmarshalled")
	}
	if grew := int(after.TotalAlloc - before.TotalAlloc); grew > perByte*n {
		t.Errorf("refusing a %d-byte archive allocated %d bytes (%.1f per byte)", n, grew, float64(grew)/n)
	}
}

// FuzzUnmarshal: no input makes the decoder panic, and an input it accepts
// is an archive Marshal writes — it marshals back to exactly those bytes.
func FuzzUnmarshal(f *testing.F) {
	f.Add(goldenArchive().Marshal())
	f.Add(New().Marshal())
	f.Add([]byte(archiveMagic))
	a := New()
	a.Add("/a", []byte("alpha"))
	a.Add("/b/c", nil)
	a.AddSymlink("/d", "relative/target")
	f.Add(a.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Unmarshal(data)
		if err != nil {
			return
		}
		if out := a.Marshal(); !bytes.Equal(out, data) {
			t.Fatalf("accepted %q, which marshals to %q", data, out)
		}
	})
}
