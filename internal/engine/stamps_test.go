package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"ldv/internal/faultfs"
)

// The stamps-file codec: a pinned image, its round trip through a load, and
// the decoder against damaged and hostile input, as the table-file decoder is
// held to in tablecodec_test.go.

const goldenStampsPath = "testdata/golden.stamps"

// goldenStampsDir is goldenDB's data directory after a checkpoint, two
// lineage reads — one of every live version, then one of a single version
// through an index, so the column is more than one run — and a second
// checkpoint, which writes the stamps file and leaves the table file as it
// was. It returns the directory and the database.
func goldenStampsDir(t testing.TB) (*mapFS, *DB) {
	t.Helper()
	db := goldenDB(t)
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	tbl := fs.files["/d/golden.tbl"]
	for _, sql := range []string{"SELECT id FROM golden", "SELECT id FROM golden WHERE s = 'uno'"} {
		if _, err := db.Exec(sql, ExecOptions{Proc: "reader", WithLineage: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fs.files["/d/golden.tbl"], tbl) {
		t.Fatal("a checkpoint after lineage reads alone rewrote the table file")
	}
	if fs.files["/d/golden.stamps"] == nil {
		t.Fatal("a checkpoint after lineage reads alone wrote no stamps file")
	}
	return fs, db
}

// usedBy renders a table's prov_usedby column by id.
func usedBy(t testing.TB, db *DB, table string) string {
	t.Helper()
	res, err := db.Exec("SELECT id, prov_usedby FROM "+table+" ORDER BY id", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(res.Rows)
}

func TestGoldenStampsFile(t *testing.T) {
	fs, db := goldenStampsDir(t)
	if *updateGolden {
		if err := os.WriteFile(goldenStampsPath, fs.files["/d/golden.stamps"], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenStampsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.files["/d/golden.stamps"]; !bytes.Equal(got, want) {
		t.Fatalf("stamps file of goldenStampsDir differs from %s (%d vs %d bytes): the format changed", goldenStampsPath, len(got), len(want))
	}
	st, err := decodeStamps(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.runs) < 2 {
		t.Fatalf("the golden stamps file has %d runs: it pins too little", len(st.runs))
	}

	// The pinned pair loads to goldenDB's stamps; the loaded table is synced
	// to them, and its stamps file re-encodes byte for byte.
	golden, err := os.ReadFile(goldenTablePath)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMapFS()
	dir.files["/d/golden.tbl"], dir.files["/d/golden.stamps"] = golden, want
	loaded := NewDB(nil)
	if err := loaded.LoadDir(dir, "/d"); err != nil {
		t.Fatal(err)
	}
	if got, want := usedBy(t, loaded, "golden"), usedBy(t, db, "golden"); got != want {
		t.Fatalf("prov_usedby after loading the golden pair = %s, want %s", got, want)
	}
	tbl, _ := loaded.lookupTable("golden")
	if im := tbl.current(); im == nil || !im.hasStamps || im.stampsDigest != st.digest {
		t.Fatalf("the loaded table does not equal the pair it was loaded from: %+v", im)
	}
	tbl.mu.RLock()
	again := encodeStamps(tbl, st.tbl)
	tbl.mu.RUnlock()
	if !bytes.Equal(again, want) {
		t.Fatal("golden stamps file does not re-encode byte for byte after LoadDir")
	}
}

// sealStampsBody seals a stamps-file body with the digest it should have.
func sealStampsBody(body []byte) []byte {
	return binary.BigEndian.AppendUint64(bytes.Clone(body), digestOf(body))
}

// stampsBody is a stamps-file body naming the table digest tbl, with the
// given runs written as they are: (length, stamp) pairs.
func stampsBody(tbl uint64, runs ...int64) []byte {
	b := append([]byte(stampsFileMagic), binary.BigEndian.AppendUint64(nil, tbl)...)
	b = binary.AppendUvarint(b, uint64(len(runs)/2))
	for i := 0; i+1 < len(runs); i += 2 {
		b = binary.AppendUvarint(b, uint64(runs[i]))
		b = binary.AppendVarint(b, runs[i+1])
	}
	return b
}

func TestDecodeStampsRejectsMalformedInput(t *testing.T) {
	fs, _ := goldenStampsDir(t)
	golden := fs.files["/d/golden.stamps"]
	body := golden[:len(golden)-digestLen]

	// Every strict prefix is an error, of the file and — under the digest it
	// would have — of the body; so is any single flipped bit.
	for n := 0; n < len(golden); n++ {
		if _, err := decodeStamps(golden[:n]); err == nil {
			t.Errorf("prefix of %d bytes decodes", n)
		}
		if n < len(body) {
			if _, err := decodeStamps(sealStampsBody(body[:n])); err == nil {
				t.Errorf("sealed prefix of %d body bytes decodes", n)
			}
		}
	}
	for bit := 0; bit < 8*len(golden); bit++ {
		bad := bytes.Clone(golden)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeStamps(bad); err == nil {
			t.Fatalf("golden stamps file with bit %d flipped decodes", bit)
		}
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"trailing byte", sealStampsBody(append(bytes.Clone(body), 0)), "trailing bytes"},
		{"bad magic", sealStampsBody([]byte("LDVSTM9\n12345678\x00")), "magic"},
		{"a table file", sealTable(newFileBuilder(intPK).count(0).count(0).count(0).buf), "magic"},
		{"no trailer", body, "digest"},
		{"stale trailer", append(append(bytes.Clone(body), 0), golden[len(body):]...), "digest"},
		{"empty run", sealStampsBody(stampsBody(7, 2, 5, 0, 6)), "empty"},
		{"two runs of one stamp", sealStampsBody(stampsBody(7, 2, 5, 1, 5)), "stamp of the run before"},
		{"runs past any table", sealStampsBody(stampsBody(7, 1<<62, 1, 1<<62, 2)), "more records"},
	} {
		if _, err := decodeStamps(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}

	// A stamps file whose runs do not cover the table file's live versions
	// exactly is refused by the load that would apply it.
	golden2, _ := os.ReadFile(goldenTablePath)
	digest, err := tableDigest(golden2)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	if img, err := decodeTable(golden2); err == nil {
		live = int(img.t.liveRows.Load())
	}
	for _, n := range []int64{int64(live) - 1, int64(live) + 1} {
		dir := newMapFS()
		dir.files["/d/golden.tbl"] = golden2
		dir.files["/d/golden.stamps"] = sealStampsBody(stampsBody(digest, n, 9))
		err := NewDB(nil).LoadDir(dir, "/d")
		if err == nil || !strings.Contains(err.Error(), "stamps cover") {
			t.Errorf("runs covering %d of %d live versions: err = %v", n, live, err)
		}
	}
	// One that names another table file is what a crash leaves behind a
	// rewrite: ignored, not refused.
	dir := newMapFS()
	dir.files["/d/golden.tbl"] = golden2
	dir.files["/d/golden.stamps"] = sealStampsBody(stampsBody(digest+1, int64(live)+5, 9))
	if err := NewDB(nil).LoadDir(dir, "/d"); err != nil {
		t.Errorf("a stamps file naming another table file: %v", err)
	}
}

// TestDecodeStampsAllocatesInProportion: a stamps file whose run count
// claims as many runs as the bytes after it could hold is refused at its
// first unreadable run, and refusing it allocates at most a small constant
// times the file's size.
func TestDecodeStampsAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	head := stampsBody(1)
	head = head[:len(head)-1] // the run count is written below
	rest := n - len(head) - 3 - digestLen
	body := binary.AppendUvarint(bytes.Clone(head), uint64(rest/2))
	body = append(body, bytes.Repeat([]byte{0xff}, rest)...)
	file := sealStampsBody(body)
	var err error
	grew := allocated(func() { _, err = decodeStamps(file) })
	if err == nil {
		t.Error("a file of unreadable runs decoded")
	}
	if grew > perByte*len(file) {
		t.Errorf("refusing a %d-byte file allocated %d bytes (%.1f per byte)", len(file), grew, float64(grew)/float64(len(file)))
	}
	huge := sealStampsBody(binary.AppendUvarint(bytes.Clone(head), 1<<40))
	if _, err := decodeStamps(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("a run count past the bytes: err = %v, want the count check", err)
	}
}

// FuzzDecodeStamps: the stamps decoder never panics, and whatever it accepts
// is the one encoding of its runs — they seal back to the same bytes. The
// input is tried as a file and as a body sealed with the digest it should
// have.
func FuzzDecodeStamps(f *testing.F) {
	fs, _ := goldenStampsDir(f)
	golden := fs.files["/d/golden.stamps"]
	f.Add(golden)
	f.Add(golden[:len(golden)-digestLen])
	f.Add(stampsBody(3, 1, 0, 4, -2, 1, 1<<40))
	f.Add([]byte(stampsFileMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealStampsBody(data)} {
			st, err := decodeStamps(file)
			if err != nil {
				continue
			}
			if again := sealStamps(st.tbl, st.runs); !bytes.Equal(again, file) {
				t.Fatalf("accepted stamps file re-encodes to other bytes:\n%x\n%x", file, again)
			}
		}
	})
}

// TestCheckpointRetiresAStampsFileNamingItsNewTable: a stamps file left
// beside a table file it does not amend may name the table file a checkpoint
// is about to write (a crash left it behind an older rewrite, and the table
// came back to that image). It is removed before the table file is written,
// so that a crash at any point of the checkpoint loads the old table file
// alone or the new one alone, never the new one under stale stamps.
func TestCheckpointRetiresAStampsFileNamingItsNewTable(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INT PRIMARY KEY, a INT)", "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
	old := newMapFS()
	if err := db.Checkpoint(old, "/d"); err != nil {
		t.Fatal(err)
	}
	before := usedBy(t, db, "t")
	if _, err := db.Exec("SELECT id FROM t", ExecOptions{WithLineage: true}); err != nil {
		t.Fatal(err)
	}
	after := usedBy(t, db, "t")
	next := newMapFS() // the table file the database's next checkpoint writes
	if err := db.Checkpoint(next, "/d"); err != nil {
		t.Fatal(err)
	}
	digest, err := tableDigest(next.files["/d/t.tbl"])
	if err != nil {
		t.Fatal(err)
	}
	stale := sealStamps(digest, []stampRun{{n: 3, stamp: 999}})

	for crashAt := 1; ; crashAt++ {
		dir := newMapFS()
		dir.files["/d/t.tbl"], dir.files["/d/t.stamps"] = old.files["/d/t.tbl"], stale
		fs := faultfs.New(dir, crashAt, 0)
		err := db.Checkpoint(fs, "/d")
		loaded := NewDB(nil)
		if err := loaded.LoadDir(dir, "/d"); err != nil {
			t.Fatalf("crash=%d: %v", crashAt, err)
		}
		if got := usedBy(t, loaded, "t"); got != before && got != after {
			t.Fatalf("crash=%d: prov_usedby %s, want %s (before) or %s (after)", crashAt, got, before, after)
		}
		if !fs.Crashed() {
			if err != nil {
				t.Fatal(err)
			}
			if got := usedBy(t, loaded, "t"); got != after {
				t.Fatalf("prov_usedby %s after the checkpoint, want %s", got, after)
			}
			break
		}
	}
}
