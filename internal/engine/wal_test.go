package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldv/internal/sqlval"
)

// recoverInto boots a fresh DB from fs and fails the test on error.
func recoverInto(t *testing.T, fs FileSystem, dir string) (*DB, RecoveryStats) {
	t.Helper()
	db := NewDB(nil)
	st, err := db.Recover(fs, dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return db, st
}

func selectAll(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	return rowsToStrings(mustExec(t, db, sql, ExecOptions{}))
}

func TestWALCommitRecover(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")

	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')", ExecOptions{Proc: "loader"})
	mustExec(t, db, "UPDATE t SET v = 'dos' WHERE k = 2", ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE k = 3", ExecOptions{})

	// No checkpoint ever ran: everything must come back from the WAL alone.
	db2, st := recoverInto(t, fs, "/data")
	if st.ReplayedTxns == 0 {
		t.Fatalf("stats = %+v, want replayed txns > 0", st)
	}
	want := selectAll(t, db, "SELECT k, v FROM t ORDER BY k")
	got := selectAll(t, db2, "SELECT k, v, prov_p FROM t ORDER BY k")
	if len(got) != 2 || !strings.HasPrefix(got[0], "1|one") || !strings.HasPrefix(got[1], "2|dos") {
		t.Fatalf("recovered rows = %v", got)
	}
	if !strings.HasSuffix(got[0], "loader") {
		t.Fatalf("provenance proc lost in replay: %v", got)
	}
	_ = want

	// The recovered database keeps working — and its new commits land in the
	// same log, surviving another recovery.
	mustExec(t, db2, "INSERT INTO t VALUES (4, 'four')", ExecOptions{})
	db3, _ := recoverInto(t, fs, "/data")
	got = selectAll(t, db3, "SELECT k, v FROM t ORDER BY k")
	if len(got) != 3 || got[2] != "4|four" {
		t.Fatalf("rows after second recovery = %v", got)
	}
}

func TestWALExplicitTxnAndRollback(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY)", ExecOptions{})

	s := db.NewSession()
	mustSess := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSess("BEGIN")
	mustSess("INSERT INTO t VALUES (1)")
	mustSess("INSERT INTO t VALUES (2)")
	mustSess("COMMIT")
	mustSess("BEGIN")
	mustSess("INSERT INTO t VALUES (3)")
	mustSess("ROLLBACK")
	s.Close()

	db2, _ := recoverInto(t, fs, "/data")
	got := selectAll(t, db2, "SELECT k FROM t ORDER BY k")
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("recovered rows = %v, want committed txn only", got)
	}
}

func TestWALDDLReplay(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE keep (k INT)", ExecOptions{})
	mustExec(t, db, "CREATE TABLE gone (k INT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO gone VALUES (9)", ExecOptions{})
	mustExec(t, db, "DROP TABLE gone", ExecOptions{})

	db2, _ := recoverInto(t, fs, "/data")
	names := db2.TableNames()
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("recovered tables = %v, want [keep]", names)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)", ExecOptions{})
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i, i), ExecOptions{})
	}
	before := db.WAL().Size()
	if before <= int64(len(walMagic)) {
		t.Fatalf("wal size before checkpoint = %d, want > header", before)
	}
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	if after := db.WAL().Size(); after != int64(len(walMagic)) {
		t.Fatalf("wal size after checkpoint = %d, want %d (empty)", after, len(walMagic))
	}

	// Post-checkpoint commits land after the cut and survive recovery
	// together with the checkpointed state.
	mustExec(t, db, "INSERT INTO t VALUES (100, 'tail')", ExecOptions{})
	db2, st := recoverInto(t, fs, "/data")
	if st.Tables != 1 || st.ReplayedTxns != 1 {
		t.Fatalf("stats = %+v, want 1 table and exactly the post-cut txn", st)
	}
	got := selectAll(t, db2, "SELECT count(*) FROM t")
	if got[0] != "21" {
		t.Fatalf("count = %v, want 21", got)
	}
}

func TestCheckpointRetiresDroppedTableFiles(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE tmp (k INT)", ExecOptions{})
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/data/tmp.tbl"); err != nil {
		t.Fatal("checkpoint must write tmp.tbl")
	}
	mustExec(t, db, "DROP TABLE tmp", ExecOptions{})
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/data/tmp.tbl"); err == nil {
		t.Fatal("checkpoint must retire the dropped table's file")
	}
	db2, _ := recoverInto(t, fs, "/data")
	if n := len(db2.TableNames()); n != 0 {
		t.Fatalf("recovered %d tables, want 0 (drop must not resurrect)", n)
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})

	// Simulate a crash mid-append: a record whose length prefix promises
	// more payload than the file holds.
	torn := []byte{0xFF, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01}
	if err := fs.AppendFile("/data/"+WALFileName, torn); err != nil {
		t.Fatal(err)
	}
	db2, st := recoverInto(t, fs, "/data")
	if st.TornBytes != int64(len(torn)) {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, len(torn))
	}
	got := selectAll(t, db2, "SELECT k FROM t")
	if len(got) != 1 || got[0] != "1" {
		t.Fatalf("rows = %v", got)
	}
	// The tail was truncated: new commits append after the valid prefix and
	// a further recovery sees both old and new.
	mustExec(t, db2, "INSERT INTO t VALUES (2)", ExecOptions{})
	db3, st3 := recoverInto(t, fs, "/data")
	if st3.TornBytes != 0 {
		t.Fatalf("second recovery found %d torn bytes, want 0", st3.TornBytes)
	}
	if got := selectAll(t, db3, "SELECT k FROM t ORDER BY k"); len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
}

func TestWALCorruptPayloadStopsReplay(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	good, _ := fs.ReadFile("/data/" + WALFileName)
	mustExec(t, db, "INSERT INTO t VALUES (2)", ExecOptions{})
	cur, _ := fs.ReadFile("/data/" + WALFileName)

	// Flip a payload byte of the last record: its CRC no longer matches, so
	// replay must stop before it (and discard it as torn).
	cur[len(cur)-1] ^= 0xFF
	if err := fs.WriteFile("/data/"+WALFileName, cur); err != nil {
		t.Fatal(err)
	}
	db2, st := recoverInto(t, fs, "/data")
	if st.WALBytes != int64(len(good)) {
		t.Fatalf("valid prefix = %d, want %d", st.WALBytes, len(good))
	}
	if got := selectAll(t, db2, "SELECT k FROM t"); len(got) != 1 {
		t.Fatalf("rows = %v, want the first insert only", got)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY)", ExecOptions{})

	const sessions, perSession = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < perSession; i++ {
				sql := fmt.Sprintf("INSERT INTO t VALUES (%d)", s*perSession+i)
				if _, err := sess.Exec(sql, ExecOptions{}); err != nil {
					errs <- fmt.Errorf("%s: %w", sql, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	db2, st := recoverInto(t, fs, "/data")
	// One WAL record per commit plus one for the CREATE TABLE.
	if st.ReplayedTxns != sessions*perSession+1 {
		t.Fatalf("replayed %d txns, want %d", st.ReplayedTxns, sessions*perSession+1)
	}
	if got := selectAll(t, db2, "SELECT count(*) FROM t"); got[0] != fmt.Sprint(sessions*perSession) {
		t.Fatalf("count = %v", got)
	}
}

func TestWALRecoverIdempotent(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')", ExecOptions{})
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE t SET v = 'bb' WHERE k = 2", ExecOptions{})

	// Recover twice from the same surviving image; both runs must agree.
	files := fs.snapshotFiles()
	runs := make([][]string, 2)
	for i := range runs {
		clone := newMapFS()
		clone.files = files
		files = fs.snapshotFiles() // fresh copy per run
		dbN, _ := recoverInto(t, clone, "/data")
		runs[i] = selectAll(t, dbN, "SELECT k, v, prov_v FROM t ORDER BY k")
	}
	if strings.Join(runs[0], "\n") != strings.Join(runs[1], "\n") {
		t.Fatalf("recovery not deterministic:\n%v\nvs\n%v", runs[0], runs[1])
	}
	if len(runs[0]) != 2 || !strings.HasPrefix(runs[0][1], "2|bb") {
		t.Fatalf("recovered rows = %v", runs[0])
	}
}

func TestWALPrimaryKeyEnforcedAfterRecovery(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET k = 1 WHERE k = 1", ExecOptions{}) // same key, new version

	db2, _ := recoverInto(t, fs, "/data")
	if _, err := db2.Exec("INSERT INTO t VALUES (1)", ExecOptions{}); err == nil {
		t.Fatal("pk index must be rebuilt: duplicate insert succeeded")
	}
	if _, err := db2.Exec("INSERT INTO t VALUES (2)", ExecOptions{}); err != nil {
		t.Fatalf("fresh key must insert: %v", err)
	}
}

func TestWALRoundTripEncoding(t *testing.T) {
	entries := []redoEntry{
		{kind: walCreate, table: "t", schema: Schema{Columns: []Column{{Name: "k", Type: 1, PrimaryKey: true}}}},
		{kind: walInsert, table: "t", id: 7, version: 42, proc: "p", stmt: 3, vals: nil},
		{kind: walEnd, table: "t", id: 7, version: 42, end: 99},
		{kind: walDrop, table: "t"},
	}
	payload := encodeWALTxn(-5, entries)
	txnID, got, err := decodeWALTxn(payload)
	if err != nil {
		t.Fatal(err)
	}
	if txnID != -5 || len(got) != len(entries) {
		t.Fatalf("txn %d, %d entries", txnID, len(got))
	}
	for i := range entries {
		if got[i].kind != entries[i].kind || got[i].table != entries[i].table ||
			got[i].id != entries[i].id || got[i].version != entries[i].version ||
			got[i].end != entries[i].end || got[i].proc != entries[i].proc ||
			got[i].stmt != entries[i].stmt {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	if len(got[0].schema.Columns) != 1 || got[0].schema.Columns[0].Name != "k" {
		t.Fatalf("schema lost: %+v", got[0].schema)
	}
}

const walGoldenPath = "testdata/all_kinds.walrec"

// walGoldenEntries is one record holding all eight redo entry kinds, with a
// NULL, multi-byte text, a negative statement id and multi-byte varints.
func walGoldenEntries() []redoEntry {
	return []redoEntry{
		{kind: walCreate, table: "naïve", schema: Schema{Columns: []Column{
			{Name: "k", Type: sqlval.KindInt, PrimaryKey: true},
			{Name: "v", Type: sqlval.KindString},
			{Name: "f", Type: sqlval.KindFloat},
		}}},
		{kind: walInsert, table: "naïve", id: 300, version: 70000, proc: "p/2", stmt: -3,
			vals: []sqlval.Value{sqlval.NewInt(-1), sqlval.NewString("表 naïve"), sqlval.Null}},
		{kind: walEnd, table: "naïve", id: 300, version: 70000, end: 70001},
		{kind: walCreateIndex, table: "naïve", idxName: "ix", idxCol: "v", idxKind: "ordered"},
		{kind: walDropIndex, table: "naïve", idxName: "ix"},
		{kind: walVacuum, version: 69999},
		{kind: walStmt, table: "UPDATE", id: 69998, version: 70000, end: 70001, proc: "UPDATE naïve SET v = ? WHERE k = ?", stmt: 1,
			vals: []sqlval.Value{sqlval.NewString("x"), sqlval.NewFloat(2.5)}},
		{kind: walDrop, table: "naïve"},
	}
}

// TestWALRecordGolden pins the WAL record payload byte for byte against
// testdata/all_kinds.walrec: the record encodes to the file, the file decodes
// to entries that encode to it again, and every strict prefix of it is
// refused. Regenerate it (-update-golden) only for a deliberate format change.
func TestWALRecordGolden(t *testing.T) {
	got := encodeWALTxn(-12, walGoldenEntries())
	if *updateGolden {
		if err := os.WriteFile(walGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(walGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL record encoding changed:\n got %x\nwant %x", got, want)
	}
	txnID, entries, err := decodeWALTxn(want)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeWALTxn(txnID, entries); txnID != -12 || !bytes.Equal(again, want) {
		t.Fatalf("golden record decodes to txn %d, %+v, which encodes to %x", txnID, entries, again)
	}
	for n := 0; n < len(want); n++ {
		if _, _, err := decodeWALTxn(want[:n]); err == nil {
			t.Errorf("prefix of %d bytes decodes", n)
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// TestWALRecordAllocatesInProportion: a record payload whose entry (or
// column) count is as large as the bytes after it is refused, and refusing it
// allocates at most a small constant times the payload's size. A replica
// decodes these payloads straight off the network.
func TestWALRecordAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	for _, c := range []struct {
		name   string
		prefix []byte
	}{
		{"entries", binary.AppendVarint(nil, 1)},
		{"columns of a CREATE TABLE", append(binary.AppendVarint(nil, 1), 1, walCreate, 1, 't')},
	} {
		rest := n - len(c.prefix) - 3 // a count below 1<<21 takes three bytes
		payload := binary.AppendUvarint(bytes.Clone(c.prefix), uint64(rest))
		payload = append(payload, bytes.Repeat([]byte{0xff}, rest)...)
		var err error
		grew := allocated(func() { _, _, err = decodeWALTxn(payload) })
		if err == nil {
			t.Errorf("%s: a count beyond the payload decoded", c.name)
		}
		if grew > perByte*n {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes (%.1f per byte)", c.name, n, grew, float64(grew)/n)
		}
	}
}

func TestScanWALStopsAtFirstBadRecord(t *testing.T) {
	var log []byte
	log = append(log, walMagic...)
	frame := func(payload []byte) {
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
		log = append(log, payload...)
	}
	frame([]byte("aaa"))
	frame([]byte("bbbb"))
	cutoff := len(log)
	// A frame with a valid length but wrong checksum, then a valid one that
	// must NOT be reached.
	log = append(log, 3, 0, 0, 0, 1, 2, 3, 4, 'x', 'y', 'z')
	frame([]byte("ccc"))

	var seen [][]byte
	valid, err := scanWAL(log, func(p []byte) error {
		seen = append(seen, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(cutoff) {
		t.Fatalf("valid prefix = %d, want %d", valid, cutoff)
	}
	if len(seen) != 2 || string(seen[0]) != "aaa" || string(seen[1]) != "bbbb" {
		t.Fatalf("seen = %q", seen)
	}
}
