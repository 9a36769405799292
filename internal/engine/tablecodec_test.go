package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// The table codec as outside input: a property test over generated tables,
// malformed files, and the allocation pins of the bulk loader. The golden
// file (golden_test.go) pins the format itself.

// genTableDB builds a seeded database of up to three tables that between
// them hold every kind, NULLs, empty and multi-byte text, a primary key, hash
// and ordered indexes, rows written by several processes, rows read with
// lineage (prov_usedby), dead versions and a vacuum horizon.
func genTableDB(t testing.TB, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB(nil)
	exec := func(sql string, opts ExecOptions) {
		t.Helper()
		if _, err := db.Exec(sql, opts); err != nil {
			t.Fatalf("seed %d: Exec(%q): %v", seed, sql, err)
		}
	}
	texts := []string{"''", "'x'", "'naïve'", "'表表表'", "'a,b\n\"c\"'", "'" + strings.Repeat("long ", 40) + "'"}
	lit := func(kind string) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		switch kind {
		case "INTEGER":
			return fmt.Sprint(rng.Int63n(1<<54) - 1<<53)
		case "FLOAT":
			return fmt.Sprintf("%d.%03d", rng.Intn(2000)-1000, rng.Intn(1000))
		case "TEXT":
			return texts[rng.Intn(len(texts))]
		case "BOOLEAN":
			return []string{"TRUE", "FALSE"}[rng.Intn(2)]
		default:
			return fmt.Sprintf("DATE '%04d-%02d-%02d'", 1950+rng.Intn(100), 1+rng.Intn(12), 1+rng.Intn(28))
		}
	}
	kinds := []string{"INTEGER", "FLOAT", "TEXT", "BOOLEAN", "DATE"}
	for ti := 0; ti < 1+rng.Intn(3); ti++ {
		name := fmt.Sprintf("t%d", ti)
		cols := []string{"id INTEGER"}
		if ti != 1 { // the second table has no primary key
			cols[0] += " PRIMARY KEY"
		}
		colKinds := append([]string(nil), kinds...) // every kind, every table
		for extra := rng.Intn(3); extra > 0; extra-- {
			colKinds = append(colKinds, kinds[rng.Intn(len(kinds))])
		}
		for ci, k := range colKinds {
			cols = append(cols, fmt.Sprintf("c%d %s", ci, k))
		}
		exec(fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(cols, ", ")), ExecOptions{})
		exec(fmt.Sprintf("CREATE INDEX %s_h ON %s (c2)", name, name), ExecOptions{})
		exec(fmt.Sprintf("CREATE INDEX %s_o ON %s (c0) USING ordered", name, name), ExecOptions{})
		nrows := rng.Intn(40)
		for id := 0; id < nrows; id++ {
			vals := []string{fmt.Sprint(id)}
			for _, k := range colKinds {
				vals = append(vals, lit(k))
			}
			exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", ")),
				ExecOptions{Proc: []string{"", "loader", "p/2"}[rng.Intn(3)]})
		}
		churn := func() {
			for i := rng.Intn(6); i > 0 && nrows > 0; i-- {
				id := rng.Intn(nrows)
				if rng.Intn(3) == 0 {
					exec(fmt.Sprintf("DELETE FROM %s WHERE id = %d", name, id), ExecOptions{Proc: "churn"})
				} else {
					exec(fmt.Sprintf("UPDATE %s SET c2 = %s WHERE id = %d", name, lit("TEXT"), id), ExecOptions{Proc: "churn"})
				}
			}
		}
		churn()
		if rng.Intn(2) == 0 {
			exec("VACUUM", ExecOptions{}) // drops the history so far, fixes a horizon
		}
		churn() // dead versions the checkpoint must carry
		exec(fmt.Sprintf("SELECT id FROM %s WHERE id < %d", name, nrows/2), ExecOptions{Proc: "reader", WithLineage: true})
	}
	return db
}

// dumpDB renders everything a table file carries, in a canonical order:
// schema, index definitions and their statistics, the three counters, and
// every stored version with its prov_* attributes (prov_usedby for live
// versions only: no file carries a dead version's).
func dumpDB(db *DB) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "horizon %d\n", db.vacuumHorizon.Load())
	for _, name := range db.TableNames() {
		t, _ := db.lookupTable(name)
		fmt.Fprintf(&sb, "table %s %v live=%d versions=%d dead=%d\n", name, t.Schema.Columns,
			t.liveRows.Load(), t.versions.Load(), t.deadVersions.Load())
		for _, ix := range t.indexList() {
			fmt.Fprintf(&sb, "  index %s on %s (%d) %s entries=%d keys=%d\n", ix.name, ix.column, ix.col, ix.kind,
				ix.entries.Load(), ix.keys.Load())
		}
		lines := make([]string, 0, len(t.rows))
		for _, r := range t.rows {
			line := fmt.Sprintf("  %d@%d end=%d proc=%q stmt=%d", r.id, r.version, r.end, r.proc, r.stmt)
			if r.end == 0 {
				line += fmt.Sprintf(" usedby=%d", r.usedBy.Load())
			}
			for _, v := range r.vals {
				line += fmt.Sprintf(" %s:%q", v.Kind(), v.String())
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		sb.WriteString(strings.Join(lines, "\n") + "\n")
		fmt.Fprintf(&sb, "  pk keys held %d\n", keysHeld(db, t))
	}
	return sb.String()
}

// keysHeld counts the live versions of t the primary-key rule lets hold
// their keys: all of them, in a table whose live keys are distinct.
func keysHeld(db *DB, t *Table) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	held := 0
	for _, r := range t.rows {
		if r.end == 0 && t.pkey != nil && t.claimKey(db, r) == nil {
			held++
		}
	}
	return held
}

func checkpointFiles(t testing.TB, db *DB) *mapFS {
	t.Helper()
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	return fs
}

func loadFiles(t testing.TB, fs *mapFS) *DB {
	t.Helper()
	db := NewDB(nil)
	if err := db.LoadDir(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTableCodecRoundTrip: LoadDir(Checkpoint(db)) reproduces every row,
// version, prov_* attribute, index definition and counter, a second
// checkpoint is byte-identical to the first, and the encoder's buffer was
// allocated at exactly the size it filled.
func TestTableCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		db := genTableDB(t, seed)
		fs1 := checkpointFiles(t, db)
		db2 := loadFiles(t, fs1)
		if want, got := dumpDB(db), dumpDB(db2); got != want {
			t.Fatalf("seed %d: loaded database differs\n--- original\n%s--- loaded\n%s", seed, want, got)
		}
		fs2 := checkpointFiles(t, db2)
		for p, data := range fs1.files {
			if !bytes.Equal(data, fs2.files[p]) {
				t.Fatalf("seed %d: %s differs after load/checkpoint", seed, p)
			}
		}
		// The loaded database answers queries like the original, through
		// the rebuilt indexes and the primary key too.
		for _, name := range db.TableNames() {
			for _, q := range []string{
				"SELECT * FROM %s ORDER BY id",
				"SELECT id, prov_rowid, prov_v, prov_p, prov_usedby FROM %s ORDER BY id",
				"SELECT id FROM %s WHERE c2 = 'naïve' ORDER BY id",
				"SELECT id FROM %s WHERE c0 > 0 ORDER BY id",
			} {
				sql := fmt.Sprintf(q, name)
				r1, r2 := mustExec(t, db, sql, ExecOptions{}), mustExec(t, db2, sql, ExecOptions{})
				if a, b := rowsToStrings(r1), rowsToStrings(r2); strings.Join(a, "\n") != strings.Join(b, "\n") {
					t.Fatalf("seed %d: %s:\n%v\nvs\n%v", seed, sql, a, b)
				}
			}
		}
		for _, name := range db.TableNames() {
			tbl, _ := db.lookupTable(name)
			buf, whole := encodeTable(tbl, db.takeSnapshot(0), db.vacuumHorizon.Load())
			if !whole {
				t.Fatalf("seed %d: %s: the image of a quiescent table is not whole", seed, name)
			}
			if len(buf) != cap(buf) {
				t.Fatalf("seed %d: %s encoded into %d bytes of a %d-byte buffer: the sizing pass and the writing pass disagree", seed, name, len(buf), cap(buf))
			}
		}
	}
}

// fileBuilder writes table files by hand, field by field, without the
// encoder.
type fileBuilder struct{ buf []byte }

func (b *fileBuilder) raw(s string)            { b.buf = append(b.buf, s...) }
func (b *fileBuilder) bytes(p ...byte)         { b.buf = append(b.buf, p...) }
func (b *fileBuilder) uvarint(x uint64)        { b.buf = binary.AppendUvarint(b.buf, x) }
func (b *fileBuilder) varint(x int64)          { b.buf = binary.AppendVarint(b.buf, x) }
func (b *fileBuilder) str(s string)            { b.uvarint(uint64(len(s))); b.raw(s) }
func (b *fileBuilder) row(vals []sqlval.Value) { b.buf = sqlval.EncodeRow(b.buf, vals) }

func newFileBuilder(cols ...Column) *fileBuilder {
	b := &fileBuilder{}
	b.raw(tableFileMagic)
	b.str("t")
	b.uvarint(uint64(len(cols)))
	for _, c := range cols {
		b.str(c.Name)
		pk := byte(0)
		if c.PrimaryKey {
			pk = 1
		}
		b.bytes(byte(c.Type), pk)
	}
	return b
}

func (b *fileBuilder) liveRow(id uint64, vals ...sqlval.Value) *fileBuilder {
	b.uvarint(id)
	b.uvarint(id + 10) // version
	b.str("")
	b.varint(0)
	b.varint(0)
	b.row(vals)
	return b
}

func (b *fileBuilder) count(n uint64) *fileBuilder { b.uvarint(n); return b }

// seal returns the file: what was built, then its digest.
func (b *fileBuilder) seal() []byte { return sealTable(b.buf) }

func sealTable(body []byte) []byte {
	return binary.BigEndian.AppendUint64(bytes.Clone(body), digestOf(body))
}

var (
	intPK  = Column{Name: "id", Type: sqlval.KindInt, PrimaryKey: true}
	fltCol = Column{Name: "f", Type: sqlval.KindFloat}
)

func TestDecodeTableRejectsMalformedInput(t *testing.T) {
	golden := goldenBytes(t)
	if _, err := decodeTable(golden); err != nil {
		t.Fatal(err)
	}
	body := golden[:len(golden)-digestLen]

	// Every strict prefix is an error, of the file and — under the digest it
	// would have — of the body: there is no shorter, older file. So is any
	// single flipped bit, in the body or in the digest: a damaged file is
	// never a table with other rows.
	for n := 0; n < len(golden); n++ {
		if _, err := decodeTable(golden[:n]); err == nil {
			t.Errorf("prefix of %d bytes decodes", n)
		}
		if n < len(body) {
			if _, err := decodeTable(sealTable(body[:n])); err == nil {
				t.Errorf("sealed prefix of %d body bytes decodes: a section is optional", n)
			}
		}
	}
	for bit := 0; bit < 8*len(golden); bit++ {
		bad := bytes.Clone(golden)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeTable(bad); err == nil {
			t.Fatalf("golden file with bit %d flipped decodes", bit)
		}
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"trailing bytes", sealTable(append(bytes.Clone(body), 0)), "trailing bytes"},
		{"bad magic", sealTable([]byte("LDVTBL9\n")), "magic"},
		{"no trailer", body, "digest"},
		{"truncated trailer", golden[:len(golden)-3], "digest"},
		{"stale trailer", append(append(bytes.Clone(body), 0), golden[len(body):]...), "digest"},
		{"no time-travel section", sealTable(newFileBuilder(intPK).count(0).count(0).buf), "row count"},
		{"no index section", sealTable(newFileBuilder(intPK).count(0).buf), "index count"},
		{"wrong arity", newFileBuilder(intPK, fltCol).count(1).liveRow(1, sqlval.NewInt(1)).seal(), "row has 1 values, schema has 2 columns"},
		{"uncoercible kind", newFileBuilder(intPK, fltCol).count(1).liveRow(1, sqlval.NewInt(1), sqlval.NewString("x")).seal(), "not assignable"},
		{"fractional float in integer column", newFileBuilder(intPK).count(1).liveRow(1, sqlval.NewFloat(1.5)).seal(), "not assignable"},
		{"duplicate primary key", newFileBuilder(intPK).count(2).liveRow(1, sqlval.NewInt(7)).liveRow(2, sqlval.NewInt(7)).seal(), "duplicate primary key"},
		{"primary-key byte of 2", func() []byte {
			b := newFileBuilder(intPK)
			b.buf[len(b.buf)-1] = 2 // the column's primary-key byte
			b.count(0).count(0).count(0).uvarint(0)
			return b.seal()
		}(), "malformed"},
		{"unknown value tag", func() []byte {
			b := newFileBuilder(intPK).count(1).liveRow(1, sqlval.Null)
			b.buf[len(b.buf)-1] = 0x7f // the row's one value
			return b.seal()
		}(), "unknown kind tag"},
		{"index on a missing column", func() []byte {
			b := newFileBuilder(intPK).count(0).count(1)
			b.str("ix")
			b.str("nope")
			b.str("hash")
			return b.seal()
		}(), "no column"},
		{"dead version without an end stamp", func() []byte {
			b := newFileBuilder(intPK).count(0).count(0).count(1)
			b.uvarint(1) // id
			b.uvarint(5) // version
			b.uvarint(0) // end
			b.str("")
			b.varint(0)
			b.row([]sqlval.Value{sqlval.NewInt(1)})
			b.uvarint(0) // horizon
			return b.seal()
		}(), "no end stamp"},
	} {
		if _, err := decodeTable(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}

	// A value of another kind that checkValue can coerce loads, coerced —
	// the check is the one INSERT runs, not a stricter or a laxer one.
	img, err := decodeTable(newFileBuilder(intPK, fltCol).count(1).liveRow(1, sqlval.NewFloat(3), sqlval.NewInt(2)).count(0).count(0).count(0).seal())
	if err != nil {
		t.Fatal(err)
	}
	if v := img.t.rows[0].vals; v[0].Kind() != sqlval.KindInt || v[0].Int() != 3 || v[1].Kind() != sqlval.KindFloat || v[1].Float() != 2 {
		t.Errorf("coerced row = %v", v)
	}
}

// TestDecodeTableChecksCountsBeforeSizing: a count larger than the bytes
// that follow is rejected before a slab (or a schema, or an index list) is
// sized from it — a 40-byte file must not make the loader allocate
// gigabytes.
func TestDecodeTableChecksCountsBeforeSizing(t *testing.T) {
	const huge = 1 << 40
	files := map[string][]byte{
		"row count":  newFileBuilder(intPK, fltCol).count(huge).liveRow(1, sqlval.NewInt(1), sqlval.NewFloat(1)).seal(),
		"dead count": newFileBuilder(intPK).count(0).count(0).count(huge).seal(),
	}
	cols := &fileBuilder{}
	cols.raw(tableFileMagic)
	cols.str("t")
	cols.uvarint(huge)
	files["column count"] = cols.seal()
	files["index count"] = newFileBuilder(intPK).count(0).count(huge).seal()
	// One row short: three rows promised, bytes for two.
	short := newFileBuilder(intPK).count(3).liveRow(1, sqlval.NewInt(1)).liveRow(2, sqlval.NewInt(2))
	files["row count one past the bytes"] = short.seal()

	for name, data := range files {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeTable(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if name != "row count one past the bytes" && !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want the count check", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte file allocated %d bytes", name, len(data), grew)
		}
	}
}

// TestDecodeTableAllocatesInProportion: a table file, digest and all, whose
// row count claims as many rows as the bytes after it hold at the least a row
// takes, is refused at its first row — and refusing it allocates at most a
// small constant times the file's size, not what the claimed rows would take.
func TestDecodeTableAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	for _, c := range []struct {
		name string
		b    *fileBuilder
		min  int
	}{
		{"live rows", newFileBuilder(intPK, fltCol), minRowBytes(2)},
		{"dead versions", newFileBuilder(intPK).count(0).count(0), minRowBytes(1)},
	} {
		rest := n - len(c.b.buf) - 3 - digestLen // a count below 1<<21 takes three bytes
		c.b.count(uint64(rest / c.min))
		c.b.buf = append(c.b.buf, bytes.Repeat([]byte{0xff}, rest)...)
		file := c.b.seal()
		var err error
		grew := allocated(func() { _, err = decodeTable(file) })
		if err == nil {
			t.Errorf("%s: a file of unreadable rows decoded", c.name)
		}
		if grew > perByte*len(file) {
			t.Errorf("%s: refusing a %d-byte file allocated %d bytes (%.1f per byte)", c.name, len(file), grew, float64(grew)/float64(len(file)))
		}
	}
}

// FuzzDecodeTable: the table decoder never panics and never sizes memory
// from an unchecked count, and whatever it accepts, the codec reproduces:
// the loaded table checkpoints to a file that loads to the same database.
// The input is tried as a file and — since a mutated file all but never
// carries its own digest — as a body, sealed with the digest it should have.
func FuzzDecodeTable(f *testing.F) {
	golden := goldenBytes(f)
	body := golden[:len(golden)-digestLen]
	f.Add(golden)
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(golden[:len(golden)-3]) // truncated trailer
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(newFileBuilder(intPK, fltCol).count(1).liveRow(1, sqlval.NewInt(1), sqlval.NewFloat(2)).count(0).count(0).count(0).buf)
	f.Add([]byte(tableFileMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, sealTable(data)} {
			img, err := decodeTable(file)
			if err != nil {
				continue
			}
			db := NewDB(nil)
			db.installTable(img)
			db.finishRecovery() // clock and generators past the loaded stamps, as Recover does
			fs1 := checkpointFiles(t, db)
			db2 := loadFiles(t, fs1)
			fs2 := checkpointFiles(t, db2)
			for p, d := range fs1.files {
				if !bytes.Equal(d, fs2.files[p]) {
					t.Fatalf("%s: checkpoint of the loaded checkpoint differs", p)
				}
			}
		}
	})
}

// TestBulkLoadAllocations pins what the bulk loader is for: loading a data
// directory allocates per table, not per row, and a checkpoint allocates a
// few buffers per table whatever it holds. And what the sync rule is for: a
// start over files the tables already equal, and a stop with nothing changed,
// allocate per file — a directory listing and each file's bytes on the way
// through the FileSystem — whatever the tables hold.
func TestBulkLoadAllocations(t *testing.T) {
	type allocs struct{ load, checkpoint, warmLoad, cleanCheckpoint float64 }
	measure := func(rows int) (a allocs, tables int) {
		db := benchWideDB(t, rows)
		fs := checkpointFiles(t, db)
		a.load = testing.AllocsPerRun(5, func() { loadFiles(t, fs) })
		out := newMapFS()
		checkpoint := func() {
			if err := db.Checkpoint(out, "/d"); err != nil {
				t.Fatal(err)
			}
		}
		a.checkpoint = testing.AllocsPerRun(5, func() { touchAll(db); checkpoint() })
		a.cleanCheckpoint = testing.AllocsPerRun(5, checkpoint)
		a.warmLoad = testing.AllocsPerRun(5, func() {
			if err := db.LoadDir(out, "/d"); err != nil {
				t.Fatal(err)
			}
		})
		return a, len(db.TableNames())
	}
	a1k, tables := measure(1000)
	a10k, _ := measure(10000)
	t.Logf("%d tables; allocations at 1 k rows: %+v; at 10 k: %+v", tables, a1k, a10k)
	// 18 000 more rows (two tables grow) may cost the few extra allocations a
	// larger pre-sized map takes — not one per row, nor one per hundred.
	if extra := a10k.load - a1k.load; extra > 180 {
		t.Errorf("LoadDir allocations grow with rows: %.0f at 1 k, %.0f at 10 k", a1k.load, a10k.load)
	}
	if a10k.load > float64(100*tables) {
		t.Errorf("LoadDir of %d tables allocates %.0f times", tables, a10k.load)
	}
	for _, a := range []allocs{a1k, a10k} {
		if a.checkpoint > float64(8*tables)+8 {
			t.Errorf("Checkpoint of %d tables allocates %.0f times, want a small constant per table", tables, a.checkpoint)
		}
		if a.cleanCheckpoint > float64(4*tables)+8 || a.warmLoad > float64(4*tables)+8 {
			t.Errorf("with nothing changed, Checkpoint allocates %.0f times and LoadDir %.0f, want a few per file (%d tables)", a.cleanCheckpoint, a.warmLoad, tables)
		}
	}
	if a10k.cleanCheckpoint != a1k.cleanCheckpoint || a10k.warmLoad != a1k.warmLoad {
		t.Errorf("clean Checkpoint / warm LoadDir allocations depend on the rows: %+v at 1 k, %+v at 10 k", a1k, a10k)
	}
}
