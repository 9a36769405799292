package engine

import (
	"encoding/binary"
	"fmt"
	"path"
	"strings"

	"ldv/internal/sqlval"
)

// Checkpoint/WAL interplay: see wal.go for the log format and group-commit
// scheme, recover.go for replay. Checkpoint below is the log's only
// truncation point.

// FileSystem is the minimal filesystem surface the engine needs to persist
// its data directory. Both the simulated OS filesystem and the real disk
// satisfy it; the DB server writes through the simulated one so that
// file-granularity packagers (PTU) observe real data files.
//
// Atomicity contract: WriteFile must replace the file's contents
// atomically with respect to crashes — after a failure mid-call, a reader
// sees either the complete old contents or the complete new contents,
// never a partial mix. (osim swaps an in-memory node; diskfs writes a
// temporary file and renames it over the target.) Crash recovery leans on
// this: checkpoint table files and the truncated WAL image are each
// all-or-nothing, so torn state can only appear at the tail of an append
// (FileAppender), where the WAL's record checksums detect and discard it.
type FileSystem interface {
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]string, error)
	MkdirAll(path string) error
}

// FileAppender is the optional append extension. Unlike WriteFile, an
// append interrupted by a crash may leave a prefix of the new bytes at the
// file's tail. The WAL prefers appends (one flush per group commit instead
// of rewriting the whole log) and tolerates the torn-tail semantics; when
// the FileSystem does not implement it, the WAL falls back to atomic
// whole-file rewrites of a mirrored image.
type FileAppender interface {
	AppendFile(path string, data []byte) error
}

// FileRemover is the optional delete extension. Checkpoint uses it to
// retire the table files of dropped tables; without it a stale .tbl file
// survives checkpoints and the table it holds reappears on the next
// recovery once the WAL record of the DROP has been truncated away.
type FileRemover interface {
	Remove(path string) error
}

const tableFileMagic = "LDVTBL1\n"

// Checkpoint writes every table to dir as <table>.tbl data files, creating
// dir if needed. The checkpoint is a fresh snapshot's view: uncommitted
// writes of transactions open at the time are excluded. When a WAL is
// attached, a completed checkpoint also truncates the log records it
// supersedes; see the protocol notes below.
//
// Truncation protocol: commits hold commitMu shared across their WAL
// append and active-set removal, and Checkpoint holds it exclusively while
// it copies the catalog, takes its snapshot, and records the log offset
// (the cut). Every record before the cut therefore belongs to a
// transaction the snapshot sees — it is fully contained in the table files
// written below — and every commit the snapshot misses sits at or after
// the cut, which truncateTo preserves. A crash anywhere in between leaves
// old and new table files mixed with an untruncated log, which recovery
// resolves by idempotent replay.
func (db *DB) Checkpoint(fs FileSystem, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	db.commitMu.Lock()
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t
	}
	db.mu.RUnlock()
	snap := db.takeSnapshot(0)
	wal := db.wal
	var cut int64
	if wal != nil {
		cut = wal.Size()
	}
	db.commitMu.Unlock()

	horizon := db.vacuumHorizon.Load()
	for name, t := range tables {
		t.mu.RLock()
		data := encodeTable(t, snap, horizon)
		t.mu.RUnlock()
		if err := fs.WriteFile(path.Join(dir, name+".tbl"), data); err != nil {
			return fmt.Errorf("checkpoint table %s: %w", name, err)
		}
	}
	// Retire table files whose tables were dropped: once the DROP's WAL
	// record is truncated below, a stale file would resurrect the table.
	if rm, ok := fs.(FileRemover); ok {
		names, err := fs.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		for _, n := range names {
			tn, isTbl := strings.CutSuffix(n, ".tbl")
			if !isTbl {
				continue
			}
			if _, live := tables[tn]; !live {
				if err := rm.Remove(path.Join(dir, n)); err != nil {
					return fmt.Errorf("checkpoint: retire %s: %w", n, err)
				}
			}
		}
	}
	if wal != nil {
		if err := wal.truncateTo(cut); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// LoadDir reads every <table>.tbl file in dir into the database, replacing
// any same-named tables.
func (db *DB) LoadDir(fs FileSystem, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("load data dir: %w", err)
	}
	var maxTS uint64
	for _, n := range names {
		if !strings.HasSuffix(n, ".tbl") {
			continue
		}
		data, err := fs.ReadFile(path.Join(dir, n))
		if err != nil {
			return fmt.Errorf("load table file %s: %w", n, err)
		}
		img, err := decodeTable(data)
		if err != nil {
			return fmt.Errorf("decode table file %s: %w", n, err)
		}
		db.installTable(img)
		maxTS = max(maxTS, img.maxTS)
	}
	// Advance the clock past every loaded stamp: dead versions carry end
	// stamps, and a fresh clock behind them would read the ends as
	// still-in-the-future (the versions would look alive again).
	if adv, ok := db.clock.(ClockAdvancer); ok {
		adv.AdvanceTo(maxTS)
	}
	return nil
}

// installTable publishes a decoded table (replacing any same-named one) and
// moves the retention horizon and the row-id generator past what it holds.
func (db *DB) installTable(img tableImage) {
	db.mu.Lock()
	db.tables[img.t.Name] = img.t
	db.mu.Unlock()
	if img.horizon > db.vacuumHorizon.Load() {
		db.vacuumHorizon.Store(img.horizon)
	}
	db.advanceNextRow(img.maxRow)
}

// The table-file format, written by encodeTable and read by decodeTable and
// by nothing else (checkpoint files, the replica bootstrap's snapshot cut):
//
//	magic "LDVTBL1\n"
//	name, ncols, ncols × (name, type byte, pk byte)
//	nlive, nlive × (id, version, proc, stmt, usedBy, values)
//	nidx,  nidx × (name, column, kind)               — optional from here
//	ndead, ndead × (id, version, end, proc, stmt, values), horizon — optional
//
// Counts, ids and stamps are uvarints, stmt and usedBy varints, strings
// uvarint-length-prefixed, values a sqlval.EncodeRow image.

// Row classes of one encode: what encodeTable's first pass decided for each
// version, so the counting and the writing pass cannot disagree.
const (
	rowSkip uint8 = iota
	rowLive       // visible to the checkpoint's snapshot
	rowDead       // committed history: the time-travel section
)

// minRowBytes is the least a row of either section occupies (five header
// fields and the value count at a byte each, then a byte per value): the
// bound a row count is checked against before anything is sized from it.
func minRowBytes(ncols int) int { return 6 + ncols }

// tableSink is the encoder's output: first a byte count, then the buffer.
// encodeTable runs one description of the format (writeTable) against both,
// so the buffer is allocated once at its final size and a checkpoint
// allocates the bytes it writes, the class array, and nothing else.
type tableSink struct {
	counting bool
	n        int
	buf      []byte
}

func (w *tableSink) bytes(b ...byte) {
	if w.counting {
		w.n += len(b)
	} else {
		w.buf = append(w.buf, b...)
	}
}

func (w *tableSink) uvarint(x uint64) {
	if w.counting {
		w.n += sqlval.UvarintLen(x)
	} else {
		w.buf = binary.AppendUvarint(w.buf, x)
	}
}

func (w *tableSink) varint(x int64) {
	if w.counting {
		w.n += sqlval.VarintLen(x)
	} else {
		w.buf = binary.AppendVarint(w.buf, x)
	}
}

func (w *tableSink) raw(s string) {
	if w.counting {
		w.n += len(s)
	} else {
		w.buf = append(w.buf, s...)
	}
}

func (w *tableSink) str(s string) {
	w.uvarint(uint64(len(s)))
	w.raw(s)
}

func (w *tableSink) row(vals []sqlval.Value) {
	if w.counting {
		w.n += sqlval.EncodedRowLen(vals)
	} else {
		w.buf = sqlval.EncodeRow(w.buf, vals)
	}
}

// encodeTable renders the table as seen by snap (caller holds t.mu at least
// shared, so no version appears, vanishes or changes class between the
// passes; prov_usedby, which lineage reads stamp under the shared lock, is
// the one field that can — a stamp that grows a byte between the passes
// makes the final append reallocate, nothing worse).
func encodeTable(t *Table, snap snapshot, horizon uint64) []byte {
	class := make([]uint8, len(t.rows))
	var nlive, ndead uint64
	for i, r := range t.rows {
		if snap.visible(r) {
			class[i] = rowLive
			nlive++
			continue
		}
		if r.end == 0 {
			continue
		}
		if _, open := snap.active[r.txnID]; open {
			continue // uncommitted insert: its record sits beyond the WAL cut
		}
		if _, open := snap.active[r.endTxn]; open {
			continue // end mark not committed (classed live above)
		}
		class[i] = rowDead
		ndead++
	}
	size := tableSink{counting: true}
	writeTable(&size, t, class, nlive, ndead, horizon)
	out := tableSink{buf: make([]byte, 0, size.n)}
	writeTable(&out, t, class, nlive, ndead, horizon)
	return out.buf
}

func writeTable(w *tableSink, t *Table, class []uint8, nlive, ndead, horizon uint64) {
	w.raw(tableFileMagic)
	w.str(t.Name)
	w.uvarint(uint64(len(t.Schema.Columns)))
	for _, c := range t.Schema.Columns {
		w.str(c.Name)
		pk := byte(0)
		if c.PrimaryKey {
			pk = 1
		}
		w.bytes(byte(c.Type), pk)
	}
	w.uvarint(nlive)
	for i, r := range t.rows {
		if class[i] != rowLive {
			continue
		}
		w.uvarint(uint64(r.id))
		w.uvarint(r.version)
		w.str(r.proc)
		w.varint(r.stmt)
		w.varint(r.usedBy.Load())
		w.row(r.vals)
	}
	// Secondary-index definitions follow the rows. Older table files end
	// here; decodeTable treats the section as optional.
	idxs := t.indexList()
	w.uvarint(uint64(len(idxs)))
	for _, ix := range idxs {
		w.str(ix.name)
		w.str(ix.column)
		w.str(ix.kind)
	}
	// Time-travel section (also optional on decode): committed dead versions
	// — the history AS OF and reenactment read — and the retention horizon.
	// Without it a checkpoint would silently vacuum everything it supersedes
	// in the WAL.
	w.uvarint(ndead)
	for i, r := range t.rows {
		if class[i] != rowDead {
			continue
		}
		w.uvarint(uint64(r.id))
		w.uvarint(r.version)
		w.uvarint(r.end)
		w.str(r.proc)
		w.varint(r.stmt)
		w.row(r.vals)
	}
	w.uvarint(horizon)
}

// tableSource is the decoder's cursor over a table file: the bytes, a
// string image of them (so names and TEXT values are substrings of one
// allocation) and the first error, after which every read returns zero.
type tableSource struct {
	b    []byte
	text string
	off  int
	err  error
}

func (s *tableSource) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func (s *tableSource) rest() int { return len(s.b) - s.off }

func (s *tableSource) uvarint(what string) uint64 {
	if s.err != nil {
		return 0
	}
	x, n := binary.Uvarint(s.b[s.off:])
	if n <= 0 {
		s.fail("bad %s", what)
		return 0
	}
	s.off += n
	return x
}

func (s *tableSource) varint(what string) int64 {
	if s.err != nil {
		return 0
	}
	x, n := binary.Varint(s.b[s.off:])
	if n <= 0 {
		s.fail("bad %s", what)
		return 0
	}
	s.off += n
	return x
}

func (s *tableSource) str(what string) string {
	l := s.uvarint(what)
	if s.err != nil {
		return ""
	}
	if l > uint64(s.rest()) {
		s.fail("bad %s", what)
		return ""
	}
	str := s.text[s.off : s.off+int(l)]
	s.off += int(l)
	return str
}

// count reads an element count and checks it against the bytes left, every
// element taking at least min of them — before anything is sized from it.
func (s *tableSource) count(what string, min int) int {
	n := s.uvarint(what)
	if s.err == nil && n > uint64(s.rest()/min) {
		s.fail("%s %d exceeds the %d bytes remaining", what, n, s.rest())
	}
	if s.err != nil {
		return 0
	}
	return int(n)
}

// tableImage is a decoded table file: the table, not yet published, and
// what the database must move past to host it.
type tableImage struct {
	t       *Table
	maxRow  RowID
	maxTS   uint64 // newest begin or end stamp of any version
	horizon uint64
}

// decodeTable reads a table file. It is outside input (a data directory, a
// snapshot off the network): every count is checked against the bytes
// remaining before memory is sized from it, every version passes the row
// check an INSERT passes (admitRow: arity, column kinds, primary key), and
// trailing bytes are an error. Versions and values come from the bulk
// loader's slabs and every string is a substring of one copy of data — see
// rowLoader for what that keeps alive.
func decodeTable(data []byte) (tableImage, error) {
	if len(data) < len(tableFileMagic) || string(data[:len(tableFileMagic)]) != tableFileMagic {
		return tableImage{}, fmt.Errorf("bad table file magic")
	}
	s := &tableSource{b: data, text: string(data), off: len(tableFileMagic)}
	// The names outlive every row of the load; they get their own bytes.
	name := strings.Clone(s.str("table name"))
	ncols := s.count("column count", 3)
	schema := Schema{Columns: make([]Column, 0, ncols)}
	for i := 0; i < ncols && s.err == nil; i++ {
		cname := strings.Clone(s.str("column name"))
		if s.rest() < 2 {
			s.fail("truncated column def")
			break
		}
		schema.Columns = append(schema.Columns, Column{
			Name: cname, Type: sqlval.Kind(s.b[s.off]), PrimaryKey: s.b[s.off+1] == 1,
		})
		s.off += 2
	}
	if s.err != nil {
		return tableImage{}, s.err
	}
	img := tableImage{t: newTable(name, schema)}
	if err := img.loadRows(s, false); err != nil {
		return tableImage{}, err
	}
	// Optional trailing section: secondary-index definitions (absent in
	// table files written before indexes existed). They are installed after
	// the last row is in, so the loader feeds no index row by row.
	var idxs []*tableIndex
	if s.rest() > 0 {
		for n := s.count("index count", 3); n > 0 && s.err == nil; n-- {
			iname, icol, ikind := s.str("index name"), s.str("index column"), s.str("index kind")
			pos := schema.ColumnIndex(icol)
			if s.err == nil && pos < 0 {
				s.fail("index %q: no column %q", iname, icol)
			}
			idxs = append(idxs, newTableIndex(strings.Clone(iname), strings.Clone(icol), pos, strings.Clone(ikind)))
		}
	}
	// Optional time-travel section: committed dead versions and the
	// retention horizon (absent in files written before vacuum existed).
	if s.err == nil && s.rest() > 0 {
		if err := img.loadRows(s, true); err != nil {
			return tableImage{}, err
		}
		img.horizon = s.uvarint("retention horizon")
		if s.err == nil && s.rest() != 0 {
			s.fail("table file: %d trailing bytes", s.rest())
		}
	}
	if s.err != nil {
		return tableImage{}, s.err
	}
	// Index contents are derived last so they cover the dead versions too.
	for _, ix := range idxs {
		ix.rebuild(img.t.rows)
		img.t.addIndex(ix)
	}
	return img, nil
}

// loadRows reads one row section — the live rows, or the dead versions with
// their end stamps — through the bulk loader.
func (img *tableImage) loadRows(s *tableSource, dead bool) error {
	t := img.t
	n := s.count("row count", minRowBytes(len(t.Schema.Columns)))
	if s.err != nil {
		return s.err
	}
	live := n
	if dead {
		live = 0
	}
	ld := t.newRowLoader(n, live)
	defer ld.finish()
	for i := 0; i < n; i++ {
		r := ld.next()
		r.id = RowID(s.uvarint("row id"))
		r.version = s.uvarint("row version")
		if dead {
			if r.end = s.uvarint("row end"); r.end == 0 && s.err == nil {
				s.fail("dead version %d@%d has no end stamp", r.id, r.version)
			}
		}
		r.proc = s.str("row proc")
		r.stmt = s.varint("row stmt")
		if !dead {
			r.usedBy.Store(s.varint("row usedBy"))
		}
		if s.err != nil {
			return s.err
		}
		var used int
		var err error
		if ld.vals, used, err = sqlval.AppendDecodeRow(ld.vals, s.b[s.off:], s.text[s.off:]); err != nil {
			return err
		}
		s.off += used
		if err := ld.add(r); err != nil {
			return err
		}
	}
	img.maxRow = max(img.maxRow, ld.maxRow)
	img.maxTS = max(img.maxTS, ld.maxTS)
	return nil
}

// CreateTableFromSchema programmatically creates a table (bulk-load path).
// Like SQL DDL it is WAL-logged when a log is attached; the rows bulk
// loaders then push through InsertRowDirect/RestoreRows are not — those
// paths bypass transactions entirely, and callers that need them durable
// must Checkpoint afterwards (as the machine harness does).
func (db *DB) CreateTableFromSchema(name string, schema Schema) error {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	if _, exists := db.tables[name]; exists {
		db.mu.Unlock()
		return fmt.Errorf("table %q already exists", name)
	}
	db.tables[name] = newTable(name, schema)
	db.mu.Unlock()
	if _, err := db.logDDL(redoEntry{kind: walCreate, table: name, schema: schema}); err != nil {
		db.mu.Lock()
		delete(db.tables, name)
		db.mu.Unlock()
		return err
	}
	return nil
}
