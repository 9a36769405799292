package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"reflect"
	"strings"
	"unsafe"

	"ldv/internal/bin"
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

const tableFileMagic = "LDVTBL2\n"

// in reports whether dir on fs is where the image was last written or read.
// (A FileSystem that cannot be compared is never the same one twice.)
func (im *fileImage) in(fs FileSystem, dir string) bool {
	return im.dir == dir && reflect.ValueOf(fs).Comparable() && im.fs == fs
}

// Checkpoint brings dir up to date with the database: every table whose
// <table>.tbl file there is not already the image the table equals (the sync
// rule, DESIGN.md "Value layout and table storage") is written, in name
// order, creating dir if needed. The checkpoint is a fresh snapshot's view:
// uncommitted writes of transactions open at the time are excluded. When a
// WAL is attached, a completed checkpoint also truncates the log records it
// supersedes; see the protocol notes below.
//
// Truncation protocol: commits hold commitMu shared across their WAL
// append and active-set removal, and Checkpoint holds it exclusively while
// it copies the catalog, takes its snapshot, and records the log offset
// (the cut). Every record before the cut therefore belongs to a
// transaction the snapshot sees — it is fully contained in the table files
// written below, or in the file a skipped table equals: a table is marked
// as equal to a file only if the image held every version it stored, so a
// table with a version the snapshot skipped (an open transaction's insert or
// end mark, whose commit bumps nothing) is written again — and every commit
// the snapshot misses sits at or after the cut, which truncateTo preserves.
// A crash anywhere in between leaves old and new table files mixed with an
// untruncated log, which recovery resolves by idempotent replay.
func (db *DB) Checkpoint(fs FileSystem, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	onDisk := make(map[string]bool, len(names))
	for _, n := range names {
		onDisk[n] = true
	}
	db.commitMu.Lock()
	tables := db.tableList()
	snap := db.takeSnapshot(0)
	wal := db.wal
	var cut int64
	if wal != nil {
		cut = wal.Size()
	}
	db.commitMu.Unlock()

	for _, t := range tables {
		file := t.Name + ".tbl"
		had := onDisk[file]
		delete(onDisk, file) // what is left at the end belongs to dropped tables
		if im := t.current(); had && im != nil && im.in(fs, dir) {
			mCkptSkipped.Inc()
			continue
		}
		t.mu.RLock()
		at := t.mutations.Load() // before the horizon: see advanceHorizon
		data, whole := encodeTable(t, snap, db.vacuumHorizon.Load())
		t.mu.RUnlock()
		if err := fs.WriteFile(path.Join(dir, file), data); err != nil {
			return fmt.Errorf("checkpoint table %s: %w", t.Name, err)
		}
		mCkptWritten.Inc()
		mCkptBytes.Add(int64(len(data)))
		if whole {
			t.image.Store(&fileImage{digest: binary.BigEndian.Uint64(data[len(data)-digestLen:]), at: at, fs: fs, dir: dir})
		}
	}
	// Retire table files whose tables were dropped: once the DROP's WAL
	// record is truncated below, a stale file would resurrect the table.
	if rm, ok := fs.(FileRemover); ok {
		for _, n := range names {
			if strings.HasSuffix(n, ".tbl") && onDisk[n] {
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

// LoadDir brings the database up to date with dir: every <table>.tbl file
// there is read and its digest verified, and a file that is not the image
// its table already equals is decoded into a table that replaces any
// same-named one. A file must hold the table it is named after.
func (db *DB) LoadDir(fs FileSystem, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("load data dir: %w", err)
	}
	var maxTS uint64
	for _, n := range names {
		tn, isTbl := strings.CutSuffix(n, ".tbl")
		if !isTbl {
			continue
		}
		data, err := fs.ReadFile(path.Join(dir, n))
		if err != nil {
			return fmt.Errorf("load table file %s: %w", n, err)
		}
		digest, err := tableDigest(data)
		if err != nil {
			return fmt.Errorf("decode table file %s: %w", n, err)
		}
		if t, _ := db.lookupTable(tn); t != nil {
			if im := t.current(); im != nil && im.digest == digest {
				t.image.Store(&fileImage{digest: digest, at: im.at, fs: fs, dir: dir})
				mLoadKept.Inc()
				continue
			}
		}
		img, err := decodeTableBody(data)
		if err != nil {
			return fmt.Errorf("decode table file %s: %w", n, err)
		}
		if img.t.Name != tn {
			return fmt.Errorf("table file %s holds table %q, not %q", n, img.t.Name, tn)
		}
		mLoadDecoded.Inc()
		db.installTable(img)
		// The table equals its file unless the database is past the file's
		// horizon: encoded again it would carry the database's.
		if img.horizon == db.vacuumHorizon.Load() {
			img.t.image.Store(&fileImage{digest: digest, at: img.t.mutations.Load(), fs: fs, dir: dir})
		}
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
	db.advanceHorizon(img.horizon)
	db.advanceNextRow(img.maxRow)
}

// The table-file format, written by encodeTable and EncodeTableFile (a
// server-included package's relevant subset) and read by decodeTable and by
// nothing else (checkpoint files, the replica bootstrap's snapshot cut):
//
//	magic "LDVTBL2\n"
//	name, ncols, ncols × (name, type byte, pk byte)
//	nlive, nlive × (id, version, proc, stmt, usedBy, values)
//	nidx,  nidx × (name, column, kind)
//	ndead, ndead × (id, version, end, proc, stmt, values), horizon
//	digest: 8 bytes, big-endian, of every byte before them
//
// Counts, ids and stamps are uvarints, stmt and usedBy varints, strings
// uvarint-length-prefixed (internal/bin), values a sqlval.EncodeRow image;
// the column, index and version pieces are the WAL record's. Every file has
// every section. The digest is CRC-32C in the high word and CRC-32/IEEE in
// the low one — two hardware-accelerated passes, 64 bits between them. It is
// what detects a torn or corrupted file, and it is the file's name in the
// sync rule: a table that is known to equal the image with this digest is
// neither decoded from it again nor written over it.

const digestLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

// tableDigest checks what can be checked of a table file without decoding it
// — the magic, and the trailer against the bytes before it — and returns the
// digest.
func tableDigest(data []byte) (uint64, error) {
	if len(data) < len(tableFileMagic)+digestLen || string(data[:len(tableFileMagic)]) != tableFileMagic {
		return 0, fmt.Errorf("bad table file magic")
	}
	body := data[:len(data)-digestLen]
	digest := binary.BigEndian.Uint64(data[len(body):])
	if digest != digestOf(body) {
		return 0, fmt.Errorf("table file digest mismatch: truncated or corrupt")
	}
	return digest, nil
}

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

// loadedRowBytes is about what a loaded version of ncols values takes in
// memory — its slab slot, its pointer in Table.rows, its values and a
// primary-key index slot: what the loader reserves per row a count claims.
func loadedRowBytes(ncols int) int {
	return int(unsafe.Sizeof(storedRow{})+unsafe.Sizeof(&storedRow{})) + 48 + ncols*int(unsafe.Sizeof(sqlval.Value{}))
}

// encodeTable renders the table as seen by snap (caller holds t.mu at least
// shared, so no version appears, vanishes or changes class between
// bin.Encode's passes; prov_usedby, which lineage reads stamp under the
// shared lock, is the one field that can — a stamp that grows a byte between
// the passes makes the final append reallocate, nothing worse). The buffer
// is allocated once at its final size, so a checkpoint allocates the bytes
// it writes, the class array, and nothing else. whole reports that the image
// holds every stored version and every end mark: only then does the table
// equal it.
func encodeTable(t *Table, snap snapshot, horizon uint64) (data []byte, whole bool) {
	class := make([]uint8, len(t.rows))
	var nlive, ndead uint64
	openEnd := false // a version written as live whose end mark is not committed yet
	for i, r := range t.rows {
		if snap.visible(r) {
			class[i] = rowLive
			nlive++
			openEnd = openEnd || r.end != 0
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
	data = encodeSealed(func(w *bin.Writer) { writeTable(w, t, class, nlive, ndead, horizon) })
	return data, !openEnd && nlive+ndead == uint64(len(t.rows))
}

// encodeSealed encodes a table file through write and appends its digest.
func encodeSealed(write func(w *bin.Writer)) []byte {
	data := bin.Encode(digestLen, write)
	return binary.BigEndian.AppendUint64(data, digestOf(data))
}

func writeTable(w *bin.Writer, t *Table, class []uint8, nlive, ndead, horizon uint64) {
	writeTableHead(w, t.Name, t.Schema)
	w.Uvarint(nlive)
	for i, r := range t.rows {
		if class[i] == rowLive {
			writeLiveRecord(w, r.id, r.version, r.proc, r.stmt, r.usedBy.Load(), r.vals)
		}
	}
	idxs := t.indexList()
	w.Uvarint(uint64(len(idxs)))
	for _, ix := range idxs {
		writeIndexDef(w, ix.name, ix.column, ix.kind)
	}
	// Time-travel section: committed dead versions — the history AS OF and
	// reenactment read — and the retention horizon. Without it a checkpoint
	// would silently vacuum everything it supersedes in the WAL.
	w.Uvarint(ndead)
	for i, r := range t.rows {
		if class[i] == rowDead {
			writeVersion(w, r.id, r.version, &r.end, r.proc, r.stmt)
			sqlval.WriteRow(w, r.vals)
		}
	}
	w.Uvarint(horizon)
}

func writeTableHead(w *bin.Writer, name string, schema Schema) {
	w.Fixed([]byte(tableFileMagic))
	w.Str(name)
	writeSchema(w, schema)
}

// writeLiveRecord writes one record of the live-row section: the version
// header, the prov_usedby stamp and the values.
func writeLiveRecord(w *bin.Writer, id RowID, version uint64, proc string, stmt, usedBy int64, vals []sqlval.Value) {
	writeVersion(w, id, version, nil, proc, stmt)
	w.Varint(usedBy)
	sqlval.WriteRow(w, vals)
}

// AppendLiveRecord appends to dst the live-row record a table file holds for
// a preloaded version — one no process or statement of the database's life
// produced and none has stamped — with the given row id, version and values.
// A server-included package's auditor encodes each relevant version so, once.
func AppendLiveRecord(dst []byte, id RowID, version uint64, vals []sqlval.Value) []byte {
	return bin.AppendTo(dst, func(w *bin.Writer) { writeLiveRecord(w, id, version, "", 0, 0, vals) })
}

// EncodeTableFile seals the table file of a table that holds only the live
// versions whose records (AppendLiveRecord's) are given, in that order: no
// index definitions, no history, horizon 0 — byte for byte the file
// Checkpoint writes for a fresh database into which those versions were
// restored in that order.
func EncodeTableFile(name string, schema Schema, records [][]byte) []byte {
	return encodeSealed(func(w *bin.Writer) {
		writeTableHead(w, name, schema)
		w.Uvarint(uint64(len(records)))
		for _, rec := range records {
			w.Fixed(rec)
		}
		w.Uvarint(0) // indexes
		w.Uvarint(0) // dead versions
		w.Uvarint(0) // horizon
	})
}

// The pieces a table file and a WAL record share. A snapshot chunk and a log
// record describe one state, so a column definition, an index definition
// and a version header are the same bytes in both, written and read here.
// Names outlive the record they are read from: they are clones, so a loaded
// table keeps no file image alive.

// writeSchema writes the column count, then each column's name, type byte
// and primary-key byte.
func writeSchema(w *bin.Writer, s Schema) {
	w.Uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		w.Str(c.Name)
		w.Byte(byte(c.Type))
		w.Bool(c.PrimaryKey)
	}
}

func readSchema(r *bin.Reader) Schema {
	n := r.Count("column", 3)
	s := Schema{Columns: bin.Make[Column](n, r.Len())}
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Columns = append(s.Columns, Column{Name: strings.Clone(r.Str()), Type: sqlval.Kind(r.Byte()), PrimaryKey: r.Bool()})
	}
	return s
}

func writeIndexDef(w *bin.Writer, name, column, kind string) {
	w.Str(name)
	w.Str(column)
	w.Str(kind)
}

func readIndexDef(r *bin.Reader) (name, column, kind string) {
	return strings.Clone(r.Str()), strings.Clone(r.Str()), strings.Clone(r.Str())
}

// writeVersion writes a version header: row id, begin stamp, the end stamp
// when end is not nil (dead versions, the statements of a transaction's
// history), producing process and statement.
func writeVersion(w *bin.Writer, id RowID, version uint64, end *uint64, proc string, stmt int64) {
	w.Uvarint(uint64(id))
	w.Uvarint(version)
	if end != nil {
		w.Uvarint(*end)
	}
	w.Str(proc)
	w.Varint(stmt)
}

func readVersion(r *bin.Reader, id *RowID, version, end *uint64, proc *string, stmt *int64) {
	*id = RowID(r.Uvarint())
	*version = r.Uvarint()
	if end != nil {
		*end = r.Uvarint()
	}
	*proc = r.Str()
	*stmt = r.Varint()
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
// snapshot off the network): the digest is verified first, every count is
// checked against the bytes remaining before memory is sized from it, every
// version passes the row check an INSERT passes (admitRow: arity, column
// kinds, primary key), and trailing bytes are an error. Versions and values
// come from the bulk loader's slabs and every string is a substring of one
// copy of data — see rowLoader for what that keeps alive.
func decodeTable(data []byte) (tableImage, error) {
	if _, err := tableDigest(data); err != nil {
		return tableImage{}, err
	}
	return decodeTableBody(data)
}

// decodeTableBody decodes a file tableDigest has accepted.
func decodeTableBody(data []byte) (tableImage, error) {
	r := bin.NewTextReader(data[:len(data)-digestLen])
	r.Fixed(len(tableFileMagic))
	name := strings.Clone(r.Str())
	schema := readSchema(r)
	if r.Err() != nil {
		return tableImage{}, r.Err()
	}
	img := tableImage{t: newTable(name, schema)}
	if err := img.loadRows(r, false); err != nil {
		return tableImage{}, err
	}
	// Index definitions are installed after the last row is in, so the
	// loader feeds no index row by row.
	var idxs []*tableIndex
	for n := r.Count("index", 3); n > 0 && r.Err() == nil; n-- {
		iname, icol, ikind := readIndexDef(r)
		pos := schema.ColumnIndex(icol)
		if pos < 0 {
			r.Failf("index %q: no column %q", iname, icol)
		}
		idxs = append(idxs, newTableIndex(iname, icol, pos, ikind))
	}
	if r.Err() != nil {
		return tableImage{}, r.Err()
	}
	if err := img.loadRows(r, true); err != nil {
		return tableImage{}, err
	}
	img.horizon = r.Uvarint()
	if err := r.Done(); err != nil {
		return tableImage{}, err
	}
	// Index contents are derived last so they cover the dead versions too.
	for _, ix := range idxs {
		ix.rebuild(img.t.rows)
		img.t.addIndex(ix)
	}
	return img, nil
}

// loadRows reads one row section — the live rows, or the dead versions with
// their end stamps — through the bulk loader, which is sized for as many
// rows as the bytes left can back (bin.Reserve) and grows if more decode.
func (img *tableImage) loadRows(r *bin.Reader, dead bool) error {
	t := img.t
	ncols := len(t.Schema.Columns)
	n := r.Count("row", minRowBytes(ncols))
	if r.Err() != nil {
		return r.Err()
	}
	room := bin.Reserve(n, loadedRowBytes(ncols), r.Len())
	live := room
	if dead {
		live = 0
	}
	ld := t.newRowLoader(n, room, live)
	defer ld.finish()
	for i := 0; i < n; i++ {
		v := ld.next()
		var end *uint64
		if dead {
			end = &v.end
		}
		readVersion(r, &v.id, &v.version, end, &v.proc, &v.stmt)
		if dead && v.end == 0 {
			r.Failf("dead version %d@%d has no end stamp", v.id, v.version)
		}
		if !dead {
			v.usedBy.Store(r.Varint())
		}
		ld.vals = sqlval.ReadRow(r, ld.vals)
		if r.Err() != nil {
			return r.Err()
		}
		if err := ld.add(v); err != nil {
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
