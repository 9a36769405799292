package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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

// FileSystem is the filesystem surface the engine needs to persist its data
// directory. Both the simulated OS filesystem and the real disk satisfy it;
// the DB server writes through the simulated one so that file-granularity
// packagers (PTU) observe real data files.
//
// Atomicity contract: WriteFile must replace the file's contents
// atomically with respect to crashes — after a failure mid-call, a reader
// sees either the complete old contents or the complete new contents,
// never a partial mix. (osim swaps an in-memory node; diskfs writes a
// temporary file and renames it over the target.) Crash recovery leans on
// this: checkpoint table files and the truncated WAL image are each
// all-or-nothing. AppendFile, the WAL's one write per group commit, may
// instead leave a prefix of its bytes at the file's tail after a crash;
// the WAL's record checksums detect and discard that torn tail. Remove
// retires a file: Checkpoint removes the table files of dropped tables —
// once the DROP's WAL record is truncated away a stale file would bring the
// table back at the next load — and stamps images that amend no table file
// any more.
type FileSystem interface {
	WriteFile(path string, data []byte) error
	AppendFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]string, error)
	MkdirAll(path string) error
	Remove(path string) error
}

const tableFileMagic = "LDVTBL2\n"

// in reports whether dir on fs is where the image was last written or read.
// (A FileSystem that cannot be compared is never the same one twice.)
func (im *fileImage) in(fs FileSystem, dir string) bool {
	return im.dir == dir && reflect.ValueOf(fs).Comparable() && im.fs == fs
}

// Checkpoint brings dir up to date with the database: every table whose
// <table>.tbl file there, amended by its <table>.stamps file if it has one, is
// not already the image the table equals (the sync rule, DESIGN.md "Value
// layout and table storage") is written, in name order, creating dir if
// needed — only its stamps image when the .tbl still holds everything but
// prov_usedby, else the table file, after which a .stamps beside it is
// retired. The checkpoint is a fresh snapshot's view: uncommitted writes of
// transactions open at the time are excluded. When a WAL is attached, a
// completed checkpoint also truncates the log records it supersedes; see the
// protocol notes below.
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
// untruncated log, which recovery resolves by idempotent replay. No log
// record carries a stamp: a stamps image is durable when its file is written.
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
		file, sfile := t.Name+".tbl", t.Name+".stamps"
		had, hadStamps := onDisk[file], onDisk[sfile]
		// What is left in onDisk at the end belongs to dropped tables, or is a
		// stamps image no table file here is amended by any more.
		delete(onDisk, file)
		if im := t.tblCurrent(); had && im != nil && im.in(fs, dir) {
			if im.stampsAt == t.stamps.Load() && (hadStamps || !im.hasStamps) {
				if im.hasStamps {
					delete(onDisk, sfile) // else it is stale: retired below
				}
				mCkptSkipped.Inc()
				continue
			}
			written, err := checkpointStamps(t, im, fs, path.Join(dir, sfile))
			if err != nil {
				return err
			}
			if written {
				delete(onDisk, sfile)
				continue
			}
		}
		t.mu.RLock()
		at, sat := t.mutations.Load(), t.stamps.Load() // before the horizon: see advanceHorizon
		data, whole := encodeTable(t, snap, db.vacuumHorizon.Load())
		t.mu.RUnlock()
		digest := binary.BigEndian.Uint64(data[len(data)-digestLen:])
		if hadStamps {
			removed, err := retireStampsFirst(fs, path.Join(dir, sfile), digest)
			if err != nil {
				return fmt.Errorf("checkpoint table %s: %w", t.Name, err)
			}
			if removed {
				delete(onDisk, sfile)
			}
		}
		if err := fs.WriteFile(path.Join(dir, file), data); err != nil {
			return fmt.Errorf("checkpoint table %s: %w", t.Name, err)
		}
		mCkptWritten.Inc()
		mCkptBytes.Add(int64(len(data)))
		if whole {
			t.image.Store(&fileImage{digest: digest, at: at, stampsAt: sat, fs: fs, dir: dir})
		}
	}
	// Retire table files whose tables were dropped — once the DROP's WAL
	// record is truncated below, a stale file would resurrect the table — and
	// stamps images that amend a table file no longer there, after the table
	// files that replace them.
	for _, n := range names {
		if (strings.HasSuffix(n, ".tbl") || strings.HasSuffix(n, ".stamps")) && onDisk[n] {
			if err := fs.Remove(path.Join(dir, n)); err != nil {
				return fmt.Errorf("checkpoint: retire %s: %w", n, err)
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

// checkpointStamps writes the stamps image of a table that still equals the
// .tbl image im but for its prov_usedby stamps, and reports false, writing
// nothing, when a change came in since the caller looked: the table file
// must be written.
func checkpointStamps(t *Table, im *fileImage, fs FileSystem, file string) (bool, error) {
	t.mu.RLock()
	at, sat := t.mutations.Load(), t.stamps.Load()
	var data []byte
	if at == im.at {
		data = encodeStamps(t, im.digest)
	}
	t.mu.RUnlock()
	if data == nil {
		return false, nil
	}
	if err := fs.WriteFile(file, data); err != nil {
		return false, fmt.Errorf("checkpoint table %s: %w", t.Name, err)
	}
	mCkptStamps.Inc()
	mCkptBytes.Add(int64(len(data)))
	t.image.Store(&fileImage{digest: im.digest, at: at, stampsAt: sat, hasStamps: true,
		stampsDigest: binary.BigEndian.Uint64(data[len(data)-digestLen:]), fs: fs, dir: im.dir})
	return true, nil
}

// retireStampsFirst removes, before the table file with the given digest is
// written, a stamps image that would amend it: one that names that digest
// (the .tbl it amended is being written again byte for byte, and the stamps
// the table holds are in it now), or one that does not decode. Any other
// stamps image amends the old .tbl, and is retired only after the new one is
// in place — a crash in between leaves the new file, which it does not name.
// removed reports that the file is gone.
func retireStampsFirst(fs FileSystem, file string, digest uint64) (removed bool, err error) {
	data, err := fs.ReadFile(file)
	if err != nil {
		return false, err
	}
	if st, err := decodeStamps(data); err == nil && st.tbl != digest {
		return false, nil
	}
	return true, fs.Remove(file)
}

// LoadDir brings the database up to date with dir: every <table>.tbl file
// there is read and its digest verified, with the <table>.stamps file beside
// it if there is one, and a file that is not the image its table already
// equals is decoded into a table that replaces any same-named one — with the
// stamps image applied when it names the table file's digest. A stamps image
// that names another digest is what a crash leaves between a table file's
// rewrite and its retirement, and is ignored; one whose own digest fails, or
// whose runs do not cover the table file's live versions, is refused. A file
// must hold the table it is named after.
func (db *DB) LoadDir(fs FileSystem, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("load data dir: %w", err)
	}
	stamped := map[string]bool{} // tables with a stamps file
	for _, n := range names {
		if tn, ok := strings.CutSuffix(n, ".stamps"); ok {
			stamped[tn] = true
		}
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
		var st *stampsImage
		if stamped[tn] {
			sn := tn + ".stamps"
			sdata, err := fs.ReadFile(path.Join(dir, sn))
			if err != nil {
				return fmt.Errorf("load stamps file %s: %w", sn, err)
			}
			img, err := decodeStamps(sdata)
			if err != nil {
				return fmt.Errorf("decode stamps file %s: %w", sn, err)
			}
			if img.tbl == digest {
				st = &img
			}
		}
		if t, _ := db.lookupTable(tn); t != nil {
			if im := t.current(); im != nil && im.digest == digest && im.hasStamps == (st != nil) && (st == nil || im.stampsDigest == st.digest) {
				kept := *im
				kept.fs, kept.dir = fs, dir
				t.image.Store(&kept)
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
		im := fileImage{digest: digest, fs: fs, dir: dir}
		if st != nil {
			if err := st.apply(img.t); err != nil {
				return fmt.Errorf("apply stamps file %s.stamps: %w", tn, err)
			}
			im.hasStamps, im.stampsDigest = true, st.digest
			mLoadStamps.Inc()
		}
		db.installTable(img)
		// The table equals its file unless the database is past the file's
		// horizon: encoded again it would carry the database's.
		if img.horizon == db.vacuumHorizon.Load() {
			im.at, im.stampsAt = img.t.mutations.Load(), img.t.stamps.Load()
			img.t.image.Store(&im)
		}
		maxTS = max(maxTS, img.maxTS)
	}
	// Advance the clock past every loaded stamp: dead versions carry end
	// stamps, and a fresh clock behind them would read the ends as
	// still-in-the-future (the versions would look alive again).
	db.clock.AdvanceTo(maxTS)
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
func tableDigest(data []byte) (uint64, error) { return sealedDigest(data, tableFileMagic, "table") }

// sealedDigest checks the magic and the digest trailer of a file of the
// given kind, and returns the digest.
func sealedDigest(data []byte, magic, kind string) (uint64, error) {
	if len(data) < len(magic)+digestLen || string(data[:len(magic)]) != magic {
		return 0, fmt.Errorf("bad %s file magic", kind)
	}
	body := data[:len(data)-digestLen]
	digest := binary.BigEndian.Uint64(data[len(body):])
	if digest != digestOf(body) {
		return 0, fmt.Errorf("%s file digest mismatch: truncated or corrupt", kind)
	}
	return digest, nil
}

// The stamps-file format: the prov_usedby column of a table file's live
// section, kept beside it as <table>.stamps so that a checkpoint after
// lineage reads that changed nothing else writes it instead of the table
// file (the sync rule). Written by encodeStamps, read by decodeStamps:
//
//	magic "LDVSTM1\n"
//	table digest: 8 bytes, big-endian — the .tbl image it amends
//	nruns, nruns × (length, stamp)
//	digest: 8 bytes, big-endian, of every byte before them
//
// A run is a uvarint length ≥ 1 and a varint stamp, over the live records in
// file order; runs are maximal (no two neighbours share a stamp) and their
// lengths sum to the table file's nlive. A lineage read stamps its version
// set — the versions its result came from, not every version it examined —
// so a read that returned every live version leaves one run, and a
// selective one a run for each stretch of returned versions and each
// stretch between them: a file of many runs. The image replaces the whole
// column: a load applies it only over the table file it names, and ignores
// it over any other.

const stampsFileMagic = "LDVSTM1\n"

// stampRun is n consecutive live records stamped with one statement id.
type stampRun struct {
	n     uint64
	stamp int64
}

// stampsImage is a decoded stamps file.
type stampsImage struct {
	tbl    uint64 // digest of the table file it amends
	runs   []stampRun
	total  uint64 // live records the runs cover
	digest uint64 // its own
}

// liveStampRuns returns the prov_usedby column of t's live versions — those
// with no end mark, which in a table that equals its file are the file's
// live section, in its order — as maximal runs. Caller holds t.mu at least
// shared.
func liveStampRuns(t *Table) []stampRun {
	var runs []stampRun
	for _, r := range t.rows {
		if r.end != 0 {
			continue
		}
		if s := r.usedBy.Load(); len(runs) > 0 && runs[len(runs)-1].stamp == s {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, stampRun{n: 1, stamp: s})
		}
	}
	return runs
}

// encodeStamps renders the stamps image that amends the table file with
// digest tbl, which t equals but for its prov_usedby stamps (caller holds
// t.mu at least shared and has checked the mutation count under it).
func encodeStamps(t *Table, tbl uint64) []byte { return sealStamps(tbl, liveStampRuns(t)) }

func sealStamps(tbl uint64, runs []stampRun) []byte {
	return encodeSealed(func(w *bin.Writer) {
		w.Fixed([]byte(stampsFileMagic))
		w.Fixed(binary.BigEndian.AppendUint64(nil, tbl))
		w.Uvarint(uint64(len(runs)))
		for _, r := range runs {
			w.Uvarint(r.n)
			w.Varint(r.stamp)
		}
	})
}

// decodeStamps reads a stamps file — outside input, like a table file: the
// digest is verified first, the run count is checked against the bytes left
// before the runs are sized from it, a run is never empty nor a neighbour's
// stamp again, and trailing bytes are an error.
func decodeStamps(data []byte) (stampsImage, error) {
	digest, err := sealedDigest(data, stampsFileMagic, "stamps")
	if err != nil {
		return stampsImage{}, err
	}
	r := bin.NewReader(data[len(stampsFileMagic) : len(data)-digestLen])
	st := stampsImage{digest: digest}
	if b := r.Fixed(digestLen); b != nil {
		st.tbl = binary.BigEndian.Uint64(b)
	}
	n := r.Count("run", 2)
	st.runs = bin.Make[stampRun](n, r.Len())
	for i := 0; i < n && r.Err() == nil; i++ {
		run := stampRun{n: r.Uvarint(), stamp: r.Varint()}
		switch {
		case r.Err() != nil:
		case run.n == 0:
			r.Failf("run %d is empty", i)
		case run.n > math.MaxInt-st.total:
			r.Failf("run %d: the runs cover more records than a table holds", i)
		case i > 0 && st.runs[i-1].stamp == run.stamp:
			r.Failf("run %d has the stamp of the run before it", i)
		}
		st.total += run.n
		st.runs = append(st.runs, run)
	}
	return st, r.Done()
}

// apply sets the prov_usedby stamps of t, just decoded from the table file
// st names, from the runs: its live versions are that file's live section,
// in file order.
func (st *stampsImage) apply(t *Table) error {
	if live := uint64(t.liveRows.Load()); st.total != live {
		return fmt.Errorf("stamps cover %d live versions, the table file holds %d", st.total, live)
	}
	i, left := 0, uint64(0)
	for _, r := range t.rows {
		if r.end != 0 {
			continue
		}
		for left == 0 {
			left = st.runs[i].n
			i++
		}
		r.usedBy.Store(st.runs[i-1].stamp)
		left--
	}
	return nil
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
// the passes makes the final append reallocate, nothing worse, and the
// stamps counter the caller read before encoding leaves the table's stamps
// dirty). The image carries every live version's stamp, so it supersedes any
// stamps file beside the old one. The buffer is allocated once at its final
// size, so a checkpoint allocates the bytes it writes, the class array, and
// nothing else. whole reports that the image holds every stored version and
// every end mark: only then does the table equal it.
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
		if snap.active.has(r.txnID) {
			continue // uncommitted insert: its record sits beyond the WAL cut
		}
		if snap.active.has(r.endTxn) {
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
	// The primary key's index is the schema's, not a definition.
	idxs, declared := t.indexList(), 0
	for _, ix := range idxs {
		if !ix.implicit {
			declared++
		}
	}
	w.Uvarint(uint64(declared))
	for _, ix := range idxs {
		if !ix.implicit {
			writeIndexDef(w, ix.name, ix.column, ix.kind)
		}
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
	writeLiveHeader(w, id, version, proc, stmt, usedBy)
	sqlval.WriteRow(w, vals)
}

// writeLiveHeader writes a live-row record up to its values.
func writeLiveHeader(w *bin.Writer, id RowID, version uint64, proc string, stmt, usedBy int64) {
	writeVersion(w, id, version, nil, proc, stmt)
	w.Varint(usedBy)
}

// AppendLiveRecord appends to dst the live-row record a table file holds for
// a preloaded version — one no process or statement of the database's life
// produced and none has stamped — with the given row id, version and values.
func AppendLiveRecord(dst []byte, id RowID, version uint64, vals []sqlval.Value) []byte {
	return bin.AppendTo(dst, func(w *bin.Writer) { writeLiveRecord(w, id, version, "", 0, 0, vals) })
}

// AppendLiveHeader appends to dst AppendLiveRecord's record up to its
// values: a caller holding the values' EncodeRow image completes the record
// by appending the image. A server-included package's auditor builds each
// relevant version's record so, once, from the image the server sent.
func AppendLiveHeader(dst []byte, id RowID, version uint64) []byte {
	return bin.AppendTo(dst, func(w *bin.Writer) { writeLiveHeader(w, id, version, "", 0, 0) })
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
// kinds), every live one the primary-key rule (claimKeys, once the live
// versions are indexed), and trailing bytes are an error. Versions and values
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
	// The live versions are in: their keys are checked before reading on.
	img.t.rebuildIndexes() // the primary key's
	if err := img.t.claimKeys(nil, img.t.rows); err != nil {
		return tableImage{}, err
	}
	// Index definitions are installed after the last row is in, so the
	// loader feeds no secondary index row by row.
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
	live := len(img.t.rows)
	if err := img.loadRows(r, true); err != nil {
		return tableImage{}, err
	}
	img.horizon = r.Uvarint()
	if err := r.Done(); err != nil {
		return tableImage{}, err
	}
	// Index contents are derived last so they cover the dead versions too.
	for _, v := range img.t.rows[live:] {
		img.t.indexInsert(v) // the primary key's
	}
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
	ld := t.newRowLoader(n, room)
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
