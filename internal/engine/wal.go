package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"sync"
	"time"

	"ldv/internal/bin"
	"ldv/internal/sqlval"
)

// Write-ahead logging. Every committed transaction appends one
// length-prefixed, CRC-checksummed record to <dir>/wal.log *before* the
// commit is acknowledged, so a crash between checkpoints loses nothing that
// a client was told succeeded. Records hold logical redo entries — the tuple
// versions a transaction produced and the end marks it placed — which
// Recover replays idempotently over the latest checkpoint.
//
// Commit durability uses group commit: the first committer of a quiet
// period becomes the flusher and writes every record that accumulated while
// the previous flush was in flight as one append (the fsync-equivalent unit
// on the FileSystem interface), so N concurrent sessions share O(1) flushes
// instead of paying one each.
//
// A failed flush is sticky: the log's on-disk state is unknown (a torn
// record may sit at the tail, and anything appended after it would be
// unreachable to recovery), so the WAL refuses all further appends until a
// restart re-opens it and truncates the tail. Commits in the failed batch
// roll back and report the error — exactly the "not acknowledged" outcome
// the crash matrix asserts on.

// WALFileName is the log's file name inside the data directory.
const WALFileName = "wal.log"

const walMagic = "LDVWAL1\n"

// walRecHeader is the per-record framing: a 4-byte little-endian payload
// length followed by a 4-byte CRC32 (IEEE) of the payload.
const walRecHeader = 8

// walMaxRecord bounds a record's declared payload size during decoding, so
// a corrupt length prefix cannot force a huge allocation.
const walMaxRecord = 1 << 28

// Redo entry kinds.
const (
	walInsert      byte = 1 // a produced tuple version
	walEnd         byte = 2 // an end mark (UPDATE's supersede or DELETE)
	walCreate      byte = 3 // CREATE TABLE
	walDrop        byte = 4 // DROP TABLE
	walCreateIndex byte = 5 // CREATE INDEX
	walDropIndex   byte = 6 // DROP INDEX
	walVacuum      byte = 7 // a vacuum pass's retention horizon
	walStmt        byte = 8 // one statement of a transaction's reenactment history
)

// redoEntry is one logical redo action. Insert entries capture the stored
// row's immutable fields at log time; end entries capture the end timestamp
// that was placed. walVacuum carries the pass's horizon in version. walStmt
// reuses the insert fields for a history statement: proc is the SQL text,
// table the statement kind, id the transaction's snapshot tick, version/end
// the statement's start/end ticks, stmt its row count, vals its bound
// parameters.
type redoEntry struct {
	kind    byte
	table   string
	id      RowID          // walInsert, walEnd, walStmt
	version uint64         // walInsert, walEnd, walStmt; walVacuum: the horizon
	end     uint64         // walEnd, walStmt: the end timestamp placed
	proc    string         // walInsert, walStmt
	stmt    int64          // walInsert, walStmt
	vals    []sqlval.Value // walInsert, walStmt
	schema  Schema         // walCreate
	idxName string         // walCreateIndex, walDropIndex
	idxCol  string         // walCreateIndex
	idxKind string         // walCreateIndex
}

// WAL is an append-only redo log over a FileSystem. It is safe for
// concurrent use; see the package comment above for the batching scheme.
type WAL struct {
	fs   FileSystem
	path string

	mu          sync.Mutex
	notFlushing *sync.Cond
	cur         *walBatch
	flushing    bool
	size        int64 // flushed bytes, including the magic header
	failed      error // sticky flush failure

	// enqSeq numbers records as they enter a batch: the Nth record accepted
	// by this WAL instance has sequence N (1-based). Sequences are the
	// positions replication speaks in — a replica's applied-through point and
	// a snapshot's cut are both record sequences. They are process-local:
	// they restart from the scanned record count when the log is re-opened,
	// which is safe because a replica that reconnects re-bootstraps from a
	// fresh snapshot rather than resuming a position across primary restarts.
	enqSeq  uint64
	shipper func(firstSeq uint64, batch []byte)
}

// walBatch accumulates the records of one group-commit flush.
type walBatch struct {
	buf      []byte
	nrec     int
	firstSeq uint64 // sequence of the batch's first record
	done     chan struct{}
	err      error
}

// openWAL opens (or creates) the log file at dir/WALFileName, assuming its
// contents are exactly `data` (the valid prefix the caller just scanned).
func openWAL(fs FileSystem, dir string, data []byte) *WAL {
	w := &WAL{fs: fs, path: path.Join(dir, WALFileName), size: int64(len(data))}
	w.notFlushing = sync.NewCond(&w.mu)
	if len(data) > len(walMagic) {
		// Seed the record sequence past the records already in the log so
		// sequences keep rising within this process even across EnableWAL
		// re-opens of a non-empty log.
		w.enqSeq = uint64(len(SplitWALBatch(data[len(walMagic):])))
	}
	return w
}

// Size returns the flushed length of the log in bytes (magic included).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Seq returns the sequence number of the last record accepted for flushing.
// Captured under DB.commitMu held exclusively (when no commit can be between
// enqueue and acknowledgment), it is also the last *durable* sequence — the
// property ReplicationSnapshot's cut relies on.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enqSeq
}

// SetShipper installs a hook invoked after every successful flush with the
// batch's raw framed bytes and the sequence of its first record. Calls are
// serialized and arrive in sequence order. The hook runs with the WAL's
// internal lock held: it must be quick (hand the bytes to a queue) and must
// never call back into the WAL.
func (w *WAL) SetShipper(fn func(firstSeq uint64, batch []byte)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shipper = fn
}

// Commit appends one framed record for the payload and returns once the
// batch containing it has been flushed — the durability point. The returned
// sequence number is the record's position in the log's logical record
// stream (replication's coordinate system); it is 0 only on error.
func (w *WAL) Commit(payload []byte) (uint64, error) {
	rec := make([]byte, 0, walRecHeader+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)

	w.mu.Lock()
	if w.failed != nil {
		w.mu.Unlock()
		return 0, w.failed
	}
	w.enqSeq++
	seq := w.enqSeq
	if w.cur == nil {
		w.cur = &walBatch{done: make(chan struct{}), firstSeq: seq}
	}
	b := w.cur
	b.buf = append(b.buf, rec...)
	b.nrec++
	if !w.flushing {
		w.flushing = true
		w.mu.Unlock()
		w.flushLoop()
	} else {
		w.mu.Unlock()
	}
	<-b.done
	if b.err != nil {
		return 0, b.err
	}
	return seq, nil
}

// flushLoop drains pending batches. It is entered by the committer that
// found no flush in progress and exits when no batch is pending, waking
// anyone waiting for a quiet log (truncate).
func (w *WAL) flushLoop() {
	w.mu.Lock()
	for w.cur != nil && w.failed == nil {
		b := w.cur
		w.cur = nil
		w.mu.Unlock()

		t0 := time.Now()
		err := w.fs.AppendFile(w.path, b.buf)
		hWALFlush.Observe(time.Since(t0))
		mWALFlushes.Inc()

		w.mu.Lock()
		if err == nil {
			w.size += int64(len(b.buf))
			mWALAppends.Add(int64(b.nrec))
			mWALBytes.Add(int64(len(b.buf)))
			if w.shipper != nil {
				w.shipper(b.firstSeq, b.buf)
			}
		} else {
			w.failed = fmt.Errorf("wal flush: %w", err)
		}
		b.err = err
		close(b.done)
	}
	if b := w.cur; b != nil { // failed while batches kept arriving
		w.cur = nil
		b.err = w.failed
		close(b.done)
	}
	w.flushing = false
	w.notFlushing.Broadcast()
	w.mu.Unlock()
}

// truncateTo drops every byte before cut (an absolute offset captured while
// commits were excluded), keeping the magic header and the tail. Called by
// Checkpoint after the table files superseding those records are durable.
func (w *WAL) truncateTo(cut int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.notFlushing.Wait()
	}
	if w.failed != nil {
		return w.failed
	}
	if cut <= int64(len(walMagic)) {
		return nil // nothing before the cut but the header
	}
	data, err := w.fs.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("wal truncate: %w", err)
	}
	if cut > int64(len(data)) {
		cut = int64(len(data))
	}
	next := make([]byte, 0, len(walMagic)+len(data)-int(cut))
	next = append(next, walMagic...)
	next = append(next, data[cut:]...)
	if err := w.fs.WriteFile(w.path, next); err != nil {
		return fmt.Errorf("wal truncate: %w", err)
	}
	w.size = int64(len(next))
	mWALTruncations.Inc()
	return nil
}

// ---- record encoding ----

// encodeWALTxn serializes a committed transaction's redo entries into one
// record payload: varint txn id, entry count, then the entries — each a kind
// byte and a table name, then the kind's fields. Column definitions, index
// definitions and version headers are the table file's (persist.go).
func encodeWALTxn(txnID int64, redo []redoEntry) []byte {
	return bin.Encode(0, func(w *bin.Writer) {
		w.Varint(txnID)
		w.Uvarint(uint64(len(redo)))
		for i := range redo {
			e := &redo[i]
			w.Byte(e.kind)
			w.Str(e.table)
			switch e.kind {
			case walInsert:
				writeVersion(w, e.id, e.version, nil, e.proc, e.stmt)
				sqlval.WriteRow(w, e.vals)
			case walEnd:
				w.Uvarint(uint64(e.id))
				w.Uvarint(e.version)
				w.Uvarint(e.end)
			case walCreate:
				writeSchema(w, e.schema)
			case walCreateIndex:
				writeIndexDef(w, e.idxName, e.idxCol, e.idxKind)
			case walDropIndex:
				w.Str(e.idxName)
			case walVacuum:
				w.Uvarint(e.version)
			case walStmt:
				writeVersion(w, e.id, e.version, &e.end, e.proc, e.stmt)
				sqlval.WriteRow(w, e.vals)
			}
		}
	})
}

// decodeWALTxn parses one record payload. It is the inverse of
// encodeWALTxn and outside input — a replica decodes payloads straight off
// the network — so it must never panic on corrupt input (fuzzed) nor size
// memory from a count its bytes cannot back.
func decodeWALTxn(payload []byte) (int64, []redoEntry, error) {
	r := bin.NewReader(payload)
	txnID := r.Varint()
	n := r.Count("entry", 2) // a kind byte and an empty table name
	entries := bin.Make[redoEntry](n, r.Len())
	for i := 0; i < n && r.Err() == nil; i++ {
		e := redoEntry{kind: r.Byte(), table: r.Str()}
		switch e.kind {
		case walInsert:
			readVersion(r, &e.id, &e.version, nil, &e.proc, &e.stmt)
			e.vals = sqlval.ReadRow(r, nil)
		case walEnd:
			e.id, e.version, e.end = RowID(r.Uvarint()), r.Uvarint(), r.Uvarint()
		case walCreate:
			e.schema = readSchema(r)
		case walDrop:
		case walCreateIndex:
			e.idxName, e.idxCol, e.idxKind = readIndexDef(r)
		case walDropIndex:
			e.idxName = r.Str()
		case walVacuum:
			e.version = r.Uvarint()
		case walStmt:
			readVersion(r, &e.id, &e.version, &e.end, &e.proc, &e.stmt)
			e.vals = sqlval.ReadRow(r, nil)
		default:
			r.Failf("unknown entry kind %d", e.kind)
		}
		entries = append(entries, e)
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("wal record: %w", err)
	}
	return txnID, entries, nil
}

// walRecords walks the framed records at the front of b, calling fn (when
// not nil) with each payload that frames and checksums correctly, and
// returns the length of that valid prefix. The walk stops at the first
// record that does not: everything from there on is the un-acknowledged
// tail a crash may leave.
func walRecords(b []byte, fn func(payload []byte) error) (int, error) {
	off := 0
	for len(b)-off >= walRecHeader {
		l := binary.LittleEndian.Uint32(b[off:])
		if l > walMaxRecord || int(l) > len(b)-off-walRecHeader {
			break // torn tail: length prefix promises more than exists
		}
		payload := b[off+walRecHeader : off+walRecHeader+int(l)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[off+4:]) {
			break // torn tail: partially written payload
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += walRecHeader + int(l)
	}
	return off, nil
}

// SplitWALBatch splits a flushed group-commit batch (the bytes a shipper
// hook receives: concatenated framed records, no file magic) into the
// individual record payloads, one per committed transaction. A record that
// does not frame or checksum ends the walk — on shipper-produced input that
// never happens, but the decoder stays total for defense in depth.
func SplitWALBatch(batch []byte) [][]byte {
	var recs [][]byte
	walRecords(batch, func(payload []byte) error {
		recs = append(recs, payload)
		return nil
	})
	return recs
}

// scanWAL walks the framed records of a log image (walRecords after the
// magic) and returns the byte length of the valid prefix, magic included.
func scanWAL(data []byte, fn func(payload []byte) error) (int64, error) {
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		return 0, fmt.Errorf("bad wal magic")
	}
	n, err := walRecords(data[len(walMagic):], fn)
	return int64(len(walMagic) + n), err
}
