// Package wire implements the binary client/server protocol of the LDV
// database — the libpq analog. Messages are framed as a one-byte type tag
// plus a big-endian uint32 payload length. The protocol carries, besides
// ordinary result rows, a statement's provenance — the tuple versions it
// read, with their values, and each result row's lineage as positions among
// them — so that an instrumented client can audit DB provenance without extra
// round trips.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"ldv/internal/bin"
	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/sqlval"
)

// Message type tags.
const (
	TagStartup         = 'S'
	TagQuery           = 'Q'
	TagRowDescription  = 'R'
	TagDataRow         = 'D'
	TagProvenance      = 'v'
	TagCommandComplete = 'C'
	TagError           = 'E'
	TagReady           = 'Z'
	TagTerminate       = 'X'
	TagSubscribe       = 'U'
	TagSnapshotChunk   = 'K'
	TagWALSegment      = 'W'
	TagReplicaStatus   = 's'
	TagParse           = 'P'
	TagParseComplete   = 'p'
	TagBind            = 'B'
	TagExecute         = 'e'
	TagCloseStmt       = 'x'
)

// Tags lists every message tag the protocol defines, in declaration order.
// Metric registration and the tag-coverage test iterate this so a new tag
// cannot ship without a name and per-kind counters.
func Tags() []byte {
	return []byte{
		TagStartup, TagQuery, TagRowDescription, TagDataRow, TagProvenance,
		TagCommandComplete, TagError, TagReady, TagTerminate,
		TagSubscribe, TagSnapshotChunk, TagWALSegment, TagReplicaStatus,
		TagParse, TagParseComplete, TagBind, TagExecute, TagCloseStmt,
	}
}

// TagName returns the human-readable message kind for a tag byte (used for
// per-kind metric names); unknown tags map to "unknown".
func TagName(tag byte) string {
	switch tag {
	case TagStartup:
		return "Startup"
	case TagQuery:
		return "Query"
	case TagRowDescription:
		return "RowDescription"
	case TagDataRow:
		return "DataRow"
	case TagProvenance:
		return "Provenance"
	case TagCommandComplete:
		return "CommandComplete"
	case TagError:
		return "Error"
	case TagReady:
		return "Ready"
	case TagTerminate:
		return "Terminate"
	case TagSubscribe:
		return "Subscribe"
	case TagSnapshotChunk:
		return "SnapshotChunk"
	case TagWALSegment:
		return "WALSegment"
	case TagReplicaStatus:
		return "ReplicaStatus"
	case TagParse:
		return "Parse"
	case TagParseComplete:
		return "ParseComplete"
	case TagBind:
		return "Bind"
	case TagExecute:
		return "Execute"
	case TagCloseStmt:
		return "CloseStmt"
	default:
		return "unknown"
	}
}

// MaxMessageSize bounds a single frame (64 MiB) to protect against
// corrupted length prefixes.
const MaxMessageSize = 64 << 20

// Message is any protocol message. A message's payload is its fields in
// declaration order, every one of them always present, and a decoder
// requires the payload to end after the last one (PROTOCOL.md).
type Message interface{ tag() byte }

// Startup opens a session, announcing the client process identity (used as
// prov_p on the server) and target database name.
type Startup struct {
	Proc     string
	Database string
}

// Query asks the server to execute one SQL statement. WithLineage requests
// Lineage computation even without the PROVENANCE keyword — the switch the
// LDV audit interceptor flips. Trace is the statement's trace context: when
// non-zero, server-side spans for this statement join the client's trace.
// MinApplied, when non-zero, is the read-your-writes bound for queries sent
// to a read replica: the server delays execution until its database has
// applied at least that WAL record sequence. AsOf, when non-zero, pins the
// statement to the historical snapshot at that logical tick (time travel)
// unless the SQL carries its own AS OF clause.
type Query struct {
	WithLineage bool
	SQL         string
	Trace       obs.SpanContext
	MinApplied  uint64
	AsOf        uint64
}

// RowDescription announces result columns.
type RowDescription struct{ Columns []string }

// DataRow carries one result row.
type DataRow struct{ Values []sqlval.Value }

// Provenance carries a statement's provenance, at most once per response
// group and after its rows. Versions is the statement's read set — the
// versions its Lineage names, or those a DML statement read; the inline
// provenance tuples a Perm PROVENANCE query returns — as the versions' refs
// in set order, then each version's values as their EncodeRow image.
// Lineage holds, for a query run with lineage, one list per result row of
// the positions in Versions of the versions the row depends on; it is empty
// otherwise. A reader checks each image as sqlval.SkipRow does and keeps it
// encoded: the set it decodes is an engine.NewEncodedVersionSet over the
// frame's own bytes.
type Provenance struct {
	Versions engine.VersionSet
	Lineage  [][]int32
}

// CommandComplete ends a successful statement, reporting DML counts,
// statement identity and kind, its logical-time interval, and the tuple
// versions the statement wrote (what it read is its Provenance frame).
// CommitSeq is the WAL record sequence the statement's commit occupies on
// the primary (0 when nothing was logged); clients feed it back as
// Query.MinApplied for read-your-writes on replicas.
type CommandComplete struct {
	RowsAffected int
	StmtID       int64
	Kind         engine.StmtKind
	Start, End   uint64
	WrittenRefs  []engine.TupleRef
	CommitSeq    uint64
	// Fingerprint is the statement's normalized-text hash in hex — the join
	// key against the ldv_stat_statements system view.
	Fingerprint string
	// Tag echoes Execute.Tag so a pipelining client can match each response
	// group to the Execute that caused it; 0 answers a Query.
	Tag uint64
}

// Error reports a failed statement; the session stays usable.
type Error struct{ Message string }

// Ready signals the server awaits the next query. InTxn reports whether the
// session currently holds an open transaction, letting clients track
// transaction state (and errors clear it) without parsing SQL.
type Ready struct {
	InTxn bool
}

// Terminate closes the session.
type Terminate struct{}

// Subscribe converts the session into a replication subscription: the
// server responds with a snapshot (SnapshotChunk stream) followed by an
// endless WALSegment stream, and reads only ReplicaStatus (and Terminate)
// from then on. ReplicaID names the replica for status pages and metrics.
type Subscribe struct{ ReplicaID string }

// SnapshotChunk carries one table of the bootstrap snapshot in the
// checkpoint table-file format. The final chunk of a snapshot has Done set
// and no table payload; its CutSeq is the WAL record sequence the snapshot
// cuts the log at — the subscription's WALSegment stream continues from
// CutSeq+1 and every earlier record is already contained in the snapshot.
type SnapshotChunk struct {
	Table  string
	Done   bool
	CutSeq uint64
	Data   []byte
}

// WALSegment ships one flushed group-commit batch: Records holds the raw
// WAL record payloads of consecutive sequences starting at FirstSeq.
// PrimaryTS is the primary's logical clock at ship time, letting the
// replica compute its lag in ticks. An empty Records slice is a heartbeat
// (FirstSeq is then the next sequence the primary would ship).
type WALSegment struct {
	FirstSeq  uint64
	PrimaryTS uint64
	Records   [][]byte
}

// ReplicaStatus flows replica→primary on the subscription connection,
// acknowledging the applied-through position; the primary turns it into
// repl.lag_records / repl.lag_ticks gauges.
type ReplicaStatus struct {
	ID         string
	AppliedSeq uint64
	AppliedTS  uint64
}

// Parse asks the server to prepare the statement SQL under the
// client-chosen Name, parsing it once and registering it for later Bind /
// Execute. Positional `?` placeholders become parameters. Re-parsing an
// existing name replaces it. The server answers ParseComplete (or Error)
// followed by Ready.
type Parse struct {
	Name string
	SQL  string
}

// ParseComplete acknowledges a Parse, echoing the statement name and
// reporting how many `?` parameters the statement wants plus its normalized
// fingerprint (the plan-cache and ldv_stat_prepared join key).
type ParseComplete struct {
	Name        string
	NumParams   int
	Fingerprint string
}

// Bind supplies parameter values for a prepared statement's next Execute.
// Fire-and-forget: the server stores the values without responding, so a
// pipelining client can stream Bind/Execute pairs without intervening round
// trips. Binding errors (unknown statement, arity mismatch) surface on the
// Execute.
type Bind struct {
	Stmt string
	Args []sqlval.Value
}

// Execute runs a prepared statement with its most recently bound
// parameters, producing exactly one response group — the same
// RowDescription/DataRow/.../CommandComplete/Ready sequence a Query yields,
// or Error/Ready. Tag is a client-chosen correlation id echoed in
// CommandComplete.Tag so pipelined responses can be matched in order.
// WithLineage, Trace and MinApplied mean what they do on Query.
type Execute struct {
	Stmt        string
	Tag         uint64
	WithLineage bool
	Trace       obs.SpanContext
	MinApplied  uint64
}

// CloseStmt discards a prepared statement. Fire-and-forget; closing an
// unknown name is a no-op.
type CloseStmt struct {
	Name string
}

func (Startup) tag() byte         { return TagStartup }
func (Query) tag() byte           { return TagQuery }
func (RowDescription) tag() byte  { return TagRowDescription }
func (DataRow) tag() byte         { return TagDataRow }
func (Provenance) tag() byte      { return TagProvenance }
func (CommandComplete) tag() byte { return TagCommandComplete }
func (Error) tag() byte           { return TagError }
func (Ready) tag() byte           { return TagReady }
func (Terminate) tag() byte       { return TagTerminate }
func (Subscribe) tag() byte       { return TagSubscribe }
func (SnapshotChunk) tag() byte   { return TagSnapshotChunk }
func (WALSegment) tag() byte      { return TagWALSegment }
func (ReplicaStatus) tag() byte   { return TagReplicaStatus }
func (Parse) tag() byte           { return TagParse }
func (ParseComplete) tag() byte   { return TagParseComplete }
func (Bind) tag() byte            { return TagBind }
func (Execute) tag() byte         { return TagExecute }
func (CloseStmt) tag() byte       { return TagCloseStmt }

// headerLen is a frame header's size: the tag byte, then the payload's
// length as a big-endian uint32.
const headerLen = 5

// Write sends one message: its frame, encoded into a buffer of exactly its
// size, in one write.
func Write(w io.Writer, m Message) error {
	b := appendFrame(make([]byte, 0, headerLen+payloadLen(m)), m.tag(), func(b []byte) []byte {
		return appendPayload(b, m)
	})
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire write: %w", err)
	}
	recordOut(m.tag(), 1, len(b))
	return nil
}

// payloadLen returns the length of m's payload, from a counting pass over
// the one description of it, writePayload.
func payloadLen(m Message) int {
	return bin.Size(func(w *bin.Writer) { writePayload(w, m) })
}

// appendPayload appends m's payload to b.
func appendPayload(b []byte, m Message) []byte {
	return bin.AppendTo(b, func(w *bin.Writer) { writePayload(w, m) })
}

// appendFrame appends a frame of the given tag to b: its header, the
// payload that payload appends, and the payload's length patched into the
// header once it is known.
func appendFrame(b []byte, tag byte, payload func([]byte) []byte) []byte {
	at := len(b)
	b = payload(append(b, tag, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(b[at+1:], uint32(len(b)-at-headerLen))
	return b
}

// Read receives one message.
func Read(r io.Reader) (Message, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err
	}
	size, err := payloadSize(header)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire read payload: %w", err)
	}
	return decode(header[0], payload)
}

// payloadSize returns the payload length a frame header announces, refusing
// one beyond MaxMessageSize.
func payloadSize(header [headerLen]byte) (int, error) {
	size := binary.BigEndian.Uint32(header[1:])
	if size > MaxMessageSize {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	return int(size), nil
}

// decode decodes one frame's payload and counts the frame as read.
func decode(tag byte, payload []byte) (Message, error) {
	m, err := decodePayload(tag, payload)
	if err == nil {
		recordIn(tag, 1, headerLen+len(payload))
	}
	return m, err
}

// writePayload is the one description of every kind's payload: its fields
// in declaration order, each always present. A counting bin.Writer sizes a
// frame with it, a writing one encodes the frame.
func writePayload(w *bin.Writer, m Message) {
	switch v := m.(type) {
	case Startup:
		w.Str(v.Proc)
		w.Str(v.Database)
	case Query:
		w.Bool(v.WithLineage)
		w.Str(v.SQL)
		writeSpanContext(w, v.Trace)
		w.Uvarint(v.MinApplied)
		w.Uvarint(v.AsOf)
	case RowDescription:
		w.Uvarint(uint64(len(v.Columns)))
		for _, c := range v.Columns {
			w.Str(c)
		}
	case DataRow:
		sqlval.WriteRow(w, v.Values)
	case Provenance:
		refs := v.Versions.Refs()
		writeRefs(w, refs)
		for i := range refs {
			w.Append(func() int { return v.Versions.RowLen(i) },
				func(b []byte) []byte { return v.Versions.AppendRow(b, i) })
		}
		w.Uvarint(uint64(len(v.Lineage)))
		for _, list := range v.Lineage {
			w.Uvarint(uint64(len(list)))
			for _, pos := range list {
				w.Uvarint(uint64(pos))
			}
		}
	case CommandComplete:
		w.Varint(int64(v.RowsAffected))
		w.Varint(v.StmtID)
		w.Byte(byte(v.Kind))
		w.Uvarint(v.Start)
		w.Uvarint(v.End)
		writeRefs(w, v.WrittenRefs)
		w.Uvarint(v.CommitSeq)
		w.Str(v.Fingerprint)
		w.Uvarint(v.Tag)
	case Error:
		w.Str(v.Message)
	case Ready:
		w.Bool(v.InTxn)
	case Subscribe:
		w.Str(v.ReplicaID)
	case SnapshotChunk:
		w.Str(v.Table)
		w.Bool(v.Done)
		w.Uvarint(v.CutSeq)
		w.Raw(v.Data)
	case WALSegment:
		w.Uvarint(v.FirstSeq)
		w.Uvarint(v.PrimaryTS)
		w.Uvarint(uint64(len(v.Records)))
		for _, rec := range v.Records {
			w.Raw(rec)
		}
	case ReplicaStatus:
		w.Str(v.ID)
		w.Uvarint(v.AppliedSeq)
		w.Uvarint(v.AppliedTS)
	case Parse:
		w.Str(v.Name)
		w.Str(v.SQL)
	case ParseComplete:
		w.Str(v.Name)
		w.Uvarint(uint64(v.NumParams))
		w.Str(v.Fingerprint)
	case Bind:
		w.Str(v.Stmt)
		sqlval.WriteRow(w, v.Args)
	case Execute:
		w.Str(v.Stmt)
		w.Uvarint(v.Tag)
		w.Bool(v.WithLineage)
		writeSpanContext(w, v.Trace)
		w.Uvarint(v.MinApplied)
	case CloseStmt:
		w.Str(v.Name)
	case Terminate:
	}
}

func decodePayload(tag byte, b []byte) (Message, error) {
	d := &decoder{Reader: *bin.NewReader(b)}
	var m Message
	switch tag {
	case TagStartup:
		m = Startup{Proc: d.Str(), Database: d.Str()}
	case TagQuery:
		m = Query{WithLineage: d.Bool(), SQL: d.Str(), Trace: d.spanContext(), MinApplied: d.Uvarint(), AsOf: d.Uvarint()}
	case TagRowDescription:
		m = RowDescription{Columns: d.strings("column")}
	case TagDataRow:
		m = DataRow{Values: sqlval.ReadRow(&d.Reader, nil)}
	case TagProvenance:
		versions := d.versions()
		m = Provenance{Versions: versions, Lineage: d.lineage(versions.Len())}
	case TagCommandComplete:
		cc := CommandComplete{
			RowsAffected: int(d.Varint()),
			StmtID:       d.Varint(),
			Kind:         engine.StmtKind(d.Byte()),
			Start:        d.Uvarint(),
			End:          d.Uvarint(),
			WrittenRefs:  d.refs(),
			CommitSeq:    d.Uvarint(),
			Fingerprint:  d.Str(),
			Tag:          d.Uvarint(),
		}
		if !cc.Kind.Valid() {
			d.Failf("statement kind %d out of range", cc.Kind)
		}
		m = cc
	case TagError:
		m = Error{Message: d.Str()}
	case TagReady:
		m = Ready{InTxn: d.Bool()}
	case TagSubscribe:
		m = Subscribe{ReplicaID: d.Str()}
	case TagSnapshotChunk:
		m = SnapshotChunk{Table: d.Str(), Done: d.Bool(), CutSeq: d.Uvarint(), Data: d.bytes()}
	case TagWALSegment:
		seg := WALSegment{FirstSeq: d.Uvarint(), PrimaryTS: d.Uvarint()}
		if n := d.Count("record", 1); n > 0 {
			seg.Records = bin.Make[[]byte](n, d.Len())
			for i := 0; i < n && d.Err() == nil; i++ {
				seg.Records = append(seg.Records, d.bytes())
			}
		}
		m = seg
	case TagReplicaStatus:
		m = ReplicaStatus{ID: d.Str(), AppliedSeq: d.Uvarint(), AppliedTS: d.Uvarint()}
	case TagParse:
		m = Parse{Name: d.Str(), SQL: d.Str()}
	case TagParseComplete:
		m = ParseComplete{Name: d.Str(), NumParams: int(d.Uvarint()), Fingerprint: d.Str()}
	case TagBind:
		m = Bind{Stmt: d.Str(), Args: sqlval.ReadRow(&d.Reader, nil)}
	case TagExecute:
		m = Execute{
			Stmt:        d.Str(),
			Tag:         d.Uvarint(),
			WithLineage: d.Bool(),
			Trace:       d.spanContext(),
			MinApplied:  d.Uvarint(),
		}
	case TagCloseStmt:
		m = CloseStmt{Name: d.Str()}
	case TagTerminate:
		m = Terminate{}
	default:
		return nil, fmt.Errorf("wire: unknown message tag %q", tag)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wire decode %q: %w", tag, err)
	}
	return m, nil
}

func writeRefs(w *bin.Writer, refs []engine.TupleRef) {
	w.Uvarint(uint64(len(refs)))
	for _, r := range refs {
		w.Str(r.Table)
		w.Uvarint(uint64(r.Row))
		w.Uvarint(r.Version)
	}
}

// decoder is a frame's cursor: the one bin.Reader every format decodes
// through, plus what only frames need — the decoding of refs and trace
// contexts, and a per-frame intern of the table names refs carry:
// tables[:ntables] are the names the frame's refs have used so far, so that
// a frame of n refs over k tables allocates k strings, not n. A statement
// reads a handful of tables; past the array's size names are simply not
// remembered.
type decoder struct {
	bin.Reader
	tables  [8]string
	ntables int
}

// bytes reads a length-prefixed byte run into a slice of its own (nil when
// the run is empty), so that a message keeps no frame buffer alive.
func (d *decoder) bytes() []byte { return append([]byte(nil), d.Raw()...) }

// strings reads a count of strings, then the strings.
func (d *decoder) strings(what string) []string {
	n := d.Count(what, 1)
	s := bin.Make[string](n, d.Len())
	for i := 0; i < n && d.Err() == nil; i++ {
		s = append(s, d.Str())
	}
	return s
}

// spanContextSize is the fixed wire size of a trace-context header: 16-byte
// trace ID plus big-endian 8-byte span ID.
const spanContextSize = 16 + 8

// writeSpanContext writes sc in its fixed 24-byte wire form.
func writeSpanContext(w *bin.Writer, sc obs.SpanContext) {
	var span [8]byte
	binary.BigEndian.PutUint64(span[:], sc.Span)
	w.Fixed(sc.Trace[:])
	w.Fixed(span[:])
}

func (d *decoder) spanContext() (sc obs.SpanContext) {
	if b := d.Fixed(spanContextSize); b != nil {
		copy(sc.Trace[:], b)
		sc.Span = binary.BigEndian.Uint64(b[16:])
	}
	return sc
}

func (d *decoder) refs() []engine.TupleRef {
	n := d.Count("ref", 3) // an empty table name, a row id and a version
	if n == 0 {
		return nil
	}
	refs := bin.Make[engine.TupleRef](n, d.Len())
	for i := 0; i < n && d.Err() == nil; i++ {
		refs = append(refs, engine.TupleRef{
			Table:   d.table(),
			Row:     engine.RowID(d.Uvarint()),
			Version: d.Uvarint(),
		})
	}
	return refs
}

// versions reads a version set: its refs, then one row image per ref, each
// checked but left encoded in the frame's buffer.
func (d *decoder) versions() engine.VersionSet {
	refs := d.refs()
	if len(refs) == 0 {
		return engine.VersionSet{}
	}
	b, _ := d.Rest()
	ends := make([]uint32, len(refs))
	off := 0
	for i := range ends {
		n, err := sqlval.SkipRow(b[off:])
		if err != nil {
			d.Failf("version %d: %w", i, err)
			return engine.VersionSet{}
		}
		off += n
		ends[i] = uint32(off)
	}
	set, err := engine.NewEncodedVersionSet(refs, d.Fixed(off), ends)
	if err != nil {
		d.Failf("%w", err)
	}
	return set
}

// lineage reads a count of position lists, each a count of positions below
// versions. The lists are cut from one array: every position takes a byte
// of the frame at least, so the bytes left bound them all.
func (d *decoder) lineage(versions int) [][]int32 {
	n := d.Count("lineage list", 1)
	if n == 0 {
		return nil
	}
	lists := bin.Make[[]int32](n, d.Len())
	var flat []int32
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Count("position", 1)
		if k > 0 && flat == nil {
			flat = bin.Make[int32](d.Len(), d.Len())
		}
		from := len(flat)
		for ; k > 0 && d.Err() == nil; k-- {
			pos := d.Uvarint()
			if pos >= uint64(versions) {
				d.Failf("lineage position %d beyond the %d versions", pos, versions)
			}
			flat = append(flat, int32(pos))
		}
		var list []int32
		if len(flat) > from {
			list = flat[from:len(flat):len(flat)]
		}
		lists = append(lists, list)
	}
	return lists
}

// table reads a ref's table name, reusing the string of an earlier ref of
// the frame that named the same table.
func (d *decoder) table() string {
	name := d.Raw()
	for _, t := range d.tables[:d.ntables] {
		if t == string(name) {
			return t
		}
	}
	t := string(name)
	if d.ntables < len(d.tables) {
		d.tables[d.ntables] = t
		d.ntables++
	}
	return t
}
