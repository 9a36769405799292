// Package wire implements the binary client/server protocol of the LDV
// database — the libpq analog. Messages are framed as a one-byte type tag
// plus a big-endian uint32 payload length. The protocol carries, besides
// ordinary result rows, per-row Lineage (tuple-version references) so that
// an instrumented client can audit DB provenance without extra round trips.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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
	TagLineageRow      = 'L'
	TagCommandComplete = 'C'
	TagTupleValues     = 'V'
	TagError           = 'E'
	TagReady           = 'Z'
	TagTerminate       = 'X'
	TagStats           = 'T'
	TagStatsResult     = 't'
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
		TagStartup, TagQuery, TagRowDescription, TagDataRow, TagLineageRow,
		TagCommandComplete, TagTupleValues, TagError, TagReady, TagTerminate,
		TagStats, TagStatsResult,
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
	case TagLineageRow:
		return "LineageRow"
	case TagCommandComplete:
		return "CommandComplete"
	case TagTupleValues:
		return "TupleValues"
	case TagError:
		return "Error"
	case TagReady:
		return "Ready"
	case TagTerminate:
		return "Terminate"
	case TagStats:
		return "Stats"
	case TagStatsResult:
		return "StatsResult"
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

// LineageRow carries the lineage of the immediately preceding DataRow.
type LineageRow struct{ Refs []engine.TupleRef }

// TupleValues carries the attribute values of provenance tuple versions
// referenced by the statement's Lineage or ReadRefs — the inline provenance
// tuples a Perm PROVENANCE query returns. Rows is parallel to Refs.
type TupleValues struct {
	Refs []engine.TupleRef
	Rows [][]sqlval.Value
}

// CommandComplete ends a successful statement, reporting DML counts,
// statement identity, its logical-time interval, and the tuple versions the
// statement read and wrote (reenactment provenance for updates).
// CommitSeq is the WAL record sequence the statement's commit occupies on
// the primary (0 when nothing was logged); clients feed it back as
// Query.MinApplied for read-your-writes on replicas.
type CommandComplete struct {
	RowsAffected int
	StmtID       int64
	Start, End   uint64
	ReadRefs     []engine.TupleRef
	WrittenRefs  []engine.TupleRef
	CommitSeq    uint64
	// Fingerprint is the statement's normalized-text hash in hex — the join
	// key against the ldv_stat_statements system view.
	Fingerprint string
	// Tag echoes Execute.Tag so a pipelining client can match each response
	// group to the Execute that caused it; 0 answers a Query.
	Tag uint64
}

// Stats request kinds: which observability document the server should
// return.
const (
	StatsKindMetrics byte = 0 // obs.Snapshot JSON
	StatsKindTraces  byte = 1 // flight-recorder traces JSON (obs.MarshalTraces)
)

// Stats asks the server for an observability document — a metadata request
// any wire client can issue (ldvsql's \stats, monitoring probes), analogous
// to PostgreSQL's pg_stat views but transported as a protocol message rather
// than a query. Kind selects the document (StatsKindMetrics or
// StatsKindTraces).
type Stats struct{ Kind byte }

// StatsResult carries the requested document serialized as JSON (an
// obs.Snapshot or a flight-recorder trace list). The payload is opaque to
// the wire layer so the protocol does not depend on the metric schema.
type StatsResult struct{ JSON []byte }

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
func (Stats) tag() byte           { return TagStats }
func (StatsResult) tag() byte     { return TagStatsResult }
func (Query) tag() byte           { return TagQuery }
func (RowDescription) tag() byte  { return TagRowDescription }
func (DataRow) tag() byte         { return TagDataRow }
func (LineageRow) tag() byte      { return TagLineageRow }
func (TupleValues) tag() byte     { return TagTupleValues }
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

// Write sends one message.
func Write(w io.Writer, m Message) error {
	payload := encodePayload(m)
	header := [5]byte{m.tag()}
	binary.BigEndian.PutUint32(header[1:], uint32(len(payload)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("wire write header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire write payload: %w", err)
		}
	}
	recordOut(m.tag(), len(header)+len(payload))
	return nil
}

// Read receives one message.
func Read(r io.Reader) (Message, error) {
	var header [5]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(header[1:])
	if size > MaxMessageSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire read payload: %w", err)
	}
	m, err := decodePayload(header[0], payload)
	if err == nil {
		recordIn(header[0], len(header)+len(payload))
	}
	return m, err
}

func encodePayload(m Message) []byte {
	var b []byte
	switch v := m.(type) {
	case Startup:
		b = bin.AppendString(b, v.Proc)
		b = bin.AppendString(b, v.Database)
	case Query:
		b = bin.AppendBool(b, v.WithLineage)
		b = bin.AppendString(b, v.SQL)
		b = appendSpanContext(b, v.Trace)
		b = binary.AppendUvarint(b, v.MinApplied)
		b = binary.AppendUvarint(b, v.AsOf)
	case RowDescription:
		b = binary.AppendUvarint(b, uint64(len(v.Columns)))
		for _, c := range v.Columns {
			b = bin.AppendString(b, c)
		}
	case DataRow:
		b = sqlval.EncodeRow(b, v.Values)
	case LineageRow:
		b = appendRefs(b, v.Refs)
	case TupleValues:
		b = appendRefs(b, v.Refs)
		for i, row := range v.Rows {
			at := len(b)
			b = sqlval.EncodeRow(b, row)
			if i == 0 {
				// Versions of one table are about one size; reserving the
				// rest at the first one's spares a frame of megabytes its
				// doublings.
				b = slices.Grow(b, (len(v.Rows)-1)*(len(b)-at))
			}
		}
	case CommandComplete:
		b = binary.AppendVarint(b, int64(v.RowsAffected))
		b = binary.AppendVarint(b, v.StmtID)
		b = binary.AppendUvarint(b, v.Start)
		b = binary.AppendUvarint(b, v.End)
		b = appendRefs(b, v.ReadRefs)
		b = appendRefs(b, v.WrittenRefs)
		b = binary.AppendUvarint(b, v.CommitSeq)
		b = bin.AppendString(b, v.Fingerprint)
		b = binary.AppendUvarint(b, v.Tag)
	case Error:
		b = bin.AppendString(b, v.Message)
	case StatsResult:
		b = bin.AppendBytes(b, v.JSON)
	case Ready:
		b = bin.AppendBool(b, v.InTxn)
	case Stats:
		b = append(b, v.Kind)
	case Subscribe:
		b = bin.AppendString(b, v.ReplicaID)
	case SnapshotChunk:
		b = bin.AppendString(b, v.Table)
		b = bin.AppendBool(b, v.Done)
		b = binary.AppendUvarint(b, v.CutSeq)
		b = bin.AppendBytes(b, v.Data)
	case WALSegment:
		b = binary.AppendUvarint(b, v.FirstSeq)
		b = binary.AppendUvarint(b, v.PrimaryTS)
		b = binary.AppendUvarint(b, uint64(len(v.Records)))
		for _, rec := range v.Records {
			b = bin.AppendBytes(b, rec)
		}
	case ReplicaStatus:
		b = bin.AppendString(b, v.ID)
		b = binary.AppendUvarint(b, v.AppliedSeq)
		b = binary.AppendUvarint(b, v.AppliedTS)
	case Parse:
		b = bin.AppendString(b, v.Name)
		b = bin.AppendString(b, v.SQL)
	case ParseComplete:
		b = bin.AppendString(b, v.Name)
		b = binary.AppendUvarint(b, uint64(v.NumParams))
		b = bin.AppendString(b, v.Fingerprint)
	case Bind:
		b = bin.AppendString(b, v.Stmt)
		b = sqlval.EncodeRow(b, v.Args)
	case Execute:
		b = bin.AppendString(b, v.Stmt)
		b = binary.AppendUvarint(b, v.Tag)
		b = bin.AppendBool(b, v.WithLineage)
		b = appendSpanContext(b, v.Trace)
		b = binary.AppendUvarint(b, v.MinApplied)
	case CloseStmt:
		b = bin.AppendString(b, v.Name)
	case Terminate:
	}
	return b
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
	case TagLineageRow:
		m = LineageRow{Refs: d.refs()}
	case TagTupleValues:
		refs := d.refs()
		rows := make([][]sqlval.Value, 0, len(refs))
		for i := 0; i < len(refs) && d.Err() == nil; i++ {
			rows = append(rows, sqlval.ReadRow(&d.Reader, nil))
		}
		m = TupleValues{Refs: refs, Rows: rows}
	case TagCommandComplete:
		m = CommandComplete{
			RowsAffected: int(d.Varint()),
			StmtID:       d.Varint(),
			Start:        d.Uvarint(),
			End:          d.Uvarint(),
			ReadRefs:     d.refs(),
			WrittenRefs:  d.refs(),
			CommitSeq:    d.Uvarint(),
			Fingerprint:  d.Str(),
			Tag:          d.Uvarint(),
		}
	case TagError:
		m = Error{Message: d.Str()}
	case TagStats:
		m = Stats{Kind: d.Byte()}
	case TagStatsResult:
		m = StatsResult{JSON: d.bytes()}
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

func appendRefs(b []byte, refs []engine.TupleRef) []byte {
	b = binary.AppendUvarint(b, uint64(len(refs)))
	if len(refs) > 0 {
		b = slices.Grow(b, len(refs)*(len(refs[0].Table)+8))
	}
	for _, r := range refs {
		b = bin.AppendString(b, r.Table)
		b = binary.AppendUvarint(b, uint64(r.Row))
		b = binary.AppendUvarint(b, r.Version)
	}
	return b
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

// appendSpanContext encodes sc in its fixed 24-byte wire form.
func appendSpanContext(b []byte, sc obs.SpanContext) []byte {
	b = append(b, sc.Trace[:]...)
	return binary.BigEndian.AppendUint64(b, sc.Span)
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
