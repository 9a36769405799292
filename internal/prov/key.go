package prov

import (
	"strconv"
	"strings"
)

// Ref is a node's dense index in its trace: the i-th node added is Ref(i).
// Edges, dependencies and side tables refer to nodes by Ref.
type Ref uint32

// StrID indexes a trace's string table. 0 is always the empty string.
type StrID uint32

// Kind says what a node key identifies. It is 32 bits wide so that Key has
// no padding and hashes as plain memory.
type Kind uint32

const (
	KindNamed  Kind = iota // free-form id (paper figures, hand-built traces): Str
	KindProc               // OS process: A = pid
	KindFile               // file: Str = path
	KindStmt               // executed SQL statement: A = engine statement id
	KindTuple              // stored tuple version: Str = table, A = row id, B = version
	KindResult             // result tuple of a query (not stored): A = statement id, B = ordinal
	numKinds
)

// Key is a node's identity inside one trace: small, comparable, and free of
// pointers. Table names and paths live in the trace's string table, so a
// Key is only meaningful to the trace whose StrIDs it carries. The string
// node ids of the boundary (CLI arguments, DOT, PROV-JSON, error messages)
// are renderings of keys; see ParseID for the syntax.
type Key struct {
	Kind Kind
	Str  StrID
	A, B uint64
}

// ProcKey identifies an OS process.
func ProcKey(pid int) Key { return Key{Kind: KindProc, A: uint64(pid)} }

// StmtKey identifies an executed SQL statement.
func StmtKey(stmtID int64) Key { return Key{Kind: KindStmt, A: uint64(stmtID)} }

// ResultKey identifies the i-th result tuple of a statement.
func ResultKey(stmtID int64, i int) Key {
	return Key{Kind: KindResult, A: uint64(stmtID), B: uint64(i)}
}

// FileKey identifies a file by path, interning the path.
func (tr *Trace) FileKey(path string) Key {
	return Key{Kind: KindFile, Str: tr.InternString(path)}
}

// TupleKey identifies a stored tuple version, interning the table name.
func (tr *Trace) TupleKey(table string, row, version uint64) Key {
	return Key{Kind: KindTuple, Str: tr.InternString(table), A: row, B: version}
}

// Node-id prefixes. Every typed id starts with its category so ids never
// collide across categories; anything else is a KindNamed id.
const (
	procPrefix   = "proc:"
	filePrefix   = "file:"
	stmtPrefix   = "stmt:"
	tuplePrefix  = "tuple:"
	resultPrefix = "rtuple:"
)

// ProcID renders the node id of a process: proc:<pid>.
func ProcID(pid uint64) string { return procPrefix + strconv.FormatUint(pid, 10) }

// FileID renders the node id of a file: file:<path>.
func FileID(path string) string { return filePrefix + path }

// StmtID renders the node id of a statement: stmt:<id>.
func StmtID(stmtID uint64) string { return stmtPrefix + strconv.FormatUint(stmtID, 10) }

// TupleID renders the node id of a stored tuple version:
// tuple:<table>/<row>@<version>.
func TupleID(table string, row, version uint64) string {
	b := make([]byte, 0, len(tuplePrefix)+len(table)+24)
	b = append(b, tuplePrefix...)
	b = append(b, table...)
	b = append(b, '/')
	b = strconv.AppendUint(b, row, 10)
	b = append(b, '@')
	b = strconv.AppendUint(b, version, 10)
	return string(b)
}

// ResultID renders the node id of a result tuple: rtuple:<stmt>/<ordinal>.
func ResultID(stmtID, i uint64) string {
	return resultPrefix + strconv.FormatUint(stmtID, 10) + "/" + strconv.FormatUint(i, 10)
}

// ParseID is the inverse of the renderers above. It recognizes exactly the
// canonical renderings — decimal numbers without sign or leading zeros, a
// tuple's row and version taken from the right so table names may contain
// '/' and '@' — and classifies every other string as a KindNamed id, so
// rendering a parsed id always gives the same string back. str is the file
// path, the table name, or (KindNamed) the whole id.
func ParseID(id string) (kind Kind, str string, a, b uint64) {
	switch {
	case strings.HasPrefix(id, procPrefix):
		if n, ok := parseUint(id[len(procPrefix):]); ok {
			return KindProc, "", n, 0
		}
	case strings.HasPrefix(id, filePrefix):
		return KindFile, id[len(filePrefix):], 0, 0
	case strings.HasPrefix(id, stmtPrefix):
		if n, ok := parseUint(id[len(stmtPrefix):]); ok {
			return KindStmt, "", n, 0
		}
	case strings.HasPrefix(id, tuplePrefix):
		body := id[len(tuplePrefix):]
		at := strings.LastIndexByte(body, '@')
		if at < 0 {
			break
		}
		slash := strings.LastIndexByte(body[:at], '/')
		if slash < 0 {
			break
		}
		row, ok1 := parseUint(body[slash+1 : at])
		version, ok2 := parseUint(body[at+1:])
		if ok1 && ok2 {
			return KindTuple, body[:slash], row, version
		}
	case strings.HasPrefix(id, resultPrefix):
		body := id[len(resultPrefix):]
		slash := strings.IndexByte(body, '/')
		if slash < 0 {
			break
		}
		stmt, ok1 := parseUint(body[:slash])
		i, ok2 := parseUint(body[slash+1:])
		if ok1 && ok2 {
			return KindResult, "", stmt, i
		}
	}
	return KindNamed, id, 0, 0
}

// parseUint accepts only what strconv.FormatUint produces.
func parseUint(s string) (uint64, bool) {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

// ID renders node r's string id.
func (tr *Trace) ID(r Ref) string {
	k := tr.keys[r]
	switch k.Kind {
	case KindProc:
		return ProcID(k.A)
	case KindFile:
		return FileID(tr.strs[k.Str])
	case KindStmt:
		return StmtID(k.A)
	case KindTuple:
		return TupleID(tr.strs[k.Str], k.A, k.B)
	case KindResult:
		return ResultID(k.A, k.B)
	default:
		return tr.strs[k.Str]
	}
}

// keyOf parses a string id into a key of this trace. With intern false the
// string table is left alone and ok is false when the id names a string the
// trace has never seen (so the node cannot exist).
func (tr *Trace) keyOf(id string, intern bool) (k Key, ok bool) {
	kind, str, a, b := ParseID(id)
	k = Key{Kind: kind, A: a, B: b}
	if intern {
		k.Str = tr.InternString(str)
		return k, true
	}
	k.Str, ok = tr.strIdx[str]
	return k, ok
}
