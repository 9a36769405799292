package ldv

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.dblog from goldenDBLog")

const goldenDBLogPath = "testdata/golden.dblog"

// goldenDBLog is a deterministic log of two sessions holding every shape an
// entry takes: a text SELECT, a prepared one binding a value of every kind —
// INTEGER 2, FLOAT 2.0 and TEXT '2' among them, which only their kinds tell
// apart — an error, a DML statement's rows affected, and an empty result.
func goldenDBLog() []*SessionLog {
	date, err := sqlval.ParseDate("2015-04-13")
	if err != nil {
		panic(err)
	}
	return []*SessionLog{
		{Proc: "proc:3", Entries: []LogEntry{
			{SQL: "SELECT id, note FROM t ORDER BY id", TraceID: "00112233445566778899aabbccddeeff",
				Columns: []string{"id", "note"},
				Rows:    [][]sqlval.Value{{sqlval.NewInt(1), sqlval.NewString("naïve 表")}, {sqlval.NewInt(2), sqlval.Null}}},
			{SQL: "SELECT id FROM t WHERE a = ? AND b = ? AND c = ? AND d IS ? AND e = ? AND f = ? AND g = ? AND h = ?",
				Args: []sqlval.Value{sqlval.NewInt(2), sqlval.NewFloat(2), sqlval.NewString("2"), sqlval.Null,
					sqlval.NewString(""), sqlval.NewString("naïve 表"), date, sqlval.NewBool(true)},
				TraceID: "ffeeddccbbaa99887766554433221100",
				Columns: []string{"id"}, Rows: [][]sqlval.Value{{sqlval.NewInt(-7)}}},
			{SQL: "INSERT INTO t VALUES (1, 'dup')", Error: "duplicate primary key 1"},
		}},
		{Proc: "proc:4", Entries: []LogEntry{
			{SQL: "UPDATE t SET note = ? WHERE id = ?", Args: []sqlval.Value{sqlval.NewString("x"), sqlval.NewInt(1)},
				TraceID: "0123456789abcdef0123456789abcdef", RowsAffected: 1},
			{SQL: "SELECT id FROM t WHERE id > 9", TraceID: "fedcba9876543210fedcba9876543210", Columns: []string{"id"}},
		}},
	}
}

// describeDBLog renders a log with every value's kind, so that two logs
// describe alike only if they hold the same values of the same kinds.
func describeDBLog(sessions []*SessionLog) string {
	var sb strings.Builder
	vals := func(row []sqlval.Value) {
		sb.WriteByte('[')
		for i, v := range row {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %s", v.Kind(), v.SQLLiteral())
		}
		sb.WriteByte(']')
	}
	for _, s := range sessions {
		fmt.Fprintf(&sb, "session %s\n", s.Proc)
		for _, e := range s.Entries {
			fmt.Fprintf(&sb, "  %q args=", e.SQL)
			vals(e.Args)
			fmt.Fprintf(&sb, " trace=%s error=%q affected=%d columns=%q rows=", e.TraceID, e.Error, e.RowsAffected, e.Columns)
			for _, row := range e.Rows {
				vals(row)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestDBLogGolden: the DB log encoding is pinned. The golden file decodes to
// the log it was written from, kinds and all, and that log encodes to it byte
// for byte. Regenerate it (-update-golden) only for a deliberate format
// change.
func TestDBLogGolden(t *testing.T) {
	got := MarshalDBLog(goldenDBLog())
	if *updateGolden {
		if err := os.WriteFile(goldenDBLogPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenDBLogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DB log encoding changed:\n got %q\nwant %q", got, want)
	}
	back, err := UnmarshalDBLog(want)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := describeDBLog(back), describeDBLog(goldenDBLog()); g != w {
		t.Fatalf("golden decodes to\n%s\nwant\n%s", g, w)
	}
	res, err := back[0].Entries[0].Result()
	if err != nil || len(res.Rows) != 2 || res.Rows[0][1].Str() != "naïve 表" || res.TraceID != back[0].Entries[0].TraceID {
		t.Fatalf("recorded result = %+v, %v", res, err)
	}
	if _, err := back[0].Entries[2].Result(); err == nil || !strings.Contains(err.Error(), "duplicate primary key 1") {
		t.Fatalf("recorded error replays as %v", err)
	}
}

// The decoder treats a package's log as outside input: whatever is wrong with
// it, the answer is an error, never a panic or a log that marshals to other
// bytes.
func TestDBLogRejects(t *testing.T) {
	golden, err := os.ReadFile(goldenDBLogPath)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(golden); n++ {
		if _, err := UnmarshalDBLog(golden[:n]); err == nil {
			t.Errorf("prefix of %d bytes accepted", n)
		}
	}
	arity := goldenDBLog()
	arity[0].Entries[0].Columns = []string{"id"}
	// An INTEGER whose varint is not in its shortest form: 0x04 0x80 0x00
	// instead of 0x04 0x00.
	overlong := MarshalDBLog([]*SessionLog{{Proc: "p", Entries: []LogEntry{{SQL: "s", Columns: []string{"c"},
		Rows: [][]sqlval.Value{{sqlval.NewInt(0)}}}}}})
	overlong = append(overlong[:len(overlong)-1:len(overlong)-1], 0x80, 0x00)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"bad magic", "bad magic", append([]byte("LDVLOG2\n"), golden[len(dbLogMagic):]...)},
		{"JSON log", "bad magic", []byte(`{"sessions":[]}`)},
		{"trailing byte", "trailing", append(bytes.Clone(golden), 0)},
		{"row of the wrong arity", "row has 2 values, 1 columns", MarshalDBLog(arity)},
		{"session count larger than the input", "exceeds", append([]byte(dbLogMagic), 0xff, 0xff, 0x03)},
		{"overlong varint in a value", "bad varint", overlong},
	} {
		if _, err := UnmarshalDBLog(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestDBLogAllocatesInProportion: a log whose count claims as many elements
// as the bytes after it hold at the least one takes is refused at its first
// element, and refusing it allocates at most a small constant times the
// input's size.
func TestDBLogAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	session := dbLogMagic + "\x01" + "\x06proc:1"
	entry := session + "\x01" + "\x01s" + "\x00" + "\x00" + "\x00" + "\x00" // SQL, no args, trace, error, affected
	for _, c := range []struct {
		section, prefix string
		min             int
	}{
		{"sessions", dbLogMagic, 2},
		{"entries", session, 7},
		{"columns", entry, 1},
		{"rows", entry + "\x01\x02id", 2},
	} {
		rest := n - len(c.prefix) - 3 // a count below 1<<21 takes three bytes
		data := binary.AppendUvarint([]byte(c.prefix), uint64(rest/c.min))
		data = append(data, bytes.Repeat([]byte{0xff}, rest)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalDBLog(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: unreadable elements decoded", c.section)
		}
		if grew := int(after.TotalAlloc - before.TotalAlloc); grew > perByte*n {
			t.Errorf("%s: refusing a %d-byte log allocated %d bytes (%.1f per byte)", c.section, n, grew, float64(grew)/n)
		}
	}
}

// FuzzDBLog: no input makes the decoder panic, and an input it accepts is a
// log MarshalDBLog writes — it marshals back to exactly those bytes.
func FuzzDBLog(f *testing.F) {
	f.Add(MarshalDBLog(goldenDBLog()))
	f.Add(MarshalDBLog(nil))
	f.Add([]byte(dbLogMagic))
	f.Add(MarshalDBLog([]*SessionLog{{Proc: "p", Entries: []LogEntry{{SQL: "s", Columns: []string{"a", "b"},
		Rows: [][]sqlval.Value{{sqlval.NewFloat(-1.5), sqlval.NewBool(false)}}}}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, err := UnmarshalDBLog(data)
		if err != nil {
			return
		}
		if out := MarshalDBLog(sessions); !bytes.Equal(out, data) {
			t.Fatalf("accepted %q, which marshals to %q", data, out)
		}
	})
}
