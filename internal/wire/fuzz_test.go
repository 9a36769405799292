package wire

import (
	"bytes"
	"testing"
)

// FuzzRead asserts the frame decoder never panics on arbitrary bytes, and
// that frames are canonical: a frame Read accepts writes back to exactly the
// bytes Read consumed, so a message has one encoding.
func FuzzRead(f *testing.F) {
	for _, m := range []Message{
		Query{SQL: "SELECT 1", WithLineage: true},
		CommandComplete{RowsAffected: 3, StmtID: 9},
		Query{SQL: "SELECT 1", Trace: testSpanContext()},
		Startup{Proc: "p", Database: "db"},
		Stats{Kind: StatsKindTraces},
		Subscribe{ReplicaID: "r1"},
		SnapshotChunk{Table: "t", Data: []byte{1, 2}, Done: true, CutSeq: 9},
		WALSegment{FirstSeq: 3, PrimaryTS: 8, Records: [][]byte{{4, 5}}},
		ReplicaStatus{ID: "r1", AppliedSeq: 2, AppliedTS: 7},
		Query{SQL: "SELECT 1", MinApplied: 12},
		CommandComplete{RowsAffected: 1, CommitSeq: 12},
		Parse{Name: "s1", SQL: "SELECT ?"},
		Bind{Stmt: "s1"},
		Execute{Stmt: "s1", Tag: 4},
		CommandComplete{RowsAffected: 1, Tag: 4},
		StatsResult{JSON: []byte(`{}`)},
		Ready{InTxn: true},
	} {
		var buf bytes.Buffer
		Write(&buf, m)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{'D', 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{'?', 0xff, 0xff, 0xff, 0xff})
	// A Ready and a Stats without their field, a metrics Stats with its
	// field, a Query whose WithLineage byte is 2: each is either rejected or
	// must write back byte for byte.
	f.Add([]byte{'Z', 0, 0, 0, 0})
	f.Add([]byte{'T', 0, 0, 0, 0})
	f.Add([]byte{'T', 0, 0, 0, 1, 0})
	f.Add([]byte{'Q', 0, 0, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := Read(r)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := Write(&again, m); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("frame %x reads as %#v, which writes %x", consumed, m, again.Bytes())
		}
	})
}
