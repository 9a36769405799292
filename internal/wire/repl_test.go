package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReplDecodeErrors exercises the failure paths of the replication
// message decoders: truncation must produce errors, never panics or
// silently short values.
func TestReplDecodeErrors(t *testing.T) {
	// A WALSegment whose record count promises more than the frame holds.
	seg := encodePayload(WALSegment{FirstSeq: 1, PrimaryTS: 2, Records: [][]byte{{9, 9, 9}}})
	if _, err := decodePayload(TagWALSegment, seg[:len(seg)-2]); err == nil {
		t.Fatal("truncated WALSegment record must fail")
	}
	if _, err := decodePayload(TagWALSegment, []byte{1, 2, 0xFF}); err == nil {
		t.Fatal("bogus WALSegment record count must fail")
	}
	// A SnapshotChunk cut before its fixed fields.
	if _, err := decodePayload(TagSnapshotChunk, []byte{1, 'x'}); err == nil {
		t.Fatal("truncated SnapshotChunk must fail")
	}
	// A SnapshotChunk whose Done byte is neither 0 nor 1.
	if _, err := decodePayload(TagSnapshotChunk, []byte{0, 2, 0, 0}); err == nil {
		t.Fatal("SnapshotChunk with Done 2 must fail")
	}
	// A ReplicaStatus missing its positions.
	st := encodePayload(ReplicaStatus{ID: "r", AppliedSeq: 300, AppliedTS: 4})
	if _, err := decodePayload(TagReplicaStatus, st[:len(st)-1]); err == nil {
		t.Fatal("truncated ReplicaStatus must fail")
	}
	// A Subscribe with a lying string length.
	if _, err := decodePayload(TagSubscribe, []byte{0xF0}); err == nil {
		t.Fatal("truncated Subscribe must fail")
	}
}

// FuzzReplMessages round-trips the four replication message kinds over
// arbitrary field values.
func FuzzReplMessages(f *testing.F) {
	f.Add("replica-1", uint64(5), uint64(9), []byte{1, 2, 3}, true)
	f.Add("", uint64(0), uint64(0), []byte(nil), false)
	f.Fuzz(func(t *testing.T, id string, seq, ts uint64, data []byte, done bool) {
		norm := data
		if len(norm) == 0 {
			norm = nil // empty payloads decode as nil
		}
		msgs := []struct{ in, want Message }{
			{Subscribe{ReplicaID: id}, Subscribe{ReplicaID: id}},
			{SnapshotChunk{Table: id, Done: done, CutSeq: seq, Data: data},
				SnapshotChunk{Table: id, Done: done, CutSeq: seq, Data: norm}},
			{WALSegment{FirstSeq: seq, PrimaryTS: ts, Records: [][]byte{data}},
				WALSegment{FirstSeq: seq, PrimaryTS: ts, Records: [][]byte{norm}}},
			{ReplicaStatus{ID: id, AppliedSeq: seq, AppliedTS: ts},
				ReplicaStatus{ID: id, AppliedSeq: seq, AppliedTS: ts}},
		}
		for _, m := range msgs {
			var buf bytes.Buffer
			if err := Write(&buf, m.in); err != nil {
				t.Fatalf("Write(%#v): %v", m.in, err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read(%#v): %v", m.in, err)
			}
			if !reflect.DeepEqual(got, m.want) {
				t.Fatalf("round trip: got %#v, want %#v", got, m.want)
			}
		}
	})
}
