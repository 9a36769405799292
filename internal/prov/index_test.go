package prov

import (
	"bytes"
	"strconv"
	"testing"
)

// FuzzTraceIndex drives the node index with a key stream drawn from the
// input — every key kind, the same row id in several tables, several
// versions a row, a statement re-interned under another type — and checks
// every Intern and Lookup against a plain map[Key]Ref.
func FuzzTraceIndex(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add(bytes.Repeat([]byte{4, 1, 7, 0, 4, 1, 7, 1, 0x14, 1, 7, 2}, 40))
	for i := 0; i < 3; i++ {
		var seed []byte
		for j := 0; j < 300; j++ {
			seed = append(seed, byte(j*7+i), byte(j), byte(j>>2), byte(j*i))
		}
		f.Add(seed)
	}
	tables := []string{"lineitem", "orders", "t"}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrace(CombinedDefault())
		want := map[Key]Ref{}
		types := map[Key]string{}
		for ; len(data) >= 4; data = data[4:] {
			op, a, b, c := data[0], data[1], data[2], data[3]
			k, typ := Key{Kind: Kind(op % uint8(numKinds))}, TypeTuple
			switch k.Kind {
			case KindNamed:
				k.Str = tr.InternString("n" + strconv.Itoa(int(a%8)))
			case KindProc:
				k.A, typ = uint64(a), TypeProcess
			case KindFile:
				k.Str, typ = tr.InternString(tables[a%3]), TypeFile
			case KindStmt:
				k.A, typ = uint64(a), []string{TypeQuery, TypeInsert}[c&1]
			case KindTuple:
				k = tr.TupleKey(tables[c%3], uint64(a%32)<<(8*(c/64)), uint64(b%4))
			case KindResult:
				k.A, k.B = uint64(a%4), uint64(b)
			}
			r, ok := want[k]
			if op&0x10 != 0 {
				got, found := tr.Lookup(k)
				if found != ok || got != r {
					t.Fatalf("Lookup(%+v) = %d, %v; want %d, %v", k, got, found, r, ok)
				}
				continue
			}
			got, err := tr.Intern(k, typ)
			switch {
			case ok && types[k] != typ:
				if err == nil {
					t.Fatalf("Intern(%+v, %s) of a %s node succeeded", k, typ, types[k])
				}
			case err != nil:
				t.Fatalf("Intern(%+v, %s): %v", k, typ, err)
			case ok && got != r:
				t.Fatalf("Intern(%+v) = %d, was %d", k, got, r)
			case !ok:
				if got != Ref(len(want)) {
					t.Fatalf("Intern(%+v) of a new key = %d, want %d", k, got, len(want))
				}
				want[k], types[k] = got, typ
			}
		}
		if tr.NodeCount() != len(want) {
			t.Fatalf("%d nodes, interned %d keys", tr.NodeCount(), len(want))
		}
		if n := len(tr.slots); n&(n-1) != 0 || n < 2*len(want) {
			t.Fatalf("index of %d slots for %d nodes", n, len(want))
		}
		for k, r := range want {
			if got, ok := tr.Lookup(k); !ok || got != r || tr.keys[r] != k {
				t.Fatalf("Lookup(%+v) = %d, %v; interned as %d", k, got, ok, r)
			}
		}
	})
}
