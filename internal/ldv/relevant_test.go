package ldv

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// randomValue is a value of a random kind, awkward ones included: TEXT that
// is empty, multi-byte, or holds NUL and quote bytes; extreme integers; NaN
// and negative zero.
func randomValue(rng *rand.Rand) sqlval.Value {
	switch rng.Intn(7) {
	case 0:
		return sqlval.Null
	case 1:
		return sqlval.NewInt([]int64{0, -1, 1 << 62, math.MinInt64, rng.Int63n(1000)}[rng.Intn(5)])
	case 2:
		return sqlval.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 1.5, -rng.Float64()}[rng.Intn(4)])
	case 3:
		return sqlval.NewBool(rng.Intn(2) == 1)
	case 4:
		return sqlval.NewDateDays(int64(rng.Intn(40000) - 20000))
	default:
		return sqlval.NewString([]string{"", "naïve 表", "a\x00b'\"", strings.Repeat("x", rng.Intn(300))}[rng.Intn(4)])
	}
}

// TestRecordFromReceivedBytes: the record the auditor builds for a relevant
// version — its header, then the values' row image as a server sent it — is
// byte for byte the live-row record engine.AppendLiveRecord encodes from the
// decoded values, for sets received over the wire and sets built in process
// alike; and RelevantTuples decodes the values back out of it.
func TestRecordFromReceivedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		refs := make([]engine.TupleRef, n)
		vals := make([][]sqlval.Value, n)
		var images []byte
		ends := make([]uint32, n)
		for i := range refs {
			refs[i] = engine.TupleRef{Table: "t", Row: engine.RowID(i*1000 + rng.Intn(1000)), Version: uint64(rng.Int63n(1 << 40))}
			row := make([]sqlval.Value, rng.Intn(12))
			for j := range row {
				row[j] = randomValue(rng)
			}
			vals[i] = row
			images = sqlval.EncodeRow(images, row)
			ends[i] = uint32(len(images))
		}
		received, err := engine.NewEncodedVersionSet(refs, images, ends)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []engine.VersionSet{received, engine.NewVersionSet(refs, vals)} {
			var table relevantTable
			var want []byte
			for i, ref := range refs {
				table.add(set, i)
				decoded, _, err := sqlval.DecodeRow(set.AppendRow(nil, i))
				if err != nil {
					t.Fatal(err)
				}
				want = engine.AppendLiveRecord(want, ref.Row, ref.Version, decoded)
			}
			if !bytes.Equal(table.recs, want) {
				t.Fatalf("trial %d: records %x, AppendLiveRecord %x", trial, table.recs, want)
			}
			aud := &Auditor{tables: map[string]*relevantTable{"t": &table}}
			for i, tup := range aud.RelevantTuples()["t"] {
				if tup.Ref != refs[i] || !sameValues(tup.Values, vals[i]) {
					t.Fatalf("trial %d: relevant tuple %d is %v %v, recorded %v %v", trial, i, tup.Ref, tup.Values, refs[i], vals[i])
				}
			}
		}
	}
}

// sameValues compares rows by their encodings, so a NaN equals a NaN.
func sameValues(a, b []sqlval.Value) bool {
	return bytes.Equal(sqlval.EncodeRow(nil, a), sqlval.EncodeRow(nil, b))
}
