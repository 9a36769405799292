package csvrec

import (
	"io"
	"reflect"
	"testing"
)

// TestReaderReadsWhatQuoteWrites: every field comes back byte for byte, a
// last record needs no newline, a file with CR LF line ends reads as one
// with LF, and the two ways a record can be malformed are errors, not
// guesses.
func TestReaderReadsWhatQuoteWrites(t *testing.T) {
	records := [][]string{
		{"prov_rowid", "prov_v", "prov_p", "a column, quoted"},
		{"1", "2", "", "s:a\r\nb,\"c\""},
		{"3", "4", "", "s:\"", "s:\"\"", "s:\n", "s:\r", "n:", "s:", " leading space", `\N`},
		{"5"},
	}
	var data, dos []byte
	for _, rec := range records {
		for i, f := range rec {
			if i > 0 {
				data, dos = append(data, ','), append(dos, ',')
			}
			data = Quote(append(data, f...), len(data))
			dos = Quote(append(dos, f...), len(dos))
		}
		data, dos = append(data, '\n'), append(dos, '\r', '\n')
	}
	for _, in := range [][]byte{data, data[:len(data)-1], dos} {
		r := Reader{Data: in}
		for i, want := range records {
			got, err := r.Read()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d: %q, %v; want %q", i, got, err, want)
			}
		}
		if _, err := r.Read(); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}
	}
	for _, bad := range []string{"1,\"open\n", "1,\"shut\"x,2\n", "1,\"shut\"\rx\n"} {
		r := Reader{Data: []byte(bad)}
		if rec, err := r.Read(); err == nil {
			t.Errorf("%q read as %q, want an error", bad, rec)
		}
	}
}
