// Package csvrec is the CSV dialect of COPY ... TO and COPY ... FROM, which
// LDV writes into files and reads back byte for byte. Records end in '\n',
// fields are separated by ',', and a field holding a comma, a quote or a line
// break is quoted with its quotes doubled — what encoding/csv writes. An
// unquoted \N is NULL, so a field whose text is \N is quoted too
// (PostgreSQL's CSV rule). Reading is where it differs from encoding/csv,
// whose Reader folds a quoted CR LF to LF, so TEXT "a\r\nb" would come back
// as "a\nb": Reader returns every quoted byte as it stands, and says which
// fields it read quoted.
package csvrec

import (
	"bytes"
	"fmt"
	"io"
)

// Null is the field that stands for SQL NULL when it is not quoted.
const Null = `\N`

// Quote makes dst[start:], a field just appended, a valid CSV field that is
// not NULL: one holding a comma, a quote or a line break is wrapped in quotes
// with its quotes doubled, as encoding/csv's Writer does, and so is one that
// is exactly Null; anything else is left as it is — an empty field and one
// that starts with a space included, which Reader takes literally.
func Quote(dst []byte, start int) []byte {
	if bytes.IndexAny(dst[start:], ",\"\r\n") < 0 && string(dst[start:]) != Null {
		return dst
	}
	raw := append([]byte(nil), dst[start:]...)
	dst = append(dst[:start], '"')
	for _, c := range raw {
		if c == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, c)
	}
	return append(dst, '"')
}

// Reader reads records back: a field that opens with '"' runs to its closing
// quote, "" standing for one quote and every other byte — a CR LF included —
// for itself; any other field runs to the next ',' or line end. Outside
// quotes a CR directly before the LF belongs to the line end, so a file
// written elsewhere with CR LF line ends loads (Quote never leaves a CR
// unquoted).
type Reader struct {
	Data   []byte   // the records not yet read
	buf    []byte   // the current record's fields, unquoted, back to back
	ends   []int    // where each of them ends in buf
	quoted []bool   // whether each of them was quoted
	rec    []string // the record handed out, reused by the next Read
}

// Quoted reports whether field i of the record Read last returned was
// quoted: an unquoted Null is NULL, a quoted one the text \N.
func (r *Reader) Quoted(i int) bool { return r.quoted[i] }

// Read returns the next record, valid until the following call, or io.EOF.
func (r *Reader) Read() ([]string, error) {
	d := r.Data
	if len(d) == 0 {
		return nil, io.EOF
	}
	r.buf, r.ends, r.quoted = r.buf[:0], r.ends[:0], r.quoted[:0]
	for more := true; more; {
		quoted := len(d) > 0 && d[0] == '"'
		if quoted {
			for d = d[1:]; ; d = d[1:] {
				i := bytes.IndexByte(d, '"')
				if i < 0 {
					return nil, fmt.Errorf("unterminated quoted field")
				}
				r.buf = append(r.buf, d[:i]...)
				if d = d[i+1:]; len(d) == 0 || d[0] != '"' {
					break
				}
				r.buf = append(r.buf, '"')
			}
			if len(d) > 1 && d[0] == '\r' && d[1] == '\n' {
				d = d[1:]
			}
			if len(d) > 0 && d[0] != ',' && d[0] != '\n' {
				return nil, fmt.Errorf("%q after a closing quote", d[0])
			}
		} else {
			i := bytes.IndexAny(d, ",\n")
			if i < 0 {
				i = len(d)
			}
			field := d[:i]
			if i > 0 && i < len(d) && d[i] == '\n' && d[i-1] == '\r' {
				field = d[:i-1]
			}
			r.buf = append(r.buf, field...)
			d = d[i:]
		}
		r.ends = append(r.ends, len(r.buf))
		r.quoted = append(r.quoted, quoted)
		more = len(d) > 0 && d[0] == ','
		if len(d) > 0 {
			d = d[1:] // the separator
		}
	}
	// One string per record; the fields are its substrings.
	all, start := string(r.buf), 0
	r.rec = r.rec[:0]
	for _, end := range r.ends {
		r.rec = append(r.rec, all[start:end])
		start = end
	}
	r.Data = d
	return r.rec, nil
}
