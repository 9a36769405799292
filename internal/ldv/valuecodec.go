package ldv

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ldv/internal/sqlval"
)

// Tuple values cross package boundaries in two text formats: kind-prefixed
// CSV cells (the audit spool and the provenance CSV files of server-included
// packages) and the same encoding inside the JSON DB log of server-excluded
// packages. The prefix makes NULL, empty string, and the string "42"
// unambiguous.

// appendCell appends a value's kind-prefixed cell to dst.
func appendCell(dst []byte, v sqlval.Value) []byte {
	switch v.Kind() {
	case sqlval.KindInt:
		return strconv.AppendInt(append(dst, "i:"...), v.Int(), 10)
	case sqlval.KindFloat:
		return strconv.AppendFloat(append(dst, "f:"...), v.Float(), 'g', -1, 64)
	case sqlval.KindString:
		return append(append(dst, "s:"...), v.Str()...)
	case sqlval.KindBool:
		return strconv.AppendBool(append(dst, "b:"...), v.Bool())
	case sqlval.KindDate:
		return append(append(dst, "d:"...), v.String()...)
	default:
		return append(dst, "n:"...)
	}
}

// encodeCell renders a value as a kind-prefixed cell.
func encodeCell(v sqlval.Value) string {
	var buf [32]byte
	return string(appendCell(buf[:0], v))
}

// appendCSVCell appends a value's kind-prefixed cell to dst as one CSV field.
func appendCSVCell(dst []byte, v sqlval.Value) []byte {
	start := len(dst)
	dst = appendCell(dst, v)
	if v.Kind() != sqlval.KindString {
		return dst // numbers, dates, booleans and NULL hold nothing to quote
	}
	return quoteCSVField(dst, start)
}

// quoteCSVField makes dst[start:], a field just appended, a valid CSV field:
// one holding a comma, a quote or a line break is wrapped in quotes with its
// quotes doubled, as encoding/csv's Writer does; anything else is left as it
// is. (Callers append kind-prefixed cells and column names, which are never
// empty and never start with a space — the Writer's other two reasons to
// quote.)
func quoteCSVField(dst []byte, start int) []byte {
	if bytes.IndexAny(dst[start:], ",\"\r\n") < 0 {
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

// csvReader reads back the CSV this package alone writes (quoteCSVField):
// records end in '\n', fields are separated by ',', and a field that opens
// with '"' runs to its closing quote, "" standing for one quote and every
// other byte — a CR LF included — for itself. That last clause is why this is
// not encoding/csv, whose Reader folds a quoted CR LF to LF.
type csvReader struct {
	data []byte   // the records not yet read
	buf  []byte   // the current record's fields, unquoted, back to back
	ends []int    // where each of them ends in buf
	rec  []string // the record handed out, reused by the next read
}

// read returns the next record, valid until the following call, or io.EOF.
func (r *csvReader) read() ([]string, error) {
	d := r.data
	if len(d) == 0 {
		return nil, io.EOF
	}
	r.buf, r.ends = r.buf[:0], r.ends[:0]
	for more := true; more; {
		if len(d) > 0 && d[0] == '"' {
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
			if len(d) > 0 && d[0] != ',' && d[0] != '\n' {
				return nil, fmt.Errorf("%q after a closing quote", d[0])
			}
		} else {
			i := bytes.IndexAny(d, ",\n")
			if i < 0 {
				i = len(d)
			}
			r.buf = append(r.buf, d[:i]...)
			d = d[i:]
		}
		r.ends = append(r.ends, len(r.buf))
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
	r.data = d
	return r.rec, nil
}

// decodeCell parses a kind-prefixed cell.
func decodeCell(s string) (sqlval.Value, error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return sqlval.Null, fmt.Errorf("malformed value cell %q", s)
	}
	kind, body := s[:i], s[i+1:]
	switch kind {
	case "n":
		return sqlval.Null, nil
	case "i":
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return sqlval.Null, fmt.Errorf("bad integer cell %q: %w", s, err)
		}
		return sqlval.NewInt(n), nil
	case "f":
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return sqlval.Null, fmt.Errorf("bad float cell %q: %w", s, err)
		}
		return sqlval.NewFloat(f), nil
	case "s":
		return sqlval.NewString(body), nil
	case "b":
		switch body {
		case "true":
			return sqlval.NewBool(true), nil
		case "false":
			return sqlval.NewBool(false), nil
		}
		return sqlval.Null, fmt.Errorf("bad boolean cell %q", s)
	case "d":
		return sqlval.ParseDate(body)
	default:
		return sqlval.Null, fmt.Errorf("unknown value kind in cell %q", s)
	}
}

func encodeRowCells(row []sqlval.Value) []string {
	out := make([]string, len(row))
	for i, v := range row {
		out[i] = encodeCell(v)
	}
	return out
}

func decodeRowCells(cells []string) ([]sqlval.Value, error) {
	return appendRowCells(make([]sqlval.Value, 0, len(cells)), cells)
}

// appendRowCells decodes cells onto dst, for a caller that reuses one row.
func appendRowCells(dst []sqlval.Value, cells []string) ([]sqlval.Value, error) {
	for _, c := range cells {
		v, err := decodeCell(c)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
