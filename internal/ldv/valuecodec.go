package ldv

import (
	"fmt"
	"strconv"
	"strings"

	"ldv/internal/csvrec"
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
	return csvrec.Quote(dst, start)
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
