package ldv

import (
	"fmt"
	"strconv"
	"strings"

	"ldv/internal/sqlval"
)

// Tuple values in the JSON DB log of server-excluded packages are
// kind-prefixed cells. The prefix makes NULL, empty string, and the string
// "42" unambiguous.

// encodeCell renders a value as a kind-prefixed cell.
func encodeCell(v sqlval.Value) string {
	var buf [32]byte
	switch v.Kind() {
	case sqlval.KindInt:
		return string(strconv.AppendInt(append(buf[:0], "i:"...), v.Int(), 10))
	case sqlval.KindFloat:
		return string(strconv.AppendFloat(append(buf[:0], "f:"...), v.Float(), 'g', -1, 64))
	case sqlval.KindString:
		return "s:" + v.Str()
	case sqlval.KindBool:
		return "b:" + strconv.FormatBool(v.Bool())
	case sqlval.KindDate:
		return "d:" + v.String()
	default:
		return "n:"
	}
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
	row := make([]sqlval.Value, len(cells))
	for i, c := range cells {
		v, err := decodeCell(c)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}
