package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// A conjunct kernel must answer exactly what the conjunct's bound closure
// answers — isTrue of its value, and its error — for every stored value of
// every kind, whichever shape, operator, side and constant kind compiled it.

// kernelCols is the layout the kernels are compiled against: one column of
// each declared type.
var kernelCols = []Column{
	{Name: "i", Type: sqlval.KindInt}, {Name: "f", Type: sqlval.KindFloat},
	{Name: "s", Type: sqlval.KindString}, {Name: "d", Type: sqlval.KindDate},
	{Name: "b", Type: sqlval.KindBool},
}

// kernelValues are stored values and constants: NULL, INT against FLOAT,
// -0.0, NaN, INTEGERs beyond 2^53, dates, multibyte and wildcard text.
var kernelValues = []sqlval.Value{
	sqlval.Null,
	sqlval.NewInt(0), sqlval.NewInt(1), sqlval.NewInt(-1), sqlval.NewInt(45),
	sqlval.NewInt(1 << 53), sqlval.NewInt(1<<53 + 1), sqlval.NewInt(math.MaxInt64), sqlval.NewInt(math.MinInt64),
	sqlval.NewFloat(0), sqlval.NewFloat(math.Copysign(0, -1)), sqlval.NewFloat(1), sqlval.NewFloat(45), sqlval.NewFloat(1.5),
	sqlval.NewFloat(1 << 53), sqlval.NewFloat(math.NaN()), sqlval.NewFloat(math.Inf(1)), sqlval.NewFloat(math.Inf(-1)),
	sqlval.NewString(""), sqlval.NewString("a"), sqlval.NewString("é"), sqlval.NewString("regular"),
	sqlval.NewString("%regular%"), sqlval.NewString("re%"), sqlval.NewString("_"), sqlval.NewString("日本語"),
	sqlval.NewDateDays(0), sqlval.NewDateDays(-1), sqlval.NewDateDays(10000),
	sqlval.NewBool(true), sqlval.NewBool(false),
}

var kernelOps = []string{"=", "<>", "<", "<=", ">", ">="}

// kernelShape builds one conjunct over column col: shape 0 is col op c, 1
// is c op col, 2 is col BETWEEN c AND hi, 3 is col LIKE c, 4 is NOT
// BETWEEN (no kernel). A constant is a literal, or `?` when param.
func kernelShape(shape int, col, op string, c, hi sqlval.Value, param bool) (sqlparse.Expr, []sqlval.Value) {
	var params []sqlval.Value
	constant := func(v sqlval.Value) sqlparse.Expr {
		if param {
			params = append(params, v)
			return &sqlparse.Param{Index: len(params)}
		}
		return &sqlparse.Literal{Value: v}
	}
	ref := &sqlparse.ColumnRef{Column: col}
	switch shape {
	case 0:
		return &sqlparse.BinaryExpr{Op: op, Left: ref, Right: constant(c)}, params
	case 1:
		return &sqlparse.BinaryExpr{Op: op, Left: constant(c), Right: ref}, params
	case 2, 4:
		lo := constant(c)
		return &sqlparse.BetweenExpr{Expr: ref, Lo: lo, Hi: constant(hi), Negated: shape == 4}, params
	default:
		return &sqlparse.BinaryExpr{Op: "LIKE", Left: ref, Right: constant(c)}, params
	}
}

// checkKernel compiles ex and compares kernel and closure on a row whose
// every column holds v.
func checkKernel(t *testing.T, ex sqlparse.Expr, params []sqlval.Value, v sqlval.Value) {
	t.Helper()
	lay := newStoredLayout(kernelCols, "t", &execVals{params: params})
	k, err := lay.kernel(ex)
	if err != nil {
		t.Fatalf("%s: %v", ex, err)
	}
	b, err := lay.bind(ex)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]sqlval.Value, len(kernelCols))
	for i := range row {
		row[i] = v
	}
	got, gotErr := k(row)
	want, wantErr := b(row, nil)
	if got != isTrue(want) || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s with params %v on %s %v: kernel (%v, %v), closure (%v, %v)",
			ex, params, v.Kind(), v, got, gotErr, want, wantErr)
	}
}

func TestConjunctKernelsMatchClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pick := func() sqlval.Value { return kernelValues[rng.Intn(len(kernelValues))] }
	for _, col := range kernelCols {
		for _, c := range kernelValues {
			for _, param := range []bool{false, true} {
				for shape := 0; shape <= 4; shape++ {
					for _, op := range kernelOps {
						ex, params := kernelShape(shape, col.Name, op, c, pick(), param)
						for _, v := range kernelValues {
							checkKernel(t, ex, params, v)
						}
						if shape >= 2 {
							break // BETWEEN and LIKE take no operator
						}
					}
				}
			}
		}
	}
}

// TestConjunctKernelShapesAreFast guards the test above from passing
// vacuously: the kernel shapes over a matching constant compile to typed
// code, not to the closure every other conjunct runs.
func TestConjunctKernelShapesAreFast(t *testing.T) {
	lay := newStoredLayout(kernelCols, "t", &execVals{params: []sqlval.Value{sqlval.NewInt(3)}})
	code := func(ex sqlparse.Expr) uintptr {
		k, err := lay.kernel(ex)
		if err != nil {
			t.Fatal(err)
		}
		return reflect.ValueOf(k).Pointer()
	}
	slow := code(&sqlparse.BinaryExpr{Op: "=", Left: &sqlparse.BinaryExpr{Op: "+",
		Left: &sqlparse.ColumnRef{Column: "i"}, Right: &sqlparse.Literal{Value: sqlval.NewInt(0)}}, Right: &sqlparse.Param{Index: 1}})
	fast := []struct {
		col string
		c   sqlval.Value
	}{{"i", sqlval.NewInt(3)}, {"f", sqlval.NewFloat(2.5)}, {"f", sqlval.NewInt(45)}, {"d", sqlval.NewDateDays(9)}, {"s", sqlval.NewString("x")}}
	for _, f := range fast {
		for shape := 0; shape <= 3; shape++ {
			if shape == 3 && f.c.Kind() != sqlval.KindString {
				continue
			}
			ex, _ := kernelShape(shape, f.col, "<", f.c, f.c, false)
			if code(ex) == slow {
				t.Errorf("%s compiled to the closure", ex)
			}
		}
	}
	for _, ex := range []sqlparse.Expr{
		&sqlparse.BinaryExpr{Op: "=", Left: &sqlparse.ColumnRef{Column: "b"}, Right: &sqlparse.Literal{Value: sqlval.NewBool(true)}},
		&sqlparse.BinaryExpr{Op: "=", Left: &sqlparse.ColumnRef{Column: "prov_v"}, Right: &sqlparse.Literal{Value: sqlval.NewInt(1)}},
		&sqlparse.BinaryExpr{Op: "<", Left: &sqlparse.ColumnRef{Column: "i"}, Right: &sqlparse.Literal{Value: sqlval.Null}},
		&sqlparse.BetweenExpr{Expr: &sqlparse.ColumnRef{Column: "i"}, Lo: &sqlparse.Literal{Value: sqlval.NewInt(1)}, Hi: &sqlparse.Literal{Value: sqlval.NewFloat(2)}},
	} {
		if code(ex) != slow {
			t.Errorf("%s has a kernel", ex)
		}
	}
}

// FuzzConjunctKernel: for any shape, operator, column, constant(s) and
// stored value, kernel and closure agree.
func FuzzConjunctKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, uint8(1), int64(5), 0.0, "", uint8(1), int64(3), 0.0, "", uint8(1), int64(9), 0.0, "")
	f.Add(uint8(2), uint8(1), uint8(0), true, uint8(2), int64(0), math.NaN(), "", uint8(1), int64(1<<53+1), 0.0, "", uint8(2), int64(0), 2.5, "")
	f.Add(uint8(3), uint8(2), uint8(0), false, uint8(3), int64(0), 0.0, "irregular é", uint8(3), int64(0), 0.0, "%_é%", uint8(0), int64(0), 0.0, "")
	f.Add(uint8(1), uint8(3), uint8(4), true, uint8(5), int64(-3), 0.0, "", uint8(5), int64(-3), 0.0, "", uint8(0), int64(0), 0.0, "")
	value := func(kind uint8, i int64, fl float64, s string) sqlval.Value {
		switch kind % 6 {
		case 1:
			return sqlval.NewInt(i)
		case 2:
			return sqlval.NewFloat(fl)
		case 3:
			return sqlval.NewString(s)
		case 4:
			return sqlval.NewBool(i&1 == 1)
		case 5:
			return sqlval.NewDateDays(i)
		}
		return sqlval.Null
	}
	f.Fuzz(func(t *testing.T, shape, col, op uint8, param bool,
		vk uint8, vi int64, vf float64, vs string,
		ck uint8, ci int64, cf float64, cs string,
		hk uint8, hi int64, hf float64, hs string) {
		ex, params := kernelShape(int(shape%5), kernelCols[int(col)%len(kernelCols)].Name, kernelOps[int(op)%len(kernelOps)],
			value(ck, ci, cf, cs), value(hk, hi, hf, hs), param)
		checkKernel(t, ex, params, value(vk, vi, vf, vs))
	})
}
