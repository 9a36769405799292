package sqlval

import "fmt"

// Arithmetic on values follows SQL semantics: any operation with a NULL
// operand yields NULL; INTEGER op INTEGER stays INTEGER (except division by
// zero, which errors); mixed numeric operations promote to FLOAT.

// Add returns v + o.
func Add(v, o Value) (Value, error) { return arith(v, o, "+") }

// Sub returns v - o.
func Sub(v, o Value) (Value, error) { return arith(v, o, "-") }

// Mul returns v * o.
func Mul(v, o Value) (Value, error) { return arith(v, o, "*") }

// Div returns v / o. Integer division truncates; division by zero errors.
func Div(v, o Value) (Value, error) { return arith(v, o, "/") }

// Mod returns v % o for integers.
func Mod(v, o Value) (Value, error) { return arith(v, o, "%") }

func arith(v, o Value, op string) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null, nil
	}
	// String concatenation via "+" or "||" is handled by the caller; here we
	// only handle numerics.
	if !v.IsNumeric() || !o.IsNumeric() {
		return Null, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, v.Kind(), o.Kind())
	}
	if v.kind == KindInt && o.kind == KindInt {
		a, b := v.n, o.n
		switch op {
		case "+":
			return NewInt(a + b), nil
		case "-":
			return NewInt(a - b), nil
		case "*":
			return NewInt(a * b), nil
		case "/":
			if b == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewInt(a / b), nil
		case "%":
			if b == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewInt(a % b), nil
		}
	}
	a, _ := v.AsFloat()
	b, _ := o.AsFloat()
	switch op {
	case "+":
		return NewFloat(a + b), nil
	case "-":
		return NewFloat(a - b), nil
	case "*":
		return NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewFloat(a / b), nil
	case "%":
		return Null, fmt.Errorf("operator %% requires integer operands")
	}
	return Null, fmt.Errorf("unknown operator %s", op)
}

// Neg returns -v for numeric v.
func Neg(v Value) (Value, error) {
	switch v.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-v.n), nil
	case KindFloat:
		return NewFloat(-v.float()), nil
	default:
		return Null, fmt.Errorf("unary minus requires a numeric operand, got %s", v.Kind())
	}
}

// Concat returns the string concatenation v || o; NULL if either is NULL.
func Concat(v, o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null, nil
	}
	return NewString(v.String() + o.String()), nil
}
