package almanac

import "errors"

// Shared scalar operator semantics. Deployment-time constant folding
// (EvalConst) and the two runtime back ends in internal/core (the AST
// interpreter and the register VM) all evaluate the same Almanac
// operators; routing every float/bool/string case through this one
// table keeps the three from drifting. Integer arithmetic is the only
// semantics the runtime adds on top (int64 + - * / when both operands
// are longs); EvalConst stays all-float, as deployment-time analysis
// always has.

// ErrDivZero is the sentinel NumArith returns for x/0; callers wrap it
// with their own context (line numbers, "core:" prefixes).
var ErrDivZero = errors.New("division by zero")

// NumArith applies a numeric arithmetic operator to float operands.
// ok reports whether op is an arithmetic operator at all.
func NumArith(op string, l, r float64) (res float64, ok bool, err error) {
	switch op {
	case "+":
		return l + r, true, nil
	case "-":
		return l - r, true, nil
	case "*":
		return l * r, true, nil
	case "/":
		if r == 0 {
			return 0, true, ErrDivZero
		}
		return l / r, true, nil
	}
	return 0, false, nil
}

// NumCompare applies a numeric comparison operator to float operands.
func NumCompare(op string, l, r float64) (res bool, ok bool) {
	switch op {
	case "==":
		return l == r, true
	case "<>":
		return l != r, true
	case "<=":
		return l <= r, true
	case ">=":
		return l >= r, true
	case "<":
		return l < r, true
	case ">":
		return l > r, true
	}
	return false, false
}

// StrCompare applies ==/<> to string operands.
func StrCompare(op string, l, r string) (res bool, ok bool) {
	switch op {
	case "==":
		return l == r, true
	case "<>":
		return l != r, true
	}
	return false, false
}

// BoolLogic applies and/or to bool operands (no short-circuit — both
// sides are already evaluated by the time this is consulted).
func BoolLogic(op string, l, r bool) (res bool, ok bool) {
	switch op {
	case "and":
		return l && r, true
	case "or":
		return l || r, true
	}
	return false, false
}
