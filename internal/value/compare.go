package value

import (
	"cmp"
	"math"
	"slices"
)

// Equal implements Cypher value equality with ternary logic: comparing NULL
// with anything yields NULL (unknown). INTEGER and FLOAT compare exactly as
// numbers across kinds, never through a rounding conversion, so = is
// transitive; NaN equals nothing. Lists compare element-wise, maps key-wise.
// Entity references compare by kind and identifier. The result is reported
// as (equal, known).
func Equal(a, b Value) (eq bool, known bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return false, false
	}
	if a.IsNumber() && b.IsNumber() {
		// f is 0 in an INTEGER, so f != f holds for NaN alone.
		return a.f == a.f && b.f == b.f && compareNumeric(a, b) == 0, true
	}
	if a.kind != b.kind {
		return false, true
	}
	switch a.kind {
	case KindBool:
		return a.b == b.b, true
	case KindString:
		return a.s == b.s, true
	case KindDateTime:
		return a.t.Equal(b.t), true
	case KindDuration:
		return a.i == b.i, true
	case KindNode, KindRelationship:
		return a.i == b.i, true
	case KindList:
		if len(a.list) != len(b.list) {
			return false, true
		}
		unknown := false
		for i := range a.list {
			e, k := Equal(a.list[i], b.list[i])
			if !k {
				unknown = true
				continue
			}
			if !e {
				return false, true
			}
		}
		if unknown {
			return false, false
		}
		return true, true
	case KindMap:
		if len(a.m) != len(b.m) {
			return false, true
		}
		unknown := false
		for k, av := range a.m {
			bv, ok := b.m[k]
			if !ok {
				return false, true
			}
			e, kn := Equal(av, bv)
			if !kn {
				unknown = true
				continue
			}
			if !e {
				return false, true
			}
		}
		if unknown {
			return false, false
		}
		return true, true
	default:
		return false, true
	}
}

// SameValue reports whether a and b are equivalent (Key) and of the same
// kinds, their elements' included: unlike Key, INTEGER 1 is not FLOAT 1.0.
// Tests use it to pin a result's kind.
func SameValue(a, b Value) bool { return a.Key() == b.Key() && sameKinds(a, b) }

// sameKinds reports whether equivalent a and b are of the same kinds.
func sameKinds(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	for i := range a.list {
		if !sameKinds(a.list[i], b.list[i]) {
			return false
		}
	}
	for k, av := range a.m {
		if !sameKinds(av, b.m[k]) {
			return false
		}
	}
	return true
}

// kindOrder assigns each kind a rank for the cross-kind total order used by
// ORDER BY, following the openCypher ordering: maps < nodes < relationships
// < lists < strings < booleans < numbers < datetimes < durations < null.
func kindOrder(k Kind) int {
	switch k {
	case KindMap:
		return 0
	case KindNode:
		return 1
	case KindRelationship:
		return 2
	case KindList:
		return 3
	case KindString:
		return 4
	case KindBool:
		return 5
	case KindInt, KindFloat:
		return 6
	case KindDateTime:
		return 7
	case KindDuration:
		return 8
	case KindNull:
		return 9
	default:
		return 10
	}
}

// Compare imposes a total order over all values, used by ORDER BY, min and
// max. Within numbers, INTEGER and FLOAT compare numerically; across kinds
// the openCypher kind ranking applies and NULL sorts last.
func Compare(a, b Value) int {
	ka, kb := kindOrder(a.kind), kindOrder(b.kind)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	case KindInt, KindFloat:
		return compareNumeric(a, b)
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	case KindDateTime:
		switch {
		case a.t.Before(b.t):
			return -1
		case a.t.After(b.t):
			return 1
		default:
			return 0
		}
	case KindDuration, KindNode, KindRelationship:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindList:
		n := len(a.list)
		if len(b.list) < n {
			n = len(b.list)
		}
		for i := 0; i < n; i++ {
			if c := Compare(a.list[i], b.list[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(a.list) < len(b.list):
			return -1
		case len(a.list) > len(b.list):
			return 1
		default:
			return 0
		}
	case KindMap:
		// Maps are ordered by size then by sorted key sequence; a stable
		// arbitrary-but-deterministic order is all ORDER BY requires.
		if len(a.m) != len(b.m) {
			if len(a.m) < len(b.m) {
				return -1
			}
			return 1
		}
		ak, bk := sortedKeys(a.m), sortedKeys(b.m)
		for i := range ak {
			if ak[i] != bk[i] {
				if ak[i] < bk[i] {
					return -1
				}
				return 1
			}
		}
		for _, k := range ak {
			if c := Compare(a.m[k], b.m[k]); c != 0 {
				return c
			}
		}
		return 0
	default:
		return 0
	}
}

// compareNumeric orders two numbers exactly, INTEGER against FLOAT too;
// NaN sorts after every other number.
func compareNumeric(a, b Value) int {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.i, b.i)
	case a.kind == KindInt:
		return cmpIntFloat(a.i, b.f)
	case b.kind == KindInt:
		return -cmpIntFloat(b.i, a.f)
	}
	an, bn := a.f != a.f, b.f != b.f
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return cmp.Compare(a.f, b.f)
}

// cmpIntFloat compares i with f without rounding i to a float64.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return -1
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f) // within int64, so int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

func sortedKeys(m map[string]Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Less3 applies ternary ordering semantics for the < operator: if either
// operand is NULL, or the operands are of incomparable kinds, the result is
// unknown.
func Less3(a, b Value) (less bool, known bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return false, false
	}
	if a.IsNumber() && b.IsNumber() {
		return compareNumeric(a, b) < 0, true
	}
	if a.kind != b.kind {
		return false, false
	}
	switch a.kind {
	case KindString, KindDateTime, KindDuration, KindBool, KindList:
		return Compare(a, b) < 0, true
	default:
		return false, false
	}
}
