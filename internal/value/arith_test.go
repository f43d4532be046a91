package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustOp(t *testing.T) func(Value, error) Value {
	return func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
}

func TestAdd(t *testing.T) {
	if v := mustOp(t)(Add(Int(2), Int(3))); !SameValue(v, Int(5)) {
		t.Errorf("2+3 = %s", v)
	}
	if v := mustOp(t)(Add(Int(2), Float(0.5))); !SameValue(v, Float(2.5)) {
		t.Errorf("2+0.5 = %s", v)
	}
	if v := mustOp(t)(Add(Str("a"), Str("b"))); !SameValue(v, Str("ab")) {
		t.Errorf("'a'+'b' = %s", v)
	}
	if v := mustOp(t)(Add(Null, Int(1))); !v.IsNull() {
		t.Error("null + 1 should be null")
	}
	if _, err := Add(Bool(true), Int(1)); err == nil {
		t.Error("true + 1 should error")
	}
	// Lists.
	v := mustOp(t)(Add(List(Int(1)), List(Int(2))))
	if l, _ := v.AsList(); len(l) != 2 {
		t.Error("list concat")
	}
	v = mustOp(t)(Add(List(Int(1)), Int(2)))
	if l, _ := v.AsList(); len(l) != 2 || !SameValue(l[1], Int(2)) {
		t.Error("list append")
	}
	v = mustOp(t)(Add(Int(0), List(Int(1))))
	if l, _ := v.AsList(); len(l) != 2 || !SameValue(l[0], Int(0)) {
		t.Error("list prepend")
	}
	// Temporal.
	t0 := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	v = mustOp(t)(Add(DateTime(t0), Duration(24*time.Hour)))
	if ts, _ := v.AsDateTime(); ts.Day() != 2 {
		t.Error("datetime + duration")
	}
	v = mustOp(t)(Add(Duration(time.Hour), Duration(time.Minute)))
	if d, _ := v.AsDuration(); d != time.Hour+time.Minute {
		t.Error("duration + duration")
	}
	v = mustOp(t)(Add(Duration(time.Hour), DateTime(t0)))
	if ts, _ := v.AsDateTime(); ts.Hour() != 1 {
		t.Error("duration + datetime")
	}
}

func TestSub(t *testing.T) {
	if v := mustOp(t)(Sub(Int(5), Int(3))); !SameValue(v, Int(2)) {
		t.Errorf("5-3 = %s", v)
	}
	if v := mustOp(t)(Sub(Float(1), Int(2))); !SameValue(v, Float(-1)) {
		t.Errorf("1.0-2 = %s", v)
	}
	t0 := time.Date(2023, 4, 2, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(-24 * time.Hour)
	v := mustOp(t)(Sub(DateTime(t0), DateTime(t1)))
	if d, _ := v.AsDuration(); d != 24*time.Hour {
		t.Error("datetime - datetime")
	}
	v = mustOp(t)(Sub(DateTime(t0), Duration(time.Hour)))
	if ts, _ := v.AsDateTime(); ts.Hour() != 23 {
		t.Error("datetime - duration")
	}
	if v := mustOp(t)(Sub(Null, Null)); !v.IsNull() {
		t.Error("null propagation")
	}
	if _, err := Sub(Str("a"), Str("b")); err == nil {
		t.Error("string - string should error")
	}
}

func TestMulDivMod(t *testing.T) {
	if v := mustOp(t)(Mul(Int(4), Int(3))); !SameValue(v, Int(12)) {
		t.Error("4*3")
	}
	if v := mustOp(t)(Mul(Float(0.5), Int(4))); !SameValue(v, Float(2)) {
		t.Error("0.5*4")
	}
	if v := mustOp(t)(Mul(Duration(time.Minute), Int(3))); !SameValue(v, Duration(3*time.Minute)) {
		t.Error("duration * int")
	}
	if v := mustOp(t)(Div(Int(7), Int(2))); !SameValue(v, Int(3)) {
		t.Error("integer division truncates")
	}
	if v := mustOp(t)(Div(Int(7), Float(2))); !SameValue(v, Float(3.5)) {
		t.Error("mixed division")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("int/0 should error")
	}
	v := mustOp(t)(Div(Float(1), Float(0)))
	if f, _ := v.AsFloat(); !math.IsInf(f, 1) {
		t.Error("float/0 is +Inf")
	}
	if v := mustOp(t)(Mod(Int(7), Int(3))); !SameValue(v, Int(1)) {
		t.Error("7%3")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("mod by zero should error")
	}
	if v := mustOp(t)(Mod(Float(7.5), Int(2))); !SameValue(v, Float(1.5)) {
		t.Error("float mod")
	}
}

func TestPowNeg(t *testing.T) {
	if v := mustOp(t)(Pow(Int(2), Int(10))); !SameValue(v, Float(1024)) {
		t.Error("2^10")
	}
	if v := mustOp(t)(Pow(Null, Int(2))); !v.IsNull() {
		t.Error("null^2")
	}
	if _, err := Pow(Str("x"), Int(2)); err == nil {
		t.Error("string pow should error")
	}
	if v := mustOp(t)(Neg(Int(5))); !SameValue(v, Int(-5)) {
		t.Error("-5")
	}
	if v := mustOp(t)(Neg(Float(2.5))); !SameValue(v, Float(-2.5)) {
		t.Error("-2.5")
	}
	if v := mustOp(t)(Neg(Duration(time.Hour))); !SameValue(v, Duration(-time.Hour)) {
		t.Error("-duration")
	}
	if v := mustOp(t)(Neg(Null)); !v.IsNull() {
		t.Error("-null")
	}
	if _, err := Neg(Str("a")); err == nil {
		t.Error("-string should error")
	}
}

func TestConversions(t *testing.T) {
	if v := mustOp(t)(ToFloat(Int(3))); !SameValue(v, Float(3)) {
		t.Error("toFloat(3)")
	}
	if v := mustOp(t)(ToFloat(Str("2.5"))); !SameValue(v, Float(2.5)) {
		t.Error("toFloat('2.5')")
	}
	if v := mustOp(t)(ToFloat(Str("junk"))); !v.IsNull() {
		t.Error("toFloat('junk') is null")
	}
	if v := mustOp(t)(ToInteger(Float(3.9))); !SameValue(v, Int(3)) {
		t.Error("toInteger truncates")
	}
	if v := mustOp(t)(ToInteger(Str("41"))); !SameValue(v, Int(41)) {
		t.Error("toInteger('41')")
	}
	if v := mustOp(t)(ToInteger(Str("4.9"))); !SameValue(v, Int(4)) {
		t.Error("toInteger('4.9')")
	}
	if v := mustOp(t)(ToInteger(Bool(true))); !SameValue(v, Int(1)) {
		t.Error("toInteger(true)")
	}
	if v := mustOp(t)(ToInteger(Float(math.NaN()))); !v.IsNull() {
		t.Error("toInteger(NaN) is null")
	}
	if v := mustOp(t)(ToString(Int(7))); !SameValue(v, Str("7")) {
		t.Error("toString(7)")
	}
	if v := mustOp(t)(ToBoolean(Str("TRUE"))); !SameValue(v, Bool(true)) {
		t.Error("toBoolean('TRUE')")
	}
	if v := mustOp(t)(ToBoolean(Str("nah"))); !v.IsNull() {
		t.Error("toBoolean('nah') is null")
	}
	if v := mustOp(t)(ToBoolean(Int(0))); !SameValue(v, Bool(false)) {
		t.Error("toBoolean(0)")
	}
	if _, err := ToFloat(List()); err == nil {
		t.Error("toFloat(list) should error")
	}
}

func TestParseDateTime(t *testing.T) {
	v, err := ParseDateTime("2023-04-01")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := v.AsDateTime()
	if ts.Year() != 2023 || ts.Month() != 4 || ts.Day() != 1 {
		t.Error("date-only parse")
	}
	if _, err := ParseDateTime("2023-04-01T12:30:00Z"); err != nil {
		t.Error("RFC3339 parse")
	}
	if _, err := ParseDateTime("not a date"); err == nil {
		t.Error("bad date should error")
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]time.Duration{
		"2h":      2 * time.Hour,
		"P1D":     24 * time.Hour,
		"PT12H":   12 * time.Hour,
		"P1DT6H":  30 * time.Hour,
		"PT1M30S": 90 * time.Second,
		"P2W":     14 * 24 * time.Hour,
		"-P1D":    -24 * time.Hour,
		"PT0.5S":  500 * time.Millisecond,
	}
	for in, want := range cases {
		v, err := ParseDuration(in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", in, err)
			continue
		}
		if d, _ := v.AsDuration(); d != want {
			t.Errorf("ParseDuration(%q) = %v, want %v", in, d, want)
		}
	}
	for _, bad := range []string{"", "P", "PX", "P1"} {
		if _, err := ParseDuration(bad); err == nil && bad != "P" {
			t.Errorf("ParseDuration(%q) should error", bad)
		}
	}
}

// Property-based tests on arithmetic and ordering invariants.

func TestPropAddCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		x, err1 := Add(Int(int64(a)), Int(int64(b)))
		y, err2 := Add(Int(int64(b)), Int(int64(a)))
		return err1 == nil && err2 == nil && SameValue(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64, fa, fb float64) bool {
		vals := []Value{Int(a), Int(b), Float(fa), Float(fb), Null, Str("x")}
		for _, x := range vals {
			for _, y := range vals {
				if Compare(x, y) != -Compare(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropCompareTransitiveOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := Int(a), Int(b), Int(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropHashKeyConsistentWithSameValue(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		vals := []Value{Int(a), Int(b), Str(s1), Str(s2),
			List(Int(a), Str(s1)), List(Int(b), Str(s2))}
		for _, x := range vals {
			for _, y := range vals {
				if SameValue(x, y) != (x.Key() == y.Key()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropEqualSymmetric(t *testing.T) {
	f := func(a, b int64, s string) bool {
		vals := []Value{Int(a), Float(float64(b)), Str(s), Null, Bool(a%2 == 0)}
		for _, x := range vals {
			for _, y := range vals {
				e1, k1 := Equal(x, y)
				e2, k2 := Equal(y, x)
				if k1 != k2 || (k1 && e1 != e2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
