package value

import (
	"math"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "FLOAT", KindString: "STRING", KindDateTime: "DATETIME",
		KindDuration: "DURATION", KindList: "LIST", KindMap: "MAP",
		KindNode: "NODE", KindRelationship: "RELATIONSHIP",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null should be null")
	}
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true) accessor failed")
	}
	if i, ok := Int(42).AsInt(); !ok || i != 42 {
		t.Error("Int(42) accessor failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float(2.5) accessor failed")
	}
	if s, ok := Str("hi").AsString(); !ok || s != "hi" {
		t.Error("Str accessor failed")
	}
	now := time.Now()
	if tt, ok := DateTime(now).AsDateTime(); !ok || !tt.Equal(now) {
		t.Error("DateTime accessor failed")
	}
	if d, ok := Duration(time.Hour).AsDuration(); !ok || d != time.Hour {
		t.Error("Duration accessor failed")
	}
	l, ok := List(Int(1), Int(2)).AsList()
	if !ok || len(l) != 2 {
		t.Error("List accessor failed")
	}
	m, ok := Map(map[string]Value{"a": Int(1)}).AsMap()
	if !ok || len(m) != 1 {
		t.Error("Map accessor failed")
	}
	if id, ok := Node(7).EntityID(); !ok || id != 7 {
		t.Error("Node accessor failed")
	}
	if id, ok := Relationship(9).EntityID(); !ok || id != 9 {
		t.Error("Relationship accessor failed")
	}
	if _, ok := Int(1).EntityID(); ok {
		t.Error("Int should not be an entity")
	}
}

func TestWrongKindAccessors(t *testing.T) {
	if _, ok := Int(1).AsBool(); ok {
		t.Error("AsBool on Int should fail")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Error("AsInt on Str should fail")
	}
	if _, ok := Bool(true).AsFloat(); ok {
		t.Error("AsFloat on Bool should fail")
	}
	if _, ok := Null.AsList(); ok {
		t.Error("AsList on Null should fail")
	}
}

func TestNumberAsFloat(t *testing.T) {
	if f, ok := Int(3).NumberAsFloat(); !ok || f != 3 {
		t.Error("Int→float failed")
	}
	if f, ok := Float(1.5).NumberAsFloat(); !ok || f != 1.5 {
		t.Error("Float→float failed")
	}
	if _, ok := Str("3").NumberAsFloat(); ok {
		t.Error("Str should not be a number")
	}
}

func TestTruthy(t *testing.T) {
	if v, k := Bool(true).Truthy(); !k || !v {
		t.Error("true truthy")
	}
	if v, k := Bool(false).Truthy(); !k || v {
		t.Error("false truthy")
	}
	if _, k := Null.Truthy(); k {
		t.Error("null should be unknown")
	}
	if _, k := Int(1).Truthy(); k {
		t.Error("non-boolean should be unknown")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-5), "-5"},
		{Float(2), "2.0"},
		{Float(2.25), "2.25"},
		{Str("a\"b"), `"a\"b"`},
		{List(Int(1), Str("x")), `[1, "x"]`},
		{Map(map[string]Value{"b": Int(2), "a": Int(1)}), "{a: 1, b: 2}"},
		{Node(3), "Node(3)"},
		{Relationship(4), "Rel(4)"},
		{Duration(90 * time.Second), "1m30s"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.kind, got, c.want)
		}
	}
}

func TestFromGoRoundTrip(t *testing.T) {
	now := time.Now()
	inputs := []any{nil, true, 42, int64(7), 3.5, "s", now, time.Minute,
		[]any{1, "a"}, map[string]any{"k": 1}}
	for _, in := range inputs {
		v := FromGo(in)
		out := v.Go()
		switch want := in.(type) {
		case nil:
			if out != nil {
				t.Errorf("nil round trip got %v", out)
			}
		case int:
			if out.(int64) != int64(want) {
				t.Errorf("int round trip got %v", out)
			}
		case []any:
			got := out.([]any)
			if len(got) != len(want) {
				t.Errorf("list round trip got %v", out)
			}
		case map[string]any:
			got := out.(map[string]any)
			if len(got) != len(want) {
				t.Errorf("map round trip got %v", out)
			}
		case time.Time:
			if !out.(time.Time).Equal(want) {
				t.Errorf("time round trip got %v", out)
			}
		default:
			if out != in {
				t.Errorf("round trip %v got %v", in, out)
			}
		}
	}
}

func TestFromGoValuePassThrough(t *testing.T) {
	v := Int(5)
	if got := FromGo(v); got.kind != KindInt || got.i != 5 {
		t.Error("FromGo(Value) should pass through")
	}
	if got := FromGo(uint32(9)); got.kind != KindInt || got.i != 9 {
		t.Error("FromGo(uint32) failed")
	}
	if got := FromGo(float32(1.5)); got.kind != KindFloat || got.f != 1.5 {
		t.Error("FromGo(float32) failed")
	}
	type odd struct{}
	if got := FromGo(odd{}); got.kind != KindString {
		t.Error("FromGo(unknown) should stringify")
	}
}

func TestEqualTernary(t *testing.T) {
	if _, known := Equal(Null, Int(1)); known {
		t.Error("null = 1 should be unknown")
	}
	if eq, known := Equal(Int(1), Float(1.0)); !known || !eq {
		t.Error("1 = 1.0 should be true")
	}
	if eq, known := Equal(Int(1), Str("1")); !known || eq {
		t.Error("1 = '1' should be false")
	}
	if eq, known := Equal(Str("a"), Str("a")); !known || !eq {
		t.Error("'a' = 'a' should be true")
	}
	if eq, known := Equal(Node(1), Node(1)); !known || !eq {
		t.Error("node(1) = node(1)")
	}
	if eq, known := Equal(Node(1), Relationship(1)); !known || eq {
		t.Error("node vs rel should be false")
	}
}

func TestEqualLists(t *testing.T) {
	a := List(Int(1), Int(2))
	b := List(Int(1), Int(2))
	c := List(Int(1), Int(3))
	d := List(Int(1))
	if eq, known := Equal(a, b); !known || !eq {
		t.Error("equal lists")
	}
	if eq, known := Equal(a, c); !known || eq {
		t.Error("unequal lists")
	}
	if eq, known := Equal(a, d); !known || eq {
		t.Error("different length lists")
	}
	// List with null element vs equal prefix: unknown.
	e := List(Int(1), Null)
	f := List(Int(1), Int(2))
	if _, known := Equal(e, f); known {
		t.Error("list with null should be unknown")
	}
	// But a definite mismatch dominates the null.
	g := List(Int(9), Null)
	if eq, known := Equal(g, f); !known || eq {
		t.Error("definite mismatch should be known false")
	}
}

func TestEqualMaps(t *testing.T) {
	a := Map(map[string]Value{"x": Int(1), "y": Str("s")})
	b := Map(map[string]Value{"x": Int(1), "y": Str("s")})
	c := Map(map[string]Value{"x": Int(1), "z": Str("s")})
	if eq, known := Equal(a, b); !known || !eq {
		t.Error("equal maps")
	}
	if eq, known := Equal(a, c); !known || eq {
		t.Error("maps with different keys")
	}
}

func TestSameValue(t *testing.T) {
	if !SameValue(Null, Null) {
		t.Error("null same as null")
	}
	if SameValue(Int(1), Float(1)) {
		t.Error("1 and 1.0 are not the same value for grouping")
	}
	if !SameValue(List(Int(1), Null), List(Int(1), Null)) {
		t.Error("lists with nulls group together")
	}
	if !SameValue(Map(map[string]Value{"a": Null}), Map(map[string]Value{"a": Null})) {
		t.Error("maps with nulls group together")
	}
}

func TestCompareOrdering(t *testing.T) {
	// Within numbers.
	if Compare(Int(1), Int(2)) >= 0 {
		t.Error("1 < 2")
	}
	if Compare(Float(1.5), Int(1)) <= 0 {
		t.Error("1.5 > 1")
	}
	if Compare(Int(3), Float(3)) != 0 {
		t.Error("3 == 3.0 in ordering")
	}
	// Strings order before numbers (openCypher kind order).
	if Compare(Str("z"), Int(0)) >= 0 {
		t.Error("strings sort before numbers")
	}
	// NULL last.
	if Compare(Null, Int(1)) <= 0 {
		t.Error("null sorts last")
	}
	if Compare(Null, Null) != 0 {
		t.Error("null == null in ordering")
	}
	// Lists element-wise, then by length.
	if Compare(List(Int(1)), List(Int(1), Int(0))) >= 0 {
		t.Error("shorter prefix list sorts first")
	}
	// Booleans: false < true.
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("false < true")
	}
	// DateTimes.
	t0 := time.Now()
	if Compare(DateTime(t0), DateTime(t0.Add(time.Second))) >= 0 {
		t.Error("earlier datetime sorts first")
	}
}

func TestLess3(t *testing.T) {
	if _, known := Less3(Null, Int(1)); known {
		t.Error("null < 1 is unknown")
	}
	if less, known := Less3(Int(1), Float(1.5)); !known || !less {
		t.Error("1 < 1.5")
	}
	if _, known := Less3(Int(1), Str("a")); known {
		t.Error("cross-kind < is unknown")
	}
	if less, known := Less3(Str("a"), Str("b")); !known || !less {
		t.Error("'a' < 'b'")
	}
}

// TestHashKeyDistinguishes: values of different kinds, or of one kind and
// different contents, have different keys. An integral FLOAT keys as its
// INTEGER (1.0 ≡ 1), so the FLOAT here is a fractional one.
func TestHashKeyDistinguishes(t *testing.T) {
	vals := []Value{
		Null, Bool(true), Bool(false), Int(0), Int(1), Float(0.5),
		Str(""), Str("0"), Node(0), Relationship(0),
		List(), List(Int(1)), List(Str("1")),
		Map(map[string]Value{}), Map(map[string]Value{"a": Int(1)}),
		Duration(0), DateTime(time.Unix(0, 0)),
	}
	seen := map[Key]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

func TestHashKeyStable(t *testing.T) {
	a := Map(map[string]Value{"x": Int(1), "y": List(Str("a"), Null)})
	b := Map(map[string]Value{"y": List(Str("a"), Null), "x": Int(1)})
	if a.Key() != b.Key() {
		t.Error("a map's key should not depend on its iteration order")
	}
}

func TestHashKeyNegativeZero(t *testing.T) {
	pos := Float(0.0)
	neg := Float(math.Copysign(0, -1))
	if !SameValue(pos, neg) {
		t.Fatal("+0.0 and -0.0 are the same value")
	}
	if pos.Key() != neg.Key() || neg.Key() != Int(0).Key() {
		t.Error("+0.0, -0.0 and 0 must have one key")
	}
}
