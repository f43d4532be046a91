package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/big"
	"testing"
	"time"
	"unsafe"
)

// The key fuzzer decodes a byte string into values of mixed kinds and checks
// the one rule of equality, equivalence and keys (openCypher CIP2016-06-14)
// on every pair and triple of them:
//   - Key(a) == Key(b) exactly when a ≡ b: a = b, or both NULL, or both NaN,
//     element-wise in lists and maps; and equal keys hash alike;
//   - numbers compare exactly: INTEGER against FLOAT = agrees with an
//     arbitrary-precision comparison;
//   - Compare(a, b) == 0 wherever a = b is known and true;
//   - = is transitive, and SelfEqual is a = a.

// Tables the decoder draws from: the edges of float64's exact integers
// (±2⁵³) and of int64 (±2⁶³), both zeros, NaN and the infinities.
var (
	fuzzInts = []int64{0, 1, -1, 2, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1<<53 + 1),
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, 1 << 62}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 1.5, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1),
		1 << 53, 1<<53 + 2, 0x1p63, -0x1p63, 0x1p64, 0.1, 1e300}
	fuzzStrings = []string{"", "a", "0", "1", "r0", "\x00"}
	fuzzInstant = []time.Time{time.Unix(0, 0), time.Unix(1680307200, 5), time.Unix(-1<<40, 999999999)}
	fuzzZones   = []*time.Location{time.UTC, time.FixedZone("CEST", 2*3600), time.FixedZone("W", -5*3600)}
	fuzzNames   = []string{"a", "b", "c"}
)

const (
	tagNull = iota
	tagBool
	tagInt
	tagFloat
	tagString
	tagDateTime
	tagDuration
	tagNode
	tagRel
	tagList
	tagMap
	nTags
	rawPayload = 0xff // after tagInt or tagFloat: 8 raw bytes follow
)

// fuzzDecoder reads values from a byte string; past its end every byte
// reads as 0.
type fuzzDecoder struct{ b []byte }

func (d *fuzzDecoder) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *fuzzDecoder) raw() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = d.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *fuzzDecoder) value(depth int) Value {
	tag := int(d.byte()) % nTags
	if depth > 2 && tag >= tagList {
		tag = tagInt
	}
	switch tag {
	case tagNull:
		return Null
	case tagBool:
		return Bool(d.byte()%2 == 1)
	case tagInt:
		if sel := d.byte(); sel != rawPayload {
			return Int(fuzzInts[int(sel)%len(fuzzInts)])
		}
		return Int(int64(d.raw()))
	case tagFloat:
		if sel := d.byte(); sel != rawPayload {
			return Float(fuzzFloats[int(sel)%len(fuzzFloats)])
		}
		return Float(math.Float64frombits(d.raw()))
	case tagString:
		return Str(fuzzStrings[int(d.byte())%len(fuzzStrings)])
	case tagDateTime:
		t := fuzzInstant[int(d.byte())%len(fuzzInstant)]
		return DateTime(t.In(fuzzZones[int(d.byte())%len(fuzzZones)]))
	case tagDuration:
		return Duration(time.Duration(d.byte()%3) * time.Second)
	case tagNode:
		return Node(int64(d.byte() % 3))
	case tagRel:
		return Relationship(int64(d.byte() % 3))
	case tagList:
		vs := make([]Value, d.byte()%4)
		for i := range vs {
			vs[i] = d.value(depth + 1)
		}
		return ListOf(vs)
	default:
		m := map[string]Value{}
		for n := d.byte() % 4; n > 0; n-- {
			name := fuzzNames[int(d.byte())%len(fuzzNames)]
			m[name] = d.value(depth + 1)
		}
		return Map(m)
	}
}

// fuzzEncode is the decoder's inverse for the seeds: numbers go raw.
func fuzzEncode(v Value) []byte {
	index := func(n int, eq func(int) bool) byte {
		for i := 0; i < n; i++ {
			if eq(i) {
				return byte(i)
			}
		}
		panic("fuzzEncode: no table entry for " + v.String())
	}
	raw := func(tag byte, bits uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{tag, rawPayload}, bits)
	}
	switch v.kind {
	case KindNull:
		return []byte{tagNull}
	case KindBool:
		if v.b {
			return []byte{tagBool, 1}
		}
		return []byte{tagBool, 0}
	case KindInt:
		return raw(tagInt, uint64(v.i))
	case KindFloat:
		return raw(tagFloat, math.Float64bits(v.f))
	case KindString:
		return []byte{tagString, index(len(fuzzStrings), func(i int) bool { return fuzzStrings[i] == v.s })}
	case KindDateTime:
		return []byte{tagDateTime,
			index(len(fuzzInstant), func(i int) bool { return fuzzInstant[i].Equal(v.t) }),
			index(len(fuzzZones), func(i int) bool { return fuzzZones[i] == v.t.Location() })}
	case KindDuration:
		return []byte{tagDuration, byte(v.i / int64(time.Second))}
	case KindNode:
		return []byte{tagNode, byte(v.i)}
	case KindRelationship:
		return []byte{tagRel, byte(v.i)}
	case KindList:
		out := []byte{tagList, byte(len(v.list))}
		for _, e := range v.list {
			out = append(out, fuzzEncode(e)...)
		}
		return out
	default:
		out := []byte{tagMap, byte(len(v.m))}
		for _, name := range sortedKeys(v.m) {
			out = append(out, index(len(fuzzNames), func(i int) bool { return fuzzNames[i] == name }))
			out = append(out, fuzzEncode(v.m[name])...)
		}
		return out
	}
}

// equivalent is a ≡ b from its definition: equality, with NULL ≡ NULL and
// NaN ≡ NaN, element-wise.
func equivalent(a, b Value) bool {
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return a.kind == b.kind
	case isNaN(a) || isNaN(b):
		return isNaN(a) && isNaN(b)
	case a.kind == KindList && b.kind == KindList:
		if len(a.list) != len(b.list) {
			return false
		}
		for i := range a.list {
			if !equivalent(a.list[i], b.list[i]) {
				return false
			}
		}
		return true
	case a.kind == KindMap && b.kind == KindMap:
		if len(a.m) != len(b.m) {
			return false
		}
		for name, av := range a.m {
			bv, ok := b.m[name]
			if !ok || !equivalent(av, bv) {
				return false
			}
		}
		return true
	}
	eq, known := Equal(a, b)
	return known && eq
}

func isNaN(v Value) bool { return v.kind == KindFloat && v.f != v.f }

// exactCompare compares two numbers, neither NaN, in arbitrary precision.
func exactCompare(a, b Value) int {
	exact := func(v Value) *big.Float {
		if v.kind == KindInt {
			return new(big.Float).SetInt64(v.i)
		}
		return new(big.Float).SetFloat64(v.f)
	}
	return exact(a).Cmp(exact(b))
}

var fuzzSeed = maphash.MakeSeed()

func checkKeyRule(t *testing.T, vs []Value) {
	for _, a := range vs {
		if eq, known := Equal(a, a); a.Key().SelfEqual() != (known && eq) {
			t.Fatalf("%v: SelfEqual %v, but %v = %v is (%v, known %v)", a, a.Key().SelfEqual(), a, a, eq, known)
		}
		for _, b := range vs {
			ka, kb := a.Key(), b.Key()
			if (ka == kb) != equivalent(a, b) {
				t.Fatalf("%v, %v: one key %v, equivalent %v", a, b, ka == kb, equivalent(a, b))
			}
			if ka == kb && ka.Hash(fuzzSeed) != kb.Hash(fuzzSeed) {
				t.Fatalf("%v, %v: one key, two hashes", a, b)
			}
			eq, known := Equal(a, b)
			if a.IsNumber() && b.IsNumber() && !isNaN(a) && !isNaN(b) {
				if c := exactCompare(a, b); (c == 0) != eq || compareNumeric(a, b) != c {
					t.Fatalf("%v, %v: = says %v and Compare %d, exactly they compare %d", a, b, eq, compareNumeric(a, b), c)
				}
			}
			if known && eq && Compare(a, b) != 0 {
				t.Fatalf("%v = %v, but Compare gives %d", a, b, Compare(a, b))
			}
			for _, c := range vs {
				if e1, k1 := Equal(b, c); known && eq && k1 && e1 {
					if e2, k2 := Equal(a, c); !k2 || !e2 {
						t.Fatalf("%v = %v and %v = %v, but %v = %v is (%v, known %v)", a, b, b, c, a, c, e2, k2)
					}
				}
			}
		}
	}
}

// keySeeds are the fuzzer's seed values, each group decoded as one input.
func keySeeds() [][]Value {
	negZero := Float(math.Copysign(0, -1))
	at := time.Unix(1680307200, 5)
	return [][]Value{
		// −0.0 keys as 0.0 and as 0.
		{Float(0), negZero, Int(0)},
		// Map keys do not depend on insertion order, with a NULL inside.
		{Map(map[string]Value{"a": Int(1), "b": List(Str("a"), Null)}),
			Map(map[string]Value{"b": List(Str("a"), Null), "a": Int(1)})},
		// Kinds stay apart.
		{Null, Bool(false), Int(0), Str(""), Str("0"), Node(0), Relationship(0), Duration(0),
			DateTime(time.Unix(0, 0).UTC()), List(), Map(map[string]Value{})},
		{List(Int(1)), List(Str("1")), Map(map[string]Value{"a": Int(1)}), Str("1")},
		// INTEGER and FLOAT around 2⁵³: = is exact, so it is transitive.
		{Int(1<<53 + 1), Float(1 << 53), Int(1 << 53)},
		{Int(-(1<<53 + 1)), Float(-(1 << 53)), Int(-(1 << 53))},
		// Around 2⁶³: the FLOAT 2⁶³ is above every INTEGER.
		{Int(math.MaxInt64), Float(0x1p63), Int(math.MinInt64), Float(-0x1p63)},
		// NaN is one key and equals nothing; the infinities.
		{Float(math.NaN()), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), List(Float(math.NaN()))},
		// One instant in two zones.
		{DateTime(at.In(time.UTC)), DateTime(at.In(fuzzZones[1])), DateTime(at.In(fuzzZones[2]))},
		// Nested lists and maps with numbers of both kinds.
		{List(List(Int(1), Int(2))), List(List(Float(1), Int(2))), List(List(Float(1.5), Int(2)))},
		{Map(map[string]Value{"a": List(Int(1), Null)}), Map(map[string]Value{"a": List(Float(1), Null)})},
	}
}

func FuzzValueKey(f *testing.F) {
	for _, group := range keySeeds() {
		var in []byte
		for _, v := range group {
			// The seeds decode to the values they encode, so the fuzzer
			// starts from exactly the cases above.
			if got := (&fuzzDecoder{b: fuzzEncode(v)}).value(0); !SameValue(got, v) {
				f.Fatalf("%v decodes as %v", v, got)
			}
			in = append(in, fuzzEncode(v)...)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{b: data}
		var vs []Value
		for len(d.b) > 0 && len(vs) < 6 {
			vs = append(vs, d.value(0))
		}
		checkKeyRule(t, vs)
	})
}

// TestKeyMotivatingCases pins the answers the key rule gives where a float64
// conversion or a zone-keeping key gave others.
func TestKeyMotivatingCases(t *testing.T) {
	if eq, _ := Equal(Int(1<<53+1), Float(1<<53)); eq {
		t.Error("9007199254740993 = 9007199254740992.0 must be false")
	}
	if Int(1).Key() != Float(1).Key() || List(Int(1), Int(2)).Key() != List(Float(1), Int(2)).Key() {
		t.Error("1 and 1.0, and [1, 2] and [1.0, 2], must be one key")
	}
	at := time.Unix(1680307200, 5)
	if DateTime(at.In(time.UTC)).Key() != DateTime(at.In(time.FixedZone("X", 3600))).Key() {
		t.Error("one instant in two zones must be one key")
	}
}

// TestKeyScalarAllocatesNothing: a scalar's key, and a one-column row's,
// allocates nothing, and a key fits in 32 bytes.
func TestKeyScalarAllocatesNothing(t *testing.T) {
	if size := unsafe.Sizeof(Key{}); size > 32 {
		t.Errorf("a Key takes %d bytes, want at most 32", size)
	}
	s := "a property's own string"
	for _, v := range []Value{Null, Bool(true), Int(7), Float(1.5), Float(2), Float(math.NaN()), Str(s),
		DateTime(time.Unix(5, 6)), Duration(time.Second), Node(3), Relationship(4)} {
		row := []Value{v}
		if n := testing.AllocsPerRun(100, func() { _ = v.Key(); _ = TupleKey(row) }); n != 0 {
			t.Errorf("%v: %v allocations per key, want 0", v, n)
		}
	}
	if k := Str(s).Key(); unsafe.StringData(k.s) != unsafe.StringData(s) {
		t.Error("a STRING's key copies its bytes")
	}
}
