package value

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Key is a comparable stand-in for a value under Cypher's equivalence
// (openCypher CIP2016-06-14), which governs grouping, DISTINCT,
// property-index postings and maintained aggregates: two keys are equal
// exactly when their values are equivalent. Equivalence is equality (Equal),
// except that NULL ≡ NULL and NaN ≡ NaN, also inside lists and maps. So an
// integral FLOAT within int64 keys as that INTEGER (−0.0 as 0), any other
// FLOAT by its bits, a DATETIME by its instant whatever its zone, and a LIST
// or MAP element-wise, which allocates once; no other key allocates, and a
// STRING's shares its bytes. The zero Key is NULL's.
type Key struct {
	s    string // a STRING's bytes, or a LIST's or MAP's encoded elements
	n    int64  // a number, a FLOAT's bits, a boolean, an identifier or a Unix second
	kind uint8  // the Kind keyed: KindInt for every integral number; kindNaN
	// aux is a DATETIME's nanosecond; for a LIST or MAP, 1 when an element
	// is not equal to itself.
	aux uint32
}

const kindNaN = 0xff

// Key returns v's key.
func (v Value) Key() Key {
	k := Key{kind: uint8(v.kind), n: v.i}
	switch v.kind {
	case KindBool:
		if v.b {
			k.n = 1
		}
	case KindFloat:
		switch f := v.f; {
		case f != f:
			k.kind = kindNaN
		case f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f):
			k.kind, k.n = uint8(KindInt), int64(f)
		default:
			k.n = int64(math.Float64bits(f))
		}
	case KindString:
		k.s = v.s
	case KindDateTime:
		k.n, k.aux = v.t.Unix(), uint32(v.t.Nanosecond())
	case KindList, KindMap:
		b, self := v.appendKey(nil)
		if k.s = string(b); !self {
			k.aux = 1
		}
	}
	return k
}

// TupleKey returns the key of a row of values, for rows of one width: no
// row keys as NULL and one value as its own key, without allocating.
func TupleKey(vs []Value) Key {
	switch len(vs) {
	case 0:
		return Key{}
	case 1:
		return vs[0].Key()
	}
	return ListOf(vs).Key()
}

// SelfEqual reports whether the keyed value is equal to itself under =. One
// that is not — NULL, NaN, or a LIST or MAP holding one — equals nothing,
// so an index seek or a maintained read for it finds nothing.
func (k Key) SelfEqual() bool {
	switch Kind(k.kind) {
	case KindNull, kindNaN:
		return false
	case KindList, KindMap:
		return k.aux == 0
	}
	return true
}

// Hash returns k's hash under seed; equal keys hash alike. The Fibonacci
// product carries n's low bits to the top ones, which a trie reads first.
func (k Key) Hash(seed maphash.Seed) uint64 {
	return maphash.String(seed, k.s) ^ (uint64(k.n)^uint64(k.kind)<<56^uint64(k.aux)<<24)*0x9e3779b97f4a7c15
}

// appendKey appends an encoding of v's key to b that decodes one way, and
// reports whether v is equal to itself.
func (v Value) appendKey(b []byte) ([]byte, bool) {
	self, s := true, true
	switch v.kind {
	case KindList:
		b = binary.AppendUvarint(append(b, uint8(KindList)), uint64(len(v.list)))
		for _, e := range v.list {
			b, s = e.appendKey(b)
			self = self && s
		}
	case KindMap:
		b = binary.AppendUvarint(append(b, uint8(KindMap)), uint64(len(v.m)))
		for _, name := range sortedKeys(v.m) {
			b = append(binary.AppendUvarint(b, uint64(len(name))), name...)
			b, s = v.m[name].appendKey(b)
			self = self && s
		}
	default:
		k := v.Key()
		b = binary.LittleEndian.AppendUint64(append(b, k.kind), uint64(k.n))
		b = binary.LittleEndian.AppendUint32(b, k.aux)
		b = append(binary.AppendUvarint(b, uint64(len(k.s))), k.s...)
		self = k.SelfEqual()
	}
	return b, self
}
