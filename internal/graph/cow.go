package graph

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"repro/internal/metrics"
	"repro/internal/value"
)

// This file is the store's one copy-on-write mechanism. Every mutable part
// of a snapshot — the node and relationship tables, the label and
// relationship-type posting sets, the property indexes and their posting
// sets, each node's outgoing and incoming adjacency, the derived entries, and
// the node and relationship records themselves — is either a cowMap or a value held in
// one, and is changed only through the functions below. They keep one
// invariant:
//
//	A container, trie node or record is mutated only by the builder whose
//	owner token it carries. The first touch by any other builder copies it,
//	stamps the copy and installs the copy in the builder's (already private)
//	parent; later touches by the same builder find the stamp and write in
//	place.
//
// A builder is whatever constructs the next snapshot: a write transaction,
// CreateIndex or DropIndex. It forks the committed snapshot (a struct copy
// under a fresh token), so everything reachable from the fork still carries
// older tokens and is shared until touched. Publishing is just storing the
// pointer: the token is dropped with its builder, so nothing published can
// ever again compare as owned — a published snapshot is immutable without
// being marked so.
//
// A cowMap is a persistent hash-array-mapped trie (Bagwell, "Ideal Hash
// Trees", 2001): 32-way nodes, each holding only its occupied slots, found
// through a 32-bit occupancy bitmap. Every trie node carries an owner token
// too, the way Clojure's transients carry an edit token, so a builder's
// first write to a shared map copies the root-to-leaf path it walks —
// O(log₃₂ n) nodes — and its later writes reuse the copies. Nothing outside
// this file knows the representation.

// owner is the identity token of one snapshot builder.
type owner struct {
	// dirty is set by the builder's first write; a builder that stays
	// clean publishes nothing.
	dirty bool
	// recordsCloned counts the node and relationship records the builder
	// copied (Metrics.RecordsCloned; nil-safe).
	recordsCloned *metrics.Counter
	// nodesCopied counts the trie nodes the builder copied
	// (Metrics.NodesCopied; nil-safe).
	nodesCopied *metrics.Counter
}

// Trie geometry: a level's slot is one base-32 digit of the key's hash,
// most significant first, so a walk visits keys in hash order — for
// identifiers, ID order. The top digit is bits 60–63. Below the digit at
// bit 0 the hash is spent, and a node there is a collision list: leaves
// with equal hashes, in no order, with its bitmap unused.
const (
	trieBits = 5
	trieMask = 1<<trieBits - 1
	trieTop  = 60 // shift of the top digit
)

// cowMap is a map shared between snapshot versions until written. The zero
// value is an empty map owned by nobody. Read methods accept a nil receiver
// (an absent posting set reads as empty).
type cowMap[K comparable, V any] struct {
	root *trieNode[K, V]
	n    int
	by   *owner
}

// trieNode is one node of a cowMap's trie. e holds one entry per set bit of
// bitmap, in slot order.
type trieNode[K comparable, V any] struct {
	by     *owner
	bitmap uint32
	// pre and shift are read on the root only (any other node's depth
	// follows from its parent's): the root's slots are the digit at shift,
	// and pre holds the hash bits above that digit, which every key in the
	// trie shares. The root therefore sits where the keys first differ:
	// dense identifiers below 2^15 take three levels, not thirteen.
	shift uint8
	e     []trieEntry[K, V]
	pre   uint64
}

// trieEntry is a leaf holding one key and its value, or (sub != nil) a link
// to the node one level down. The value precedes the key: a trailing
// zero-size field is padded, so with V = struct{} (every posting set) this
// order makes an entry 16 bytes instead of 24. The key's hash is not
// stored; a split recomputes it.
type trieEntry[K comparable, V any] struct {
	sub *trieNode[K, V]
	v   V
	k   K
}

var trieSeed = maphash.MakeSeed()

// hashOf is the trie hash of a key. Identifiers are their own hash: two
// never collide, and a table's dense IDs fill whole nodes.
func hashOf[K comparable](k K) uint64 {
	switch k := any(k).(type) {
	case NodeID:
		return uint64(k)
	case RelID:
		return uint64(k)
	case int:
		return uint64(k)
	case string:
		return maphash.String(trieSeed, k)
	case indexKey:
		var h maphash.Hash
		h.SetSeed(trieSeed)
		h.WriteString(k.label)
		h.WriteByte(0)
		h.WriteString(k.prop)
		return h.Sum64()
	case value.Key:
		return k.Hash(trieSeed)
	}
	panic("graph: cowMap key type has no hash")
}

// slot returns the bit of h's digit at shift s in a node's bitmap.
func slot(h uint64, s int) uint32 { return 1 << (h >> s & trieMask) }

// get returns the value under k.
func (c *cowMap[K, V]) get(k K) (V, bool) {
	if c == nil || c.root == nil {
		var zero V
		return zero, false
	}
	return c.lookup(hashOf(k), k)
}

// lookup is get for a key whose hash is h; c.root is not nil.
func (c *cowMap[K, V]) lookup(h uint64, k K) (V, bool) {
	var zero V
	n := c.root
	s := int(n.shift)
	if h>>(s+trieBits) != n.pre {
		return zero, false
	}
	for ; s >= 0; s -= trieBits {
		bit := slot(h, s)
		if n.bitmap&bit == 0 {
			return zero, false
		}
		e := &n.e[bits.OnesCount32(n.bitmap&(bit-1))]
		if e.sub == nil {
			if e.k == k {
				return e.v, true
			}
			return zero, false
		}
		n = e.sub
	}
	for i := range n.e {
		if n.e[i].k == k {
			return n.e[i].v, true
		}
	}
	return zero, false
}

// at is get for callers that treat absent as the zero value.
func (c *cowMap[K, V]) at(k K) V {
	v, _ := c.get(k)
	return v
}

func (c *cowMap[K, V]) len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// keys returns the keys in hash order — ascending, for identifiers; never
// nil.
func (c *cowMap[K, V]) keys() []K {
	out := make([]K, 0, c.len())
	c.walk(func(run []trieEntry[K, V]) {
		for i := range run {
			out = append(out, run[i].k)
		}
	})
	return out
}

// each calls fn for every entry, in the order of keys.
func (c *cowMap[K, V]) each(fn func(K, V)) {
	c.walk(func(run []trieEntry[K, V]) {
		for i := range run {
			fn(run[i].k, run[i].v)
		}
	})
}

// walk calls fn with every leaf, in the order of keys, a run of adjacent
// leaves of one node per call.
func (c *cowMap[K, V]) walk(fn func(run []trieEntry[K, V])) {
	if c == nil || c.root == nil {
		return
	}
	// A depth-first walk with an explicit stack: path[d] is the node at
	// depth d and next[d] the index of its next entry to visit. The
	// deepest node is a collision list under a root at the top digit.
	var path [trieTop/trieBits + 2]*trieNode[K, V]
	var next [len(path)]int
	path[0] = c.root
	for d := 0; d >= 0; {
		n, i := path[d], next[d]
		if i == len(n.e) {
			d--
			continue
		}
		if sub := n.e[i].sub; sub != nil {
			next[d]++
			d++
			path[d], next[d] = sub, 0
			continue
		}
		j := i + 1
		for j < len(n.e) && n.e[j].sub == nil {
			j++
		}
		next[d] = j
		fn(n.e[i:j])
	}
}

// ownerOf and clone make a cowMap usable as the value of another cowMap
// (see versioned). clone shares the trie: o copies the nodes it writes.
func (c *cowMap[K, V]) ownerOf() *owner { return c.by }

func (c *cowMap[K, V]) clone(o *owner) *cowMap[K, V] {
	return &cowMap[K, V]{root: c.root, n: c.n, by: o}
}

// own marks c as written by o. c must be memory private to o's builder: a
// field of the forked snapshot struct, or a container edit returned to that
// builder.
func (c *cowMap[K, V]) own(o *owner) {
	if c.by != o {
		c.by = o
		o.dirty = true
	}
}

func (c *cowMap[K, V]) set(o *owner, k K, v V) { c.insert(o, hashOf(k), k, v) }

func (c *cowMap[K, V]) del(o *owner, k K) { c.remove(o, hashOf(k), k) }

// writable returns the node in *at, writable by o: the node itself when o
// owns it, otherwise a copy that it installs in *at first.
func writable[K comparable, V any](o *owner, at **trieNode[K, V]) *trieNode[K, V] {
	n := *at
	if n.by != o {
		o.nodesCopied.Inc()
		cp := *n
		cp.by, cp.e = o, slices.Clone(n.e)
		n = &cp
		*at = n
	}
	return n
}

// insert sets k, whose hash is h, to v and reports whether k is new.
func (c *cowMap[K, V]) insert(o *owner, h uint64, k K, v V) bool {
	c.own(o)
	leaf := trieEntry[K, V]{v: v, k: k}
	if c.root == nil {
		c.root = &trieNode[K, V]{by: o, e: []trieEntry[K, V]{leaf}, pre: h >> trieBits, bitmap: slot(h, 0)}
		c.n = 1
		return true
	}
	for h>>(int(c.root.shift)+trieBits) != c.root.pre {
		c.raise(o)
	}
	at := &c.root
	for s := int(c.root.shift); ; s -= trieBits {
		n := writable(o, at)
		if s < 0 {
			for i := range n.e {
				if n.e[i].k == k {
					n.e[i].v = v
					return false
				}
			}
			n.e = insertAt(n.e, len(n.e), leaf)
			c.n++
			return true
		}
		bit := slot(h, s)
		i := bits.OnesCount32(n.bitmap & (bit - 1))
		if n.bitmap&bit == 0 {
			n.bitmap |= bit
			n.e = insertAt(n.e, i, leaf)
			c.n++
			return true
		}
		e := &n.e[i]
		if e.sub != nil {
			at = &e.sub
			continue
		}
		if e.k == k {
			e.v = v
			return false
		}
		*e = trieEntry[K, V]{sub: pair(o, s-trieBits, *e, hashOf(e.k), leaf, h)}
		c.n++
		return true
	}
}

// raise puts a new root one digit above c's root. A root holding a single
// leaf hands the leaf up instead of becoming a child, so that no key sits
// deeper than its hash requires.
func (c *cowMap[K, V]) raise(o *owner) {
	r := c.root
	up := &trieNode[K, V]{by: o, pre: r.pre >> trieBits, bitmap: 1 << (r.pre & trieMask), shift: r.shift + trieBits}
	if len(r.e) == 1 && r.e[0].sub == nil {
		up.e = []trieEntry[K, V]{r.e[0]}
	} else {
		up.e = []trieEntry[K, V]{{sub: r}}
	}
	c.root = up
}

// insertAt returns s with x inserted at i: in place when s has room,
// otherwise in a new array sized for exactly one more entry (rounded up to
// the allocator's size class, which costs nothing extra).
func insertAt[E any](s []E, i int, x E) []E {
	if len(s) == cap(s) {
		// Grow from nil: growing s itself would double its capacity.
		t := slices.Grow([]E(nil), len(s)+1)[:len(s)]
		copy(t, s)
		s = t
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// pair returns a new node for the digit at shift s holding the leaves a and
// b, whose keys differ and whose hashes agree above that digit.
func pair[K comparable, V any](o *owner, s int, a trieEntry[K, V], ha uint64, b trieEntry[K, V], hb uint64) *trieNode[K, V] {
	n := &trieNode[K, V]{by: o}
	if s < 0 {
		n.e = []trieEntry[K, V]{a, b}
		return n
	}
	ba, bb := slot(ha, s), slot(hb, s)
	switch {
	case ba == bb:
		n.e = []trieEntry[K, V]{{sub: pair(o, s-trieBits, a, ha, b, hb)}}
	case ba < bb:
		n.e = []trieEntry[K, V]{a, b}
	default:
		n.e = []trieEntry[K, V]{b, a}
	}
	n.bitmap = ba | bb
	return n
}

// remove deletes k, whose hash is h, and reports whether it was there. It
// marks c as written by o either way.
func (c *cowMap[K, V]) remove(o *owner, h uint64, k K) bool {
	c.own(o)
	r := c.root
	if r == nil || h>>(int(r.shift)+trieBits) != r.pre {
		return false
	}
	r, ok := without(o, r, int(r.shift), h, k)
	if !ok {
		return false
	}
	if len(r.e) == 0 {
		r = nil
	}
	c.root = r
	c.n--
	return true
}

// without returns n, the node for the digit at shift s, without k (hash
// h): n itself when k is absent (ok false), otherwise n edited in place
// when o owns it, or a copy. A node left holding a single leaf is folded
// into its parent's entry, so the trie stays as shallow as its keys allow.
func without[K comparable, V any](o *owner, n *trieNode[K, V], s int, h uint64, k K) (_ *trieNode[K, V], ok bool) {
	if s < 0 {
		for i := range n.e {
			if n.e[i].k == k {
				n = writable(o, &n)
				n.e = deleteAt(n.e, i)
				return n, true
			}
		}
		return n, false
	}
	bit := slot(h, s)
	if n.bitmap&bit == 0 {
		return n, false
	}
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	e := n.e[i]
	if e.sub == nil {
		if e.k != k {
			return n, false
		}
		n = writable(o, &n)
		n.bitmap &^= bit
		n.e = deleteAt(n.e, i)
		return n, true
	}
	sub, ok := without(o, e.sub, s-trieBits, h, k)
	if !ok {
		return n, false
	}
	n = writable(o, &n)
	if len(sub.e) == 1 && sub.e[0].sub == nil {
		n.e[i] = sub.e[0]
	} else {
		n.e[i].sub = sub
	}
	return n, true
}

// deleteAt removes s[i] in place, zeroing the vacated last slot so it holds
// no pointers.
func deleteAt[E any](s []E, i int) []E {
	copy(s[i:], s[i+1:])
	var zero E
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// versioned is a value that lives in a cowMap and is itself mutable: it
// names the builder that may write it and can copy itself for another.
type versioned[V any] interface {
	ownerOf() *owner
	clone(o *owner) V
}

// edit returns the value under k of p, writable by o: the stored value when
// o already owns it, otherwise a clone that it installs in p first. The
// second result is false when p has no k.
func edit[K comparable, V versioned[V]](p *cowMap[K, V], o *owner, k K) (V, bool) {
	v, ok := p.get(k)
	if ok && v.ownerOf() != o {
		v = v.clone(o)
		p.set(o, k, v)
	}
	return v, ok
}

// post adds id to the posting set under k of p — the members of a label, of
// a relationship type, or of one value of a property index — creating the
// set on first use.
func post[K, ID comparable](p *cowMap[K, *cowMap[ID, struct{}]], o *owner, k K, id ID) {
	set, ok := edit(p, o, k)
	if !ok {
		set = &cowMap[ID, struct{}]{by: o}
		p.set(o, k, set)
	}
	set.set(o, id, struct{}{})
}

// unpost removes id from the posting set under k of p and drops the set
// once it is empty.
func unpost[K, ID comparable](p *cowMap[K, *cowMap[ID, struct{}]], o *owner, k K, id ID) {
	set, ok := edit(p, o, k)
	if !ok {
		return
	}
	set.del(o, id)
	if set.len() == 0 {
		p.del(o, k)
	}
}
