package graph

import (
	"maps"

	"repro/internal/metrics"
)

// This file is the store's one copy-on-write mechanism. Every mutable part
// of a snapshot — the node and relationship tables, the label and
// relationship-type posting sets, the property indexes and their posting
// sets, and the node and relationship records themselves — is either a
// cowMap or a value held in one, and is changed only through the functions
// below. They keep one invariant:
//
//	A container or record is mutated only by the builder whose owner token
//	it carries. The first touch by any other builder copies it, stamps the
//	copy and installs the copy in the builder's (already private) parent;
//	later touches by the same builder find the stamp and write in place.
//
// A builder is whatever constructs the next snapshot: a write transaction,
// CreateIndex or DropIndex. It forks the committed snapshot (a struct copy
// under a fresh token), so everything reachable from the fork still carries
// older tokens and is shared until touched. Publishing is just storing the
// pointer: the token is dropped with its builder, so nothing published can
// ever again compare as owned — a published snapshot is immutable without
// being marked so. Nothing outside this file knows that a table is a flat Go
// map that is cloned whole; that representation is what a later change may
// swap.

// owner is the identity token of one snapshot builder.
type owner struct {
	// dirty is set by the builder's first write; a builder that stays
	// clean publishes nothing.
	dirty bool
	// recordsCloned counts the node and relationship records the builder
	// copied (Metrics.RecordsCloned; nil-safe).
	recordsCloned *metrics.Counter
}

// cowMap is a map shared between snapshot versions until written. The zero
// value is an empty map owned by nobody. Read methods accept a nil receiver
// (an absent posting set reads as empty).
type cowMap[K comparable, V any] struct {
	m  map[K]V
	by *owner
}

// get returns the value under k.
func (c *cowMap[K, V]) get(k K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	v, ok := c.m[k]
	return v, ok
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
	return len(c.m)
}

// keys returns the keys in unspecified order; never nil.
func (c *cowMap[K, V]) keys() []K {
	out := make([]K, 0, c.len())
	if c != nil {
		for k := range c.m {
			out = append(out, k)
		}
	}
	return out
}

// ownerOf and clone make a cowMap usable as the value of another cowMap
// (see versioned).
func (c *cowMap[K, V]) ownerOf() *owner { return c.by }

func (c *cowMap[K, V]) clone(o *owner) *cowMap[K, V] {
	return &cowMap[K, V]{m: maps.Clone(c.m), by: o}
}

// own makes c writable by o and returns its map. c must be memory private to
// o's builder: a field of the forked snapshot struct, or a container edit
// returned to that builder.
func (c *cowMap[K, V]) own(o *owner) map[K]V {
	if c.by != o {
		c.m = maps.Clone(c.m)
		c.by = o
		o.dirty = true
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	return c.m
}

func (c *cowMap[K, V]) set(o *owner, k K, v V) { c.own(o)[k] = v }

func (c *cowMap[K, V]) del(o *owner, k K) { delete(c.own(o), k) }

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
