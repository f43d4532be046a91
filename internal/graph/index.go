package graph

import (
	"fmt"

	"repro/internal/value"
)

type indexKey struct {
	label string
	prop  string
}

// CreateIndex creates a property index on (label, prop), populates it from
// the committed state, and publishes a new snapshot carrying it. Equality
// lookups by the query planner and key constraints use it. Open read-only
// transactions keep their pinned snapshot and do not see the index; it must
// not race an open read-write transaction (it would block behind it).
func (s *Store) CreateIndex(label, prop string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := s.snap.Load().fork(s.metrics.Load())
	key := indexKey{label, prop}
	if _, exists := next.indexes.get(key); exists {
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, label, prop)
	}
	next.indexes.set(next.by, key, &propIndex{by: next.by})
	for _, id := range next.byLabel.at(label).keys() {
		if v, ok := next.nodes.at(id).props[prop]; ok {
			next.indexNode(key, v, id, true)
		}
	}
	s.publish(next)
	return nil
}

// DropIndex removes a property index, publishing a new snapshot without it.
func (s *Store) DropIndex(label, prop string) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := s.snap.Load().fork(s.metrics.Load())
	key := indexKey{label, prop}
	if _, exists := next.indexes.get(key); !exists {
		return fmt.Errorf("%w: %s.%s", ErrIndexNotFound, label, prop)
	}
	next.indexes.del(next.by, key)
	s.publish(next)
	return nil
}

// HasIndex reports whether an index exists on (label, prop) in the
// transaction's view.
func (tx *Tx) HasIndex(label, prop string) bool {
	_, ok := tx.view.indexes.get(indexKey{label, prop})
	return ok
}

// postings returns the posting set of the nodes of label whose prop = v,
// from the index on (label, prop): none for a v not equal to itself (NULL,
// NaN, or a list or map holding one). ok is false when there is no index.
func (tx *Tx) postings(label, prop string, v value.Value) (set *nodeSet, ok bool) {
	idx, ok := tx.view.indexes.get(indexKey{label, prop})
	if k := v.Key(); ok && k.SelfEqual() {
		set = idx.at(k)
	}
	return set, ok
}

// NodesByProp returns the nodes of the given label whose property equals v
// under =, using the property index. The second result is false when no
// index exists on (label, prop), in which case the caller must fall back to
// a scan.
func (tx *Tx) NodesByProp(label, prop string, v value.Value) ([]NodeID, bool) {
	set, ok := tx.postings(label, prop, v)
	return set.keys(), ok
}

// CountByProp returns the number of nodes of the given label whose property
// equals v under =, in O(1) via the property index — the analog of a graph
// database's count store. The second result is false when no index exists.
func (tx *Tx) CountByProp(label, prop string, v value.Value) (int, bool) {
	set, ok := tx.postings(label, prop, v)
	return set.len(), ok
}
