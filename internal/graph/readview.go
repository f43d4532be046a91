package graph

import "repro/internal/value"

// ReadView is the read surface the query engine executes against: the
// method set shared by *Tx (one store's snapshot — unsharded, or a single
// shard) and *MultiView (a cross-shard view that routes every lookup by
// identifier band and aggregates scans and cardinalities over all shards).
// Compiled plans hold a ReadView only for the duration of one execution;
// the write clauses additionally require the view to be a *Tx (cross-shard
// views are read-only by design — writes take shard locks, views take
// none).
//
// Traversal contract: RelsOf returns every relationship half stored with
// the node, including bridge halves whose far endpoint lives in another
// shard. Both halves of a bridge carry the same identifier, so a traversal
// that tracks visited relationship identifiers (as the matcher does) binds
// each bridge exactly once no matter which side it arrives from.
type ReadView interface {
	NodeExists(id NodeID) bool
	Node(id NodeID) (Node, bool)
	NodeLabels(id NodeID) ([]string, bool)
	NodeHasLabel(id NodeID, label string) bool
	NodeProp(id NodeID, key string) (value.Value, bool)
	NodePropKeys(id NodeID) []string

	Rel(id RelID) (Rel, bool)
	RelProp(id RelID, key string) (value.Value, bool)
	RelPropKeys(id RelID) []string
	RelEndpoints(id RelID) (typ string, start, end NodeID, ok bool)

	RelsOf(id NodeID, dir Direction, types []string) []RelHandle
	Degree(id NodeID, dir Direction) int

	NodesByLabel(label string) []NodeID
	CountByLabel(label string) int
	NodesByProp(label, prop string, v value.Value) ([]NodeID, bool)
	CountByProp(label, prop string, v value.Value) (int, bool)
	HasIndex(label, prop string) bool

	NodeCount() int
	AllNodes() []NodeID
	// RelCount and AllRels report a knowledge bridge once on a MultiView;
	// a single shard's Tx reports every half it stores.
	RelCount() int
	AllRels() []RelID

	// StoreKey identifies the backing store (the *Store of a Tx, the
	// *ShardedStore of a MultiView). Two views with equal keys read the
	// same store, so per-store caches — compiled plan variants costed
	// against one store's statistics — key on it. The result is always
	// comparable.
	StoreKey() any
}

// Compile-time interface checks: both view types implement ReadView.
var (
	_ ReadView = (*Tx)(nil)
	_ ReadView = (*MultiView)(nil)
)

// StoreKey identifies the transaction's backing store.
func (tx *Tx) StoreKey() any { return tx.s }

// StoreKey identifies the view's backing sharded store.
func (v *MultiView) StoreKey() any { return v.ss }
