package graph

// Hub sharding: the store-level half of the partitioned storage engine.
//
// The paper's partition unit — every node is owned by exactly one knowledge
// hub, and only knowledge bridges cross hub borders (§III-A) — becomes the
// storage engine's unit of parallelism: a ShardedStore is an array of
// ordinary Stores, one per shard, each keeping its own single-writer lock,
// committed-snapshot pointer and (in a durable deployment) write-ahead-log
// segment stream. Intra-hub transactions, the common case, run entirely
// inside one shard and therefore commit fully in parallel across shards;
// cross-hub bridge writes take the two-shard BridgeTx path, which locks the
// two shards in deterministic (ascending-index) order and commits both
// sides together.
//
// Identifier bands make routing trivial: shard i allocates NodeIDs and
// RelIDs with i in the top bits (ShardOfNode / ShardOfRel recover the shard
// from any identifier in O(1)). A bridge relationship is stored twice — a
// "half" in each endpoint's shard under one identifier allocated from the
// start node's (home) shard — so per-shard traversal sees bridges from both
// sides without any cross-shard hop; reads of the relationship itself route
// to the home shard.

import (
	"errors"
	"fmt"

	"repro/internal/value"
)

// ShardShift is the bit position of the shard index inside a NodeID or
// RelID: shard i allocates identifiers in [i<<ShardShift, (i+1)<<ShardShift).
const ShardShift = 48

// MaxShards bounds the number of shards an identifier can encode.
const MaxShards = 1 << 14

// Errors reported by the sharded store.
var (
	ErrBadShard      = errors.New("graph: shard index out of range")
	ErrNotBridge     = errors.New("graph: entity does not belong to this bridge transaction's shards")
	ErrSameShard     = errors.New("graph: bridge transaction requires two distinct shards")
	ErrBridgeTxDone  = errors.New("graph: bridge transaction already finished")
	ErrShardMismatch = errors.New("graph: store counters do not match the shard's identifier band")
)

// ShardOfNode returns the shard index encoded in a node identifier.
func ShardOfNode(id NodeID) int { return int(id >> ShardShift) }

// ShardOfRel returns the shard index encoded in a relationship identifier.
func ShardOfRel(id RelID) int { return int(id >> ShardShift) }

// ShardBaseNode returns the first identifier of a shard's node band minus
// one — the value the shard's allocation counter is seeded with.
func ShardBaseNode(shard int) NodeID { return NodeID(shard) << ShardShift }

// ShardBaseRel is ShardBaseNode for relationship identifiers.
func ShardBaseRel(shard int) RelID { return RelID(shard) << ShardShift }

// ShardedStore is a property graph partitioned into per-hub shards, each an
// ordinary Store with its own write lock and snapshot pointer. It adds
// exactly three things over the array: identifier-band allocation (so every
// entity identifier names its shard), the two-shard BridgeTx commit path,
// and cross-shard read views (MultiView).
type ShardedStore struct {
	shards []*Store
}

// NewSharded creates n empty shards with banded identifier allocation.
func NewSharded(n int) (*ShardedStore, error) {
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadShard, n, MaxShards)
	}
	stores := make([]*Store, n)
	for i := range stores {
		s := NewStore()
		// The store was created in this call and has no readers or hooks
		// yet, so seeding the private snapshot's counters directly is safe.
		sn := s.snap.Load()
		sn.nextNode = ShardBaseNode(i)
		sn.nextRel = ShardBaseRel(i)
		stores[i] = s
	}
	return &ShardedStore{shards: stores}, nil
}

// AttachShards wraps existing stores (typically just recovered from
// per-shard write-ahead logs) as a sharded store, raising each store's
// identifier counters to its band base so an empty recovered shard does not
// allocate into shard 0's band. It must be called before commit hooks or
// follower mode are installed on the stores.
func AttachShards(stores []*Store) (*ShardedStore, error) {
	if len(stores) < 1 || len(stores) > MaxShards {
		return nil, fmt.Errorf("%w: %d stores", ErrBadShard, len(stores))
	}
	for i, s := range stores {
		tx := s.Begin(ReadWrite)
		if err := tx.EnsureCounters(ShardBaseNode(i), ShardBaseRel(i)); err != nil {
			tx.Rollback()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		nn, nr := stores[i].snap.Load().nextNode, stores[i].snap.Load().nextRel
		if ShardOfNode(nn) != i || ShardOfRel(nr) != i {
			return nil, fmt.Errorf("%w: shard %d counters (%d, %d)", ErrShardMismatch, i, nn, nr)
		}
	}
	return &ShardedStore{shards: stores}, nil
}

// NumShards returns the number of shards.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Shard returns shard i's underlying store. Single-shard transactions —
// the intra-hub common case — go straight through it: Begin, Update and
// View on the shard behave exactly as on an unsharded store and serialize
// only against writers of the same shard.
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// Update runs fn in a read-write transaction on one shard (an intra-hub
// write). It commits on success and serializes only against that shard's
// writers.
func (ss *ShardedStore) Update(shard int, fn func(tx *Tx) error) error {
	if shard < 0 || shard >= len(ss.shards) {
		return fmt.Errorf("%w: %d", ErrBadShard, shard)
	}
	return ss.shards[shard].Update(fn)
}

// LabelCount sums the label's committed membership over all shards.
// Lock-free.
func (ss *ShardedStore) LabelCount(label string) int {
	n := 0
	for _, s := range ss.shards {
		n += s.LabelCount(label)
	}
	return n
}

// Stats returns the size counters of the whole graph, lock-free: nodes sum
// over shards, a knowledge bridge counts once (by its home half) although
// both endpoint shards store it, and labels, relationship types and indexes
// count distinct names across shards.
func (ss *ShardedStore) Stats() Stats {
	var st Stats
	labels := make(map[string]struct{})
	relTypes := make(map[string]struct{})
	indexes := make(map[indexKey]struct{})
	for _, s := range ss.shards {
		sn := s.snap.Load()
		st.Nodes += sn.nodes.len()
		st.Relationships += sn.rels.len() - sn.mirrorRels
		for _, l := range sn.byLabel.keys() {
			labels[l] = struct{}{}
		}
		for _, t := range sn.byRelType.keys() {
			relTypes[t] = struct{}{}
		}
		for _, ik := range sn.indexes.keys() {
			indexes[ik] = struct{}{}
		}
	}
	st.Labels, st.RelTypes, st.Indexes = len(labels), len(relTypes), len(indexes)
	return st
}

// ---- Cross-shard read views ----

// MultiView is a read view spanning every shard: one lock-free read-only
// transaction per shard, each pinned to that shard's committed snapshot.
// Reads route by identifier band. The per-shard snapshots are grabbed
// independently (View) or under an all-shards write barrier (BarrierView);
// only the latter is a single consistent cut across shards.
type MultiView struct {
	ss  *ShardedStore
	txs []*Tx
}

// View pins the current committed snapshot of every shard, lock-free. The
// snapshots are taken independently, so a concurrent bridge commit may be
// visible in one shard and not yet in the other; per-shard reads are
// snapshot-isolated as usual. Callers must Rollback the view when done.
func (ss *ShardedStore) View() *MultiView {
	txs := make([]*Tx, len(ss.shards))
	for i, s := range ss.shards {
		txs[i] = s.Begin(ReadOnly)
	}
	return &MultiView{ss: ss, txs: txs}
}

// BarrierView takes every shard's write lock in ascending order, runs
// barrier (which may be nil) while all commits are quiesced, pins every
// shard's snapshot of that instant, and releases the locks: a consistent
// global cut. Sharded checkpointing passes a barrier that cuts all
// write-ahead-log streams, pairing log positions exactly with the view.
func (ss *ShardedStore) BarrierView(barrier func() error) (*MultiView, error) {
	for _, s := range ss.shards {
		s.writeMu.Lock()
	}
	var err error
	if barrier != nil {
		err = barrier()
	}
	txs := make([]*Tx, len(ss.shards))
	for i, s := range ss.shards {
		txs[i] = &Tx{s: s, mode: ReadOnly, data: &TxData{}, view: s.snap.Load(), metrics: s.metrics.Load()}
	}
	for i := len(ss.shards) - 1; i >= 0; i-- {
		ss.shards[i].writeMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	for _, s := range ss.shards {
		s.metrics.Load().SnapshotReads.Inc()
	}
	return &MultiView{ss: ss, txs: txs}, nil
}

// Rollback releases the view's per-shard read transactions.
func (v *MultiView) Rollback() {
	for _, tx := range v.txs {
		tx.Rollback()
	}
}

// ShardTx returns the view's read-only transaction over shard i, for
// whole-shard scans and the full Tx read API.
func (v *MultiView) ShardTx(i int) *Tx { return v.txs[i] }

// NumShards returns the number of shards the view spans.
func (v *MultiView) NumShards() int { return len(v.txs) }

func (v *MultiView) nodeTx(id NodeID) (*Tx, bool) {
	s := ShardOfNode(id)
	if s < 0 || s >= len(v.txs) {
		return nil, false
	}
	return v.txs[s], true
}

func (v *MultiView) relTx(id RelID) (*Tx, bool) {
	s := ShardOfRel(id)
	if s < 0 || s >= len(v.txs) {
		return nil, false
	}
	return v.txs[s], true
}

// Node returns a snapshot of the node, routed to its shard.
func (v *MultiView) Node(id NodeID) (Node, bool) {
	tx, ok := v.nodeTx(id)
	if !ok {
		return Node{}, false
	}
	return tx.Node(id)
}

// NodeExists reports whether the node exists, routed to its shard.
func (v *MultiView) NodeExists(id NodeID) bool {
	tx, ok := v.nodeTx(id)
	return ok && tx.NodeExists(id)
}

// NodeLabels returns the node's labels, routed to its shard.
func (v *MultiView) NodeLabels(id NodeID) ([]string, bool) {
	tx, ok := v.nodeTx(id)
	if !ok {
		return nil, false
	}
	return tx.NodeLabels(id)
}

// NodeHasLabel reports whether the node carries the label, routed to its
// shard.
func (v *MultiView) NodeHasLabel(id NodeID, label string) bool {
	tx, ok := v.nodeTx(id)
	return ok && tx.NodeHasLabel(id, label)
}

// NodeProp returns one property of a node, routed to its shard.
func (v *MultiView) NodeProp(id NodeID, key string) (value.Value, bool) {
	tx, ok := v.nodeTx(id)
	if !ok {
		return value.Null, false
	}
	return tx.NodeProp(id, key)
}

// NodePropKeys returns the node's property keys, routed to its shard.
func (v *MultiView) NodePropKeys(id NodeID) []string {
	tx, ok := v.nodeTx(id)
	if !ok {
		return nil
	}
	return tx.NodePropKeys(id)
}

// Rel returns a snapshot of the relationship from its home shard (a bridge
// relationship's home is its start node's shard).
func (v *MultiView) Rel(id RelID) (Rel, bool) {
	s := ShardOfRel(id)
	if s < 0 || s >= len(v.txs) {
		return Rel{}, false
	}
	return v.txs[s].Rel(id)
}

// RelProp returns one property of a relationship, routed to its home shard.
// Both halves of a bridge store the full property map, so the home half is
// always sufficient.
func (v *MultiView) RelProp(id RelID, key string) (value.Value, bool) {
	tx, ok := v.relTx(id)
	if !ok {
		return value.Null, false
	}
	return tx.RelProp(id, key)
}

// RelPropKeys returns the relationship's property keys, routed to its home
// shard.
func (v *MultiView) RelPropKeys(id RelID) []string {
	tx, ok := v.relTx(id)
	if !ok {
		return nil
	}
	return tx.RelPropKeys(id)
}

// RelEndpoints returns the relationship's type and endpoint identifiers,
// routed to its home shard. A bridge's far endpoint identifier names the
// peer shard; resolving it routes there by band.
func (v *MultiView) RelEndpoints(id RelID) (typ string, start, end NodeID, ok bool) {
	tx, txOK := v.relTx(id)
	if !txOK {
		return "", 0, 0, false
	}
	return tx.RelEndpoints(id)
}

// Degree counts the relationships incident to a node, routed to the node's
// shard (bridge halves are stored with each endpoint, so the local count is
// complete).
func (v *MultiView) Degree(id NodeID, dir Direction) int {
	tx, ok := v.nodeTx(id)
	if !ok {
		return 0
	}
	return tx.Degree(id, dir)
}

// RelsOf returns the relationships incident to a node — including bridge
// halves, whose far endpoint lives in another shard — routed to the node's
// shard.
func (v *MultiView) RelsOf(id NodeID, dir Direction, types []string) []RelHandle {
	tx, ok := v.nodeTx(id)
	if !ok {
		return nil
	}
	return tx.RelsOf(id, dir, types)
}

// NodesByLabel unions the label's membership across all shards.
func (v *MultiView) NodesByLabel(label string) []NodeID {
	var out []NodeID
	for _, tx := range v.txs {
		out = append(out, tx.NodesByLabel(label)...)
	}
	return out
}

// CountByLabel sums the label's membership across all shards.
func (v *MultiView) CountByLabel(label string) int {
	n := 0
	for _, tx := range v.txs {
		n += tx.CountByLabel(label)
	}
	return n
}

// NodesByProp unions the property index's matches across all shards. The
// second result is false — fall back to a scan — unless every shard carries
// the (label, prop) index: a partial union would silently drop the shards
// without one.
func (v *MultiView) NodesByProp(label, prop string, val value.Value) ([]NodeID, bool) {
	var out []NodeID
	for _, tx := range v.txs {
		ids, ok := tx.NodesByProp(label, prop, val)
		if !ok {
			return nil, false
		}
		out = append(out, ids...)
	}
	return out, true
}

// CountByProp sums the property index's match counts across all shards; the
// second result is false unless every shard carries the index.
func (v *MultiView) CountByProp(label, prop string, val value.Value) (int, bool) {
	n := 0
	for _, tx := range v.txs {
		c, ok := tx.CountByProp(label, prop, val)
		if !ok {
			return 0, false
		}
		n += c
	}
	return n, true
}

// HasIndex reports whether every shard carries an index on (label, prop) —
// the condition under which cross-shard index lookups are complete.
func (v *MultiView) HasIndex(label, prop string) bool {
	for _, tx := range v.txs {
		if !tx.HasIndex(label, prop) {
			return false
		}
	}
	return true
}

// NodeCount sums the node counts of all shards.
func (v *MultiView) NodeCount() int {
	n := 0
	for _, tx := range v.txs {
		n += tx.NodeCount()
	}
	return n
}

// RelCount counts relationships across all shards, counting each bridge
// once (by its home half). O(shards): each shard's snapshot tracks how many
// of its records are bridge mirror halves, so no relationship scan is
// needed.
func (v *MultiView) RelCount() int {
	n := 0
	for _, tx := range v.txs {
		n += tx.HomeRelCount()
	}
	return n
}

// AllNodes returns every node identifier across all shards.
func (v *MultiView) AllNodes() []NodeID {
	var out []NodeID
	for _, tx := range v.txs {
		out = append(out, tx.AllNodes()...)
	}
	return out
}

// AllRels returns every relationship identifier across all shards, each
// bridge reported once (by its home half). The result is pre-sized from the
// per-shard home counters, and shards holding no mirror halves append their
// identifiers without any per-identifier band test.
func (v *MultiView) AllRels() []RelID {
	out := make([]RelID, 0, v.RelCount())
	for i, tx := range v.txs {
		ids := tx.AllRels()
		if tx.view.mirrorRels == 0 {
			out = append(out, ids...)
			continue
		}
		for _, id := range ids {
			if ShardOfRel(id) == i {
				out = append(out, id)
			}
		}
	}
	return out
}

// ---- Bridge transactions ----

// BridgeTx is a read-write transaction spanning exactly two shards — the
// storage half of a knowledge-bridge write. BeginBridge locks the two
// shards in ascending index order (every bridge, whatever hub pair it
// connects, acquires locks in the same global order, so bridge writers
// never deadlock against each other or against intra-hub writers). Writes
// route by identifier band; a cross-shard CreateRel stores a half in each
// shard under one identifier from the start node's band. Commit publishes
// both shards together after an optional seal callback — the hook point
// where the durable two-shard commit protocol (internal/wal ShardSet)
// appends its prepare and commit records while both locks are still held.
type BridgeTx struct {
	ss     *ShardedStore
	lo, hi *Tx
	loIdx  int
	hiIdx  int
	done   bool
}

// BeginBridge starts a two-shard transaction over shards a and b (any
// order, a != b), locking in ascending index order.
func (ss *ShardedStore) BeginBridge(a, b int) (*BridgeTx, error) {
	if a == b {
		return nil, ErrSameShard
	}
	if a < 0 || a >= len(ss.shards) || b < 0 || b >= len(ss.shards) {
		return nil, fmt.Errorf("%w: (%d, %d)", ErrBadShard, a, b)
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	loTx := ss.shards[lo].Begin(ReadWrite)
	hiTx := ss.shards[hi].Begin(ReadWrite)
	return &BridgeTx{ss: ss, lo: loTx, hi: hiTx, loIdx: lo, hiIdx: hi}, nil
}

// Shards returns the two shard indexes the transaction spans, ascending.
func (bt *BridgeTx) Shards() (lo, hi int) { return bt.loIdx, bt.hiIdx }

// ShardTx returns the underlying per-shard transaction for one of the two
// spanned shards, giving access to the full Tx read/write API for writes
// that are local to that shard.
func (bt *BridgeTx) ShardTx(shard int) (*Tx, error) {
	switch shard {
	case bt.loIdx:
		return bt.lo, nil
	case bt.hiIdx:
		return bt.hi, nil
	}
	return nil, fmt.Errorf("%w: shard %d", ErrNotBridge, shard)
}

func (bt *BridgeTx) txForNode(id NodeID) (*Tx, error) {
	return bt.ShardTx(ShardOfNode(id))
}

// CreateNodeIn creates a node in the given shard (which must be one of the
// two spanned shards).
func (bt *BridgeTx) CreateNodeIn(shard int, labels []string, props map[string]value.Value) (NodeID, error) {
	tx, err := bt.ShardTx(shard)
	if err != nil {
		return 0, err
	}
	return tx.CreateNode(labels, props)
}

// CreateRel creates a relationship between two nodes of the spanned
// shards. Endpoints in the same shard produce an ordinary intra-shard
// relationship; endpoints in different shards produce a knowledge bridge —
// one identifier (allocated from the start node's shard), one half stored
// in each shard, so traversal works from both sides.
func (bt *BridgeTx) CreateRel(start, end NodeID, typ string, props map[string]value.Value) (RelID, error) {
	if bt.done {
		return 0, ErrBridgeTxDone
	}
	sTx, err := bt.txForNode(start)
	if err != nil {
		return 0, err
	}
	eTx, err := bt.txForNode(end)
	if err != nil {
		return 0, err
	}
	if !sTx.NodeExists(start) {
		return 0, fmtErrNode(start)
	}
	if !eTx.NodeExists(end) {
		return 0, fmtErrNode(end)
	}
	if sTx == eTx {
		return sTx.CreateRel(start, end, typ, props)
	}
	// Bridge: allocate from the home (start) shard's band, then install one
	// half per shard under that identifier.
	sTx.view.nextRel++
	id := sTx.view.nextRel
	sTx.installRel(id, start, end, typ, storedProps(props))
	eTx.installRel(id, start, end, typ, storedProps(props))
	return id, nil
}

// DeleteRel deletes a relationship; a bridge loses both halves.
func (bt *BridgeTx) DeleteRel(id RelID) error {
	if bt.done {
		return ErrBridgeTxDone
	}
	home, err := bt.ShardTx(ShardOfRel(id))
	if err != nil {
		return err
	}
	if err := home.DeleteRel(id); err != nil {
		return err
	}
	other := bt.lo
	if other == home {
		other = bt.hi
	}
	if _, ok := other.view.rels.get(id); ok {
		return other.DeleteRel(id)
	}
	return nil
}

// DeleteNode deletes a node, routed to its shard. With detach, incident
// bridge relationships lose both halves (the mirror in the peer shard is
// deleted too, which is why bridge-connected nodes must be deleted through
// a BridgeTx spanning their peers, not a single-shard transaction).
func (bt *BridgeTx) DeleteNode(id NodeID, detach bool) error {
	if bt.done {
		return ErrBridgeTxDone
	}
	tx, err := bt.txForNode(id)
	if err != nil {
		return err
	}
	if detach {
		other := bt.lo
		if other == tx {
			other = bt.hi
		}
		for _, r := range tx.RelsOf(id, Both, nil) {
			if _, ok := other.view.rels.get(r.ID); ok {
				if err := other.DeleteRel(r.ID); err != nil {
					return err
				}
			}
		}
	}
	return tx.DeleteNode(id, detach)
}

// SetNodeProp assigns a property on a node, routed to its shard.
func (bt *BridgeTx) SetNodeProp(id NodeID, key string, v value.Value) error {
	tx, err := bt.txForNode(id)
	if err != nil {
		return err
	}
	return tx.SetNodeProp(id, key, v)
}

// SetLabel adds a label to a node, routed to its shard.
func (bt *BridgeTx) SetLabel(id NodeID, label string) error {
	tx, err := bt.txForNode(id)
	if err != nil {
		return err
	}
	return tx.SetLabel(id, label)
}

// Node returns a snapshot of the node, routed to its shard.
func (bt *BridgeTx) Node(id NodeID) (Node, bool) {
	tx, err := bt.txForNode(id)
	if err != nil {
		return Node{}, false
	}
	return tx.Node(id)
}

// Rel returns a snapshot of the relationship from its home shard.
func (bt *BridgeTx) Rel(id RelID) (Rel, bool) {
	tx, err := bt.ShardTx(ShardOfRel(id))
	if err != nil {
		return Rel{}, false
	}
	return tx.Rel(id)
}

// Rollback discards both shards' working copies and releases both locks.
// Calling it after Commit (or twice) is a no-op.
func (bt *BridgeTx) Rollback() {
	if bt.done {
		return
	}
	bt.done = true
	bt.hi.Rollback()
	bt.lo.Rollback()
}

// Commit finishes the bridge transaction: both shards' validators run,
// then seal (if non-nil) runs while both write locks are still held — the
// durable engine appends its prepare record to the higher shard's log and
// its commit record to the lower shard's log there, and waits for both to
// reach stable storage, so by the time either snapshot is visible the
// bridge outcome is decided — and finally both working copies are
// published and the locks released (higher shard first). An error from a
// validator or from seal rolls the whole transaction back. Publication of
// the two snapshots is not a single atomic step: an independent View may
// briefly see the bridge in one shard and not the other; BarrierView sees
// either both or neither.
func (bt *BridgeTx) Commit(seal func(lo, hi *Tx) error) error {
	if bt.done {
		return ErrBridgeTxDone
	}
	for _, tx := range []*Tx{bt.lo, bt.hi} {
		if err := tx.preCommitChecks(); err != nil {
			bt.Rollback()
			return err
		}
	}
	if seal != nil {
		if err := seal(bt.lo, bt.hi); err != nil {
			bt.Rollback()
			return fmt.Errorf("graph: bridge seal: %w", err)
		}
	}
	bt.done = true
	dHi := bt.hi.publishAndUnlock()
	dLo := bt.lo.publishAndUnlock()
	var errs []error
	for _, fn := range append(dLo, dHi...) {
		if err := fn(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// preCommitChecks runs the commit-time gates — follower mode and
// validators — without the hook, publication or lock release, so a
// two-shard commit can check both sides before either publishes.
func (tx *Tx) preCommitChecks() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.apply {
		return nil
	}
	if tx.s.follower.Load() {
		return ErrFollowerStore
	}
	if vs := tx.s.validators.Load(); vs != nil {
		for _, v := range *vs {
			if err := v(tx); err != nil {
				return err
			}
		}
	}
	return nil
}

// publishAndUnlock is the tail of a commit (Tx.Commit, and each side of a
// bridge commit): publish the fork (if anything was written), record
// metrics, release the write lock, and hand back the deferred OnCommitted
// callbacks for the caller to run once everything is published.
func (tx *Tx) publishAndUnlock() []func() error {
	tx.done = true
	tx.s.publish(tx.view)
	tx.metrics.TxCommits.Inc()
	if !tx.start.IsZero() {
		tx.metrics.TxSeconds.ObserveSince(tx.start)
	}
	tx.s.writeMu.Unlock()
	d := tx.deferred
	tx.deferred = nil
	return d
}
