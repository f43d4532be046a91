package graph

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/value"
)

// Tx is a transaction over a Store. Read methods are valid in both modes;
// write methods fail with ErrReadOnly in a read-only transaction. A
// transaction must be finished with Commit or Rollback exactly once;
// Rollback after Commit is a no-op, which makes `defer tx.Rollback()` safe.
//
// A read-write transaction edits a private working copy of the committed
// snapshot (copy-on-write, tracked by work) and publishes it at Commit;
// Rollback simply discards the copy. A read-only transaction shares the
// immutable committed snapshot and must never reach a write method.
type Tx struct {
	s    *Store
	mode Mode
	done bool
	data *TxData
	// view is the state this transaction reads: the pinned committed
	// snapshot for ReadOnly, the private working copy for ReadWrite.
	view *snapshot
	// w tracks what the working copy has cloned so far; nil for ReadOnly.
	w *work
	// apply marks a replication-apply transaction (BeginApply): it passes
	// the follower-mode write gate and skips validators.
	apply bool
	// metrics is the store's instrumentation as of Begin.
	metrics *Metrics
	// deferred holds OnCommitted callbacks, run after publication.
	deferred []func() error
	// start is set at Begin when transaction-latency instrumentation is
	// wired; zero otherwise.
	start time.Time
}

// work records which parts of the working copy are already private to the
// transaction, so each map and record is cloned at most once however many
// times it is touched.
type work struct {
	// wrote is set by the first effective write; Commit publishes the
	// working copy only when it is set.
	wrote bool

	nodesCloned    bool
	relsCloned     bool
	labelsCloned   bool
	relTypesCloned bool
	indexesCloned  bool

	clonedNodes       map[NodeID]struct{}
	clonedRels        map[RelID]struct{}
	clonedLabelSets   map[string]struct{}
	clonedRelTypeSets map[string]struct{}
	clonedIdx         map[indexKey]struct{}
	// clonedIdxSets maps an index (already cloned) to the set of value-hash
	// posting sets cloned within it.
	clonedIdxSets map[indexKey]map[string]struct{}
}

func newWork() *work {
	return &work{
		clonedNodes:       make(map[NodeID]struct{}),
		clonedRels:        make(map[RelID]struct{}),
		clonedLabelSets:   make(map[string]struct{}),
		clonedRelTypeSets: make(map[string]struct{}),
		clonedIdx:         make(map[indexKey]struct{}),
		clonedIdxSets:     make(map[indexKey]map[string]struct{}),
	}
}

// Data exposes the changes made so far by this transaction. The caller must
// not mutate the returned record.
func (tx *Tx) Data() *TxData { return tx.data }

// ResetData replaces the change record with an empty one and returns the
// previous record. Rule engines use this to process changes in rounds while
// the transaction stays open.
func (tx *Tx) ResetData() *TxData {
	old := tx.data
	tx.data = &TxData{}
	return old
}

// MergeData folds a previously extracted change record back into the
// transaction, so commit-time validators observe the full set of changes
// even after rule engines processed them in rounds via ResetData.
func (tx *Tx) MergeData(d *TxData) {
	d.Merge(tx.data)
	tx.data = d
}

// OnCommitted registers fn to run after the transaction has committed — its
// snapshot published and the write lock released — in registration order.
// Commit returns the joined errors of all callbacks, but by then the
// transaction IS committed in memory: a callback error cannot roll it back.
// The write-ahead log uses this for its group-commit durability wait, so
// the fsync of one transaction overlaps the in-memory work of the next; the
// caveat is the standard early-lock-release one — on an fsync error the
// commit is visible in memory but not durable, and Commit reports it.
func (tx *Tx) OnCommitted(fn func() error) error {
	if err := tx.writable(); err != nil {
		return err
	}
	tx.deferred = append(tx.deferred, fn)
	return nil
}

// Commit runs the store validators and the commit hook, publishes the
// transaction's working copy as the new committed snapshot, releases the
// write lock, and then runs any OnCommitted callbacks. If a validator or
// the hook fails, the transaction is rolled back and the error returned; a
// callback error is returned too, but cannot undo the publication.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.mode != ReadWrite {
		tx.done = true
		return nil
	}
	if !tx.apply {
		if tx.s.follower.Load() {
			tx.rollbackWrite()
			return ErrFollowerStore
		}
		if vs := tx.s.validators.Load(); vs != nil {
			for _, v := range *vs {
				if err := v(tx); err != nil {
					tx.rollbackWrite()
					return err
				}
			}
		}
	}
	if h := tx.s.commitHook; h != nil {
		if err := h(tx); err != nil {
			tx.rollbackWrite()
			return fmt.Errorf("graph: commit hook: %w", err)
		}
	}
	tx.done = true
	if tx.w.wrote {
		tx.s.snap.Store(tx.view)
		tx.metrics.SnapshotsPublished.Inc()
	}
	tx.metrics.TxCommits.Inc()
	if !tx.start.IsZero() {
		tx.metrics.TxSeconds.ObserveSince(tx.start)
	}
	tx.s.writeMu.Unlock()
	var errs []error
	for _, fn := range tx.deferred {
		if err := fn(); err != nil {
			errs = append(errs, err)
		}
	}
	tx.deferred = nil
	return errors.Join(errs...)
}

// Rollback discards all changes made by the transaction — the working copy
// is simply dropped, the committed snapshot was never touched. Calling it
// after Commit (or twice) is a no-op.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	if tx.mode != ReadWrite {
		tx.done = true
		return
	}
	tx.rollbackWrite()
}

func (tx *Tx) rollbackWrite() {
	tx.done = true
	tx.deferred = nil
	tx.metrics.TxRollbacks.Inc()
	if !tx.start.IsZero() {
		tx.metrics.TxSeconds.ObserveSince(tx.start)
	}
	tx.s.writeMu.Unlock()
}

func (tx *Tx) writable() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.mode != ReadWrite {
		return ErrReadOnly
	}
	return nil
}

// ---- Copy-on-write helpers ----
//
// The working copy starts as a struct copy of the committed snapshot: every
// map is still shared. The helpers below make one level at a time private —
// first the top-level map (a clone of the pointer/set table), then the
// individual record or set — each exactly once per transaction. Reads
// always go through tx.view, so the transaction sees its own writes while
// concurrent readers keep seeing the untouched committed snapshot.

func (tx *Tx) wNodes() map[NodeID]*nodeRec {
	if !tx.w.nodesCloned {
		tx.view.nodes = maps.Clone(tx.view.nodes)
		tx.w.nodesCloned = true
	}
	tx.w.wrote = true
	return tx.view.nodes
}

// wNode returns a node record the transaction may mutate, cloning the
// committed record on first touch.
func (tx *Tx) wNode(id NodeID) (*nodeRec, bool) {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return nil, false
	}
	if _, private := tx.w.clonedNodes[id]; !private {
		rec = rec.clone()
		tx.wNodes()[id] = rec
		tx.w.clonedNodes[id] = struct{}{}
		tx.metrics.RecordsCloned.Inc()
	}
	return rec, true
}

// putNode installs a record created by this transaction (already private).
func (tx *Tx) putNode(rec *nodeRec) {
	tx.wNodes()[rec.id] = rec
	tx.w.clonedNodes[rec.id] = struct{}{}
}

func (tx *Tx) wRels() map[RelID]*relRec {
	if !tx.w.relsCloned {
		tx.view.rels = maps.Clone(tx.view.rels)
		tx.w.relsCloned = true
	}
	tx.w.wrote = true
	return tx.view.rels
}

func (tx *Tx) wRel(id RelID) (*relRec, bool) {
	rec, ok := tx.view.rels[id]
	if !ok {
		return nil, false
	}
	if _, private := tx.w.clonedRels[id]; !private {
		rec = rec.clone()
		tx.wRels()[id] = rec
		tx.w.clonedRels[id] = struct{}{}
		tx.metrics.RecordsCloned.Inc()
	}
	return rec, true
}

func (tx *Tx) putRel(rec *relRec) {
	tx.wRels()[rec.id] = rec
	tx.w.clonedRels[rec.id] = struct{}{}
}

// wLabelSet returns a mutable membership set for label, creating or cloning
// it as needed.
func (tx *Tx) wLabelSet(label string) map[NodeID]struct{} {
	if !tx.w.labelsCloned {
		tx.view.byLabel = maps.Clone(tx.view.byLabel)
		tx.w.labelsCloned = true
	}
	tx.w.wrote = true
	set, ok := tx.view.byLabel[label]
	if !ok {
		set = make(map[NodeID]struct{})
		tx.view.byLabel[label] = set
		tx.w.clonedLabelSets[label] = struct{}{}
		return set
	}
	if _, private := tx.w.clonedLabelSets[label]; !private {
		set = maps.Clone(set)
		tx.view.byLabel[label] = set
		tx.w.clonedLabelSets[label] = struct{}{}
	}
	return set
}

func (tx *Tx) wRelTypeSet(typ string) map[RelID]struct{} {
	if !tx.w.relTypesCloned {
		tx.view.byRelType = maps.Clone(tx.view.byRelType)
		tx.w.relTypesCloned = true
	}
	tx.w.wrote = true
	set, ok := tx.view.byRelType[typ]
	if !ok {
		set = make(map[RelID]struct{})
		tx.view.byRelType[typ] = set
		tx.w.clonedRelTypeSets[typ] = struct{}{}
		return set
	}
	if _, private := tx.w.clonedRelTypeSets[typ]; !private {
		set = maps.Clone(set)
		tx.view.byRelType[typ] = set
		tx.w.clonedRelTypeSets[typ] = struct{}{}
	}
	return set
}

// wIndex returns a mutable propIndex for ik, or nil when no such index
// exists. The index's byValue table is cloned on first touch; individual
// posting sets are cloned lazily by idxInsert/idxRemove.
func (tx *Tx) wIndex(ik indexKey) *propIndex {
	idx, ok := tx.view.indexes[ik]
	if !ok {
		return nil
	}
	if _, private := tx.w.clonedIdx[ik]; !private {
		if !tx.w.indexesCloned {
			tx.view.indexes = maps.Clone(tx.view.indexes)
			tx.w.indexesCloned = true
		}
		idx = &propIndex{byValue: maps.Clone(idx.byValue)}
		tx.view.indexes[ik] = idx
		tx.w.clonedIdx[ik] = struct{}{}
		tx.w.clonedIdxSets[ik] = make(map[string]struct{})
	}
	tx.w.wrote = true
	return idx
}

func (tx *Tx) idxInsert(ik indexKey, v value.Value, id NodeID) {
	idx := tx.wIndex(ik)
	if idx == nil {
		return
	}
	k := v.HashKey()
	sets := tx.w.clonedIdxSets[ik]
	set, ok := idx.byValue[k]
	if !ok {
		set = make(map[NodeID]struct{})
		idx.byValue[k] = set
		sets[k] = struct{}{}
	} else if _, private := sets[k]; !private {
		set = maps.Clone(set)
		idx.byValue[k] = set
		sets[k] = struct{}{}
	}
	set[id] = struct{}{}
}

func (tx *Tx) idxRemove(ik indexKey, v value.Value, id NodeID) {
	idx := tx.wIndex(ik)
	if idx == nil {
		return
	}
	k := v.HashKey()
	set, ok := idx.byValue[k]
	if !ok {
		return
	}
	sets := tx.w.clonedIdxSets[ik]
	if _, private := sets[k]; !private {
		set = maps.Clone(set)
		idx.byValue[k] = set
		sets[k] = struct{}{}
	}
	delete(set, id)
	if len(set) == 0 {
		delete(idx.byValue, k)
	}
}

// indexInsertNode updates all indexes matching any of the node's labels for
// property (key, v).
func (tx *Tx) indexInsertNode(rec *nodeRec, key string, v value.Value) {
	for label := range rec.labels {
		tx.idxInsert(indexKey{label, key}, v, rec.id)
	}
}

func (tx *Tx) indexRemoveNode(rec *nodeRec, key string, v value.Value) {
	for label := range rec.labels {
		tx.idxRemove(indexKey{label, key}, v, rec.id)
	}
}

// ---- Write operations ----

// CreateNode creates a node with the given labels and properties and
// returns its identifier. NULL-valued properties are not stored.
func (tx *Tx) CreateNode(labels []string, props map[string]value.Value) (NodeID, error) {
	if err := tx.writable(); err != nil {
		return 0, err
	}
	tx.view.nextNode++
	id := tx.view.nextNode
	return id, tx.createNode(id, labels, props)
}

func (tx *Tx) createNode(id NodeID, labels []string, props map[string]value.Value) error {
	rec := &nodeRec{
		id:     id,
		labels: make(map[string]struct{}, len(labels)),
		props:  make(map[string]value.Value, len(props)),
		out:    make(map[RelID]*relRec),
		in:     make(map[RelID]*relRec),
	}
	for _, l := range labels {
		rec.labels[l] = struct{}{}
	}
	for k, v := range props {
		if !v.IsNull() {
			rec.props[k] = v
		}
	}
	tx.putNode(rec)
	for l := range rec.labels {
		tx.wLabelSet(l)[id] = struct{}{}
	}
	for k, v := range rec.props {
		tx.indexInsertNode(rec, k, v)
	}
	tx.data.CreatedNodes = append(tx.data.CreatedNodes, id)
	return nil
}

// DeleteNode removes a node. If the node still has relationships the call
// fails with ErrHasRels unless detach is true, in which case all incident
// relationships are deleted first (DETACH DELETE).
func (tx *Tx) DeleteNode(id NodeID, detach bool) error {
	if err := tx.writable(); err != nil {
		return err
	}
	rec, ok := tx.view.nodes[id]
	if !ok {
		return fmtErrNode(id)
	}
	if len(rec.out) > 0 || len(rec.in) > 0 {
		if !detach {
			return ErrHasRels
		}
		// Collect incident relationship identifiers up front (a self-loop
		// appears in both out and in) — deleting them mutates these maps.
		rids := make(map[RelID]struct{}, len(rec.out)+len(rec.in))
		for rid := range rec.out {
			rids[rid] = struct{}{}
		}
		for rid := range rec.in {
			rids[rid] = struct{}{}
		}
		for rid := range rids {
			if err := tx.DeleteRel(rid); err != nil {
				return err
			}
		}
		rec = tx.view.nodes[id] // detach replaced the record copy-on-write
	}
	snap := snapshotNode(rec)
	for l := range rec.labels {
		delete(tx.wLabelSet(l), id)
	}
	for k, v := range rec.props {
		tx.indexRemoveNode(rec, k, v)
	}
	delete(tx.wNodes(), id)
	tx.data.DeletedNodes = append(tx.data.DeletedNodes, snap)
	return nil
}

// CreateRel creates a relationship of the given type from start to end.
func (tx *Tx) CreateRel(start, end NodeID, typ string, props map[string]value.Value) (RelID, error) {
	if err := tx.writable(); err != nil {
		return 0, err
	}
	if _, ok := tx.view.nodes[start]; !ok {
		return 0, fmtErrNode(start)
	}
	if _, ok := tx.view.nodes[end]; !ok {
		return 0, fmtErrNode(end)
	}
	tx.view.nextRel++
	id := tx.view.nextRel
	return id, tx.createRel(id, start, end, typ, props)
}

func (tx *Tx) createRel(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	rec := &relRec{id: id, typ: typ, start: start, end: end,
		props: make(map[string]value.Value, len(props))}
	for k, v := range props {
		if !v.IsNull() {
			rec.props[k] = v
		}
	}
	tx.putRel(rec)
	sRec, _ := tx.wNode(start)
	sRec.out[id] = rec
	eRec, _ := tx.wNode(end)
	eRec.in[id] = rec
	tx.wRelTypeSet(typ)[id] = struct{}{}
	tx.data.CreatedRels = append(tx.data.CreatedRels, id)
	return nil
}

// DeleteRel removes a relationship.
func (tx *Tx) DeleteRel(id RelID) error {
	if err := tx.writable(); err != nil {
		return err
	}
	rec, ok := tx.view.rels[id]
	if !ok {
		return fmtErrRel(id)
	}
	snap := snapshotRel(rec)
	delete(tx.wRels(), id)
	// A bridge half-relationship (sharded stores) has one endpoint in another
	// shard; only locally present endpoints carry adjacency entries.
	if sRec, ok := tx.wNode(rec.start); ok {
		delete(sRec.out, id)
	}
	if eRec, ok := tx.wNode(rec.end); ok {
		delete(eRec.in, id)
	}
	delete(tx.wRelTypeSet(rec.typ), id)
	if tx.relIsMirror(id) {
		tx.view.mirrorRels--
	}
	tx.data.DeletedRels = append(tx.data.DeletedRels, snap)
	return nil
}

// SetLabel adds a label to a node; adding a label the node already carries
// is a no-op that records no change.
func (tx *Tx) SetLabel(id NodeID, label string) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if rec, ok := tx.view.nodes[id]; !ok {
		return fmtErrNode(id)
	} else if _, has := rec.labels[label]; has {
		return nil
	}
	rec, _ := tx.wNode(id)
	rec.labels[label] = struct{}{}
	tx.wLabelSet(label)[id] = struct{}{}
	for k, v := range rec.props {
		tx.idxInsert(indexKey{label, k}, v, id)
	}
	tx.data.AssignedLabels = append(tx.data.AssignedLabels, LabelChange{Node: id, Label: label})
	return nil
}

// RemoveLabel removes a label from a node; removing an absent label is a
// no-op that records no change.
func (tx *Tx) RemoveLabel(id NodeID, label string) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if rec, ok := tx.view.nodes[id]; !ok {
		return fmtErrNode(id)
	} else if _, has := rec.labels[label]; !has {
		return nil
	}
	rec, _ := tx.wNode(id)
	delete(rec.labels, label)
	delete(tx.wLabelSet(label), id)
	for k, v := range rec.props {
		tx.idxRemove(indexKey{label, k}, v, id)
	}
	tx.data.RemovedLabels = append(tx.data.RemovedLabels, LabelChange{Node: id, Label: label})
	return nil
}

// SetNodeProp assigns a property on a node. Assigning NULL removes the
// property (Cypher SET semantics).
func (tx *Tx) SetNodeProp(id NodeID, key string, v value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	cur, ok := tx.view.nodes[id]
	if !ok {
		return fmtErrNode(id)
	}
	old, had := cur.props[key]
	if v.IsNull() {
		if !had {
			return nil
		}
		rec, _ := tx.wNode(id)
		delete(rec.props, key)
		tx.indexRemoveNode(rec, key, old)
		tx.data.RemovedProps = append(tx.data.RemovedProps,
			PropChange{Kind: NodeEntity, Node: id, Key: key, Old: old, New: value.Null})
		return nil
	}
	rec, _ := tx.wNode(id)
	rec.props[key] = v
	if had {
		tx.indexRemoveNode(rec, key, old)
	}
	tx.indexInsertNode(rec, key, v)
	oldRecorded := value.Null
	if had {
		oldRecorded = old
	}
	tx.data.AssignedProps = append(tx.data.AssignedProps,
		PropChange{Kind: NodeEntity, Node: id, Key: key, Old: oldRecorded, New: v})
	return nil
}

// RemoveNodeProp removes a property from a node; removing an absent
// property is a no-op.
func (tx *Tx) RemoveNodeProp(id NodeID, key string) error {
	return tx.SetNodeProp(id, key, value.Null)
}

// SetRelProp assigns a property on a relationship; assigning NULL removes it.
func (tx *Tx) SetRelProp(id RelID, key string, v value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	cur, ok := tx.view.rels[id]
	if !ok {
		return fmtErrRel(id)
	}
	old, had := cur.props[key]
	if v.IsNull() {
		if !had {
			return nil
		}
		rec, _ := tx.wRel(id)
		delete(rec.props, key)
		tx.data.RemovedProps = append(tx.data.RemovedProps,
			PropChange{Kind: RelEntity, Rel: id, Key: key, Old: old, New: value.Null})
		return nil
	}
	rec, _ := tx.wRel(id)
	rec.props[key] = v
	oldRecorded := value.Null
	if had {
		oldRecorded = old
	}
	tx.data.AssignedProps = append(tx.data.AssignedProps,
		PropChange{Kind: RelEntity, Rel: id, Key: key, Old: oldRecorded, New: v})
	return nil
}

// RemoveRelProp removes a property from a relationship.
func (tx *Tx) RemoveRelProp(id RelID, key string) error {
	return tx.SetRelProp(id, key, value.Null)
}

// ---- Replay operations ----
//
// Write-ahead-log recovery must reproduce the exact identifiers the
// pre-crash run allocated, so it cannot go through CreateNode/CreateRel
// (which draw fresh identifiers). The WithID variants below are the replay
// primitives; they fail if the identifier is already in use and advance the
// allocation counters past the replayed identifier.

// CreateNodeWithID creates a node under a caller-chosen identifier.
func (tx *Tx) CreateNodeWithID(id NodeID, labels []string, props map[string]value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if _, exists := tx.view.nodes[id]; exists {
		return fmt.Errorf("graph: node %d already exists", id)
	}
	if id > tx.view.nextNode {
		tx.view.nextNode = id
	}
	return tx.createNode(id, labels, props)
}

// CreateRelWithID creates a relationship under a caller-chosen identifier.
func (tx *Tx) CreateRelWithID(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if _, exists := tx.view.rels[id]; exists {
		return fmt.Errorf("graph: relationship %d already exists", id)
	}
	if _, ok := tx.view.nodes[start]; !ok {
		return fmtErrNode(start)
	}
	if _, ok := tx.view.nodes[end]; !ok {
		return fmtErrNode(end)
	}
	if id > tx.view.nextRel {
		tx.view.nextRel = id
	}
	return tx.createRel(id, start, end, typ, props)
}

// CreateBridgeRelWithID creates the local half of a cross-shard
// ("knowledge bridge") relationship under a caller-chosen identifier: at
// least one endpoint must be a local node, and only locally present
// endpoints get adjacency entries — the missing endpoint lives in another
// shard, which holds the mirror half under the same identifier. The
// sharded engine (ShardedStore.BridgeTx) and write-ahead-log replay of
// bridge operations are the intended callers; on an unsharded store every
// endpoint is local and CreateRelWithID is the right primitive.
//
// The relationship-identifier counter is advanced only when id belongs to
// this store's allocation band: the mirror half carries the home shard's
// identifier, which must never drag a foreign shard's counter into another
// band.
func (tx *Tx) CreateBridgeRelWithID(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if _, exists := tx.view.rels[id]; exists {
		return fmt.Errorf("graph: relationship %d already exists", id)
	}
	_, hasStart := tx.view.nodes[start]
	_, hasEnd := tx.view.nodes[end]
	if !hasStart && !hasEnd {
		return fmt.Errorf("graph: bridge relationship %d: neither endpoint (%d, %d) is local", id, start, end)
	}
	if ShardOfRel(id) == ShardOfRel(tx.view.nextRel) && id > tx.view.nextRel {
		tx.view.nextRel = id
	}
	return tx.createBridgeHalf(id, start, end, typ, props)
}

// createBridgeHalf installs one shard's half of a bridge relationship:
// the record itself, the type-set entry and adjacency for whichever
// endpoints are locally present.
func (tx *Tx) createBridgeHalf(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	rec := &relRec{id: id, typ: typ, start: start, end: end,
		props: make(map[string]value.Value, len(props))}
	for k, v := range props {
		if !v.IsNull() {
			rec.props[k] = v
		}
	}
	tx.putRel(rec)
	if sRec, ok := tx.wNode(start); ok {
		sRec.out[id] = rec
	}
	if eRec, ok := tx.wNode(end); ok {
		eRec.in[id] = rec
	}
	tx.wRelTypeSet(typ)[id] = struct{}{}
	if tx.relIsMirror(id) {
		tx.view.mirrorRels++
	}
	tx.data.CreatedRels = append(tx.data.CreatedRels, id)
	return nil
}

// relIsMirror reports whether a relationship identifier belongs to another
// shard's allocation band — i.e. the local record is the mirror half of a
// bridge whose home is the peer shard. The store's own band is read off the
// nextRel counter, which by invariant never leaves it (CreateBridgeRelWithID
// and Import both band-guard their counter raises).
func (tx *Tx) relIsMirror(id RelID) bool {
	return ShardOfRel(id) != ShardOfRel(tx.view.nextRel)
}

// HomeRelCount returns the number of relationships whose home is this
// store: every record except bridge mirror halves. Summing it across the
// shards of a sharded store counts each bridge exactly once, in O(1) per
// shard.
func (tx *Tx) HomeRelCount() int { return len(tx.view.rels) - tx.view.mirrorRels }

// Counters returns the identifier-allocation counters (the identifiers of
// the most recently created node and relationship).
func (tx *Tx) Counters() (NodeID, RelID) { return tx.view.nextNode, tx.view.nextRel }

// EnsureCounters raises the identifier-allocation counters to at least the
// given values. Replay uses it so that a recovered store allocates the same
// identifiers the pre-crash run would have, even when the final replayed
// transaction created and then deleted the highest-numbered entities.
func (tx *Tx) EnsureCounters(nextNode NodeID, nextRel RelID) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if nextNode > tx.view.nextNode {
		tx.view.nextNode = nextNode
		tx.w.wrote = true
	}
	if nextRel > tx.view.nextRel {
		tx.view.nextRel = nextRel
		tx.w.wrote = true
	}
	return nil
}

// ---- Read operations ----

// NodeExists reports whether the node is present.
func (tx *Tx) NodeExists(id NodeID) bool {
	_, ok := tx.view.nodes[id]
	return ok
}

// Node returns a snapshot of the node.
func (tx *Tx) Node(id NodeID) (Node, bool) {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return Node{}, false
	}
	return snapshotNode(rec), true
}

// Rel returns a snapshot of the relationship.
func (tx *Tx) Rel(id RelID) (Rel, bool) {
	rec, ok := tx.view.rels[id]
	if !ok {
		return Rel{}, false
	}
	return snapshotRel(rec), true
}

// NodeLabels returns the labels of a node, sorted.
func (tx *Tx) NodeLabels(id NodeID) ([]string, bool) {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return nil, false
	}
	labels := make([]string, 0, len(rec.labels))
	for l := range rec.labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels, true
}

// NodeHasLabel reports whether the node carries the label.
func (tx *Tx) NodeHasLabel(id NodeID, label string) bool {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return false
	}
	_, has := rec.labels[label]
	return has
}

// NodeProp returns a node property value; the second result is false if the
// node does not exist or lacks the property.
func (tx *Tx) NodeProp(id NodeID, key string) (value.Value, bool) {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return value.Null, false
	}
	v, has := rec.props[key]
	return v, has
}

// NodePropKeys returns the property keys of a node, sorted.
func (tx *Tx) NodePropKeys(id NodeID) []string {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return nil
	}
	keys := make([]string, 0, len(rec.props))
	for k := range rec.props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RelProp returns a relationship property value.
func (tx *Tx) RelProp(id RelID, key string) (value.Value, bool) {
	rec, ok := tx.view.rels[id]
	if !ok {
		return value.Null, false
	}
	v, has := rec.props[key]
	return v, has
}

// RelPropKeys returns the property keys of a relationship, sorted.
func (tx *Tx) RelPropKeys(id RelID) []string {
	rec, ok := tx.view.rels[id]
	if !ok {
		return nil
	}
	keys := make([]string, 0, len(rec.props))
	for k := range rec.props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RelEndpoints returns the type, start and end of a relationship without
// copying its properties.
func (tx *Tx) RelEndpoints(id RelID) (typ string, start, end NodeID, ok bool) {
	rec, found := tx.view.rels[id]
	if !found {
		return "", 0, 0, false
	}
	return rec.typ, rec.start, rec.end, true
}

// RelHandle is a lightweight relationship descriptor used during traversal.
type RelHandle struct {
	ID    RelID
	Type  string
	Start NodeID
	End   NodeID
}

// Other returns the endpoint opposite to id.
func (r RelHandle) Other(id NodeID) NodeID {
	if r.Start == id {
		return r.End
	}
	return r.Start
}

// RelsOf returns the relationships incident to a node in the given
// direction, optionally filtered to a set of types (nil means all types).
// For Direction Both, self-loops are reported once.
func (tx *Tx) RelsOf(id NodeID, dir Direction, types []string) []RelHandle {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return nil
	}
	match := func(typ string) bool {
		if len(types) == 0 {
			return true
		}
		for _, t := range types {
			if t == typ {
				return true
			}
		}
		return false
	}
	var out []RelHandle
	appendRel := func(r *relRec) {
		out = append(out, RelHandle{ID: r.id, Type: r.typ, Start: r.start, End: r.end})
	}
	if dir == Outgoing || dir == Both {
		for _, r := range rec.out {
			if match(r.typ) {
				appendRel(r)
			}
		}
	}
	if dir == Incoming || dir == Both {
		for _, r := range rec.in {
			if match(r.typ) && r.start != r.end { // self-loop already reported
				appendRel(r)
			}
		}
	}
	return out
}

// Degree returns the number of relationships incident to a node in the
// given direction.
func (tx *Tx) Degree(id NodeID, dir Direction) int {
	rec, ok := tx.view.nodes[id]
	if !ok {
		return 0
	}
	switch dir {
	case Outgoing:
		return len(rec.out)
	case Incoming:
		return len(rec.in)
	default:
		n := len(rec.out) + len(rec.in)
		for _, r := range rec.out {
			if r.start == r.end {
				n--
			}
		}
		return n
	}
}

// NodesByLabel returns the identifiers of all nodes carrying the label.
func (tx *Tx) NodesByLabel(label string) []NodeID {
	set := tx.view.byLabel[label]
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// CountByLabel returns the number of nodes carrying the label without
// materializing their identifiers.
func (tx *Tx) CountByLabel(label string) int {
	return len(tx.view.byLabel[label])
}

// AllNodes returns the identifiers of every node.
func (tx *Tx) AllNodes() []NodeID {
	out := make([]NodeID, 0, len(tx.view.nodes))
	for id := range tx.view.nodes {
		out = append(out, id)
	}
	return out
}

// AllRels returns the identifiers of every relationship.
func (tx *Tx) AllRels() []RelID {
	out := make([]RelID, 0, len(tx.view.rels))
	for id := range tx.view.rels {
		out = append(out, id)
	}
	return out
}

// RelsByType returns the identifiers of all relationships of the type.
func (tx *Tx) RelsByType(typ string) []RelID {
	set := tx.view.byRelType[typ]
	out := make([]RelID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// NodeCount returns the number of nodes.
func (tx *Tx) NodeCount() int { return len(tx.view.nodes) }

// RelCount returns the number of relationships.
func (tx *Tx) RelCount() int { return len(tx.view.rels) }
