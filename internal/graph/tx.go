package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/value"
)

// Tx is a transaction over a Store. Read methods are valid in both modes;
// write methods fail with ErrReadOnly in a read-only transaction. A
// transaction must be finished with Commit or Rollback exactly once;
// Rollback after Commit is a no-op, which makes `defer tx.Rollback()` safe.
//
// A read-write transaction edits a private fork of the committed snapshot
// (copy-on-write, see cow.go) and publishes it at Commit; Rollback simply
// discards the fork. A read-only transaction shares the immutable committed
// snapshot and must never reach a write method.
type Tx struct {
	s    *Store
	mode Mode
	done bool
	data *TxData
	// view is the state this transaction reads: the pinned committed
	// snapshot for ReadOnly, the private fork for ReadWrite.
	view *snapshot
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
	// writes counts the changes recorded in data, across ResetData.
	writes uint64
	// derivedAt is the writes reading at the last FoldDerived.
	derivedAt uint64
}

// Store returns the store the transaction reads. Per-store caches — the
// query engine's compiled plan variants, costed against one store's
// statistics — key on it.
func (tx *Tx) Store() *Store { return tx.s }

// Data exposes the changes made so far by this transaction. The caller must
// not mutate the returned record.
func (tx *Tx) Data() *TxData { return tx.data }

// Writes returns how many changes the transaction has recorded so far. It
// only grows (ResetData does not reset it), so two equal readings mean
// nothing was written in between.
func (tx *Tx) Writes() uint64 { return tx.writes }

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
// transaction's fork as the new committed snapshot, releases the
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
	if tx.writes != tx.derivedAt {
		// Changes nobody folded into the derived entries: they describe an
		// earlier version, so this one publishes none.
		tx.view.derived = derivedSlots{}
	}
	tx.done = true
	tx.s.publish(tx.view)
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

// Rollback discards all changes made by the transaction — the fork is
// simply dropped, the committed snapshot was never touched. Calling it
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

// ---- Write operations ----
//
// Every write goes through the copy-on-write containers of cow.go, stamped
// with the fork's owner token: tables, posting sets and records are copied
// the first time this transaction touches them and written in place after
// that. Reads go through tx.view, so the transaction sees its own writes
// while concurrent readers keep seeing the untouched committed snapshot.

// editNode returns a node record the transaction may mutate.
func (tx *Tx) editNode(id NodeID) (*nodeRec, bool) {
	return edit(&tx.view.nodes, tx.view.by, id)
}

// indexNode files (member) or unfiles (!member) node id under value v in the
// index on ik, if there is one.
func (sn *snapshot) indexNode(ik indexKey, v value.Value, id NodeID, member bool) {
	idx, ok := edit(&sn.indexes, sn.by, ik)
	if !ok {
		return
	}
	if member {
		post(idx, sn.by, v.Key(), id)
	} else {
		unpost(idx, sn.by, v.Key(), id)
	}
}

// indexProp updates, for every label of rec, the index on (label, key).
func (sn *snapshot) indexProp(rec *nodeRec, key string, v value.Value, member bool) {
	for label := range rec.labels {
		sn.indexNode(indexKey{label, key}, v, rec.id, member)
	}
}

// storedProps copies props without its NULL entries, which are not stored.
func storedProps(props map[string]value.Value) map[string]value.Value {
	out := make(map[string]value.Value, len(props))
	for k, v := range props {
		if !v.IsNull() {
			out[k] = v
		}
	}
	return out
}

// CreateNode creates a node with the given labels and properties and
// returns its identifier. NULL-valued properties are not stored.
func (tx *Tx) CreateNode(labels []string, props map[string]value.Value) (NodeID, error) {
	if err := tx.writable(); err != nil {
		return 0, err
	}
	tx.view.nextNode++
	id := tx.view.nextNode
	tx.createNode(id, labels, storedProps(props))
	return id, nil
}

// createNode installs a new node; it takes ownership of props, which must be
// free of NULLs.
func (tx *Tx) createNode(id NodeID, labels []string, props map[string]value.Value) {
	sn := tx.view
	rec := &nodeRec{
		by:     sn.by,
		id:     id,
		labels: make(map[string]struct{}, len(labels)),
		props:  props,
	}
	for _, l := range labels {
		rec.labels[l] = struct{}{}
	}
	sn.nodes.set(sn.by, id, rec)
	for l := range rec.labels {
		post(&sn.byLabel, sn.by, l, id)
	}
	for k, v := range rec.props {
		sn.indexProp(rec, k, v, true)
	}
	tx.writes++
	tx.data.CreatedNodes = append(tx.data.CreatedNodes, id)
}

// DeleteNode removes a node. If the node still has relationships the call
// fails with ErrHasRels unless detach is true, in which case all incident
// relationships are deleted first (DETACH DELETE).
func (tx *Tx) DeleteNode(id NodeID, detach bool) error {
	if err := tx.writable(); err != nil {
		return err
	}
	sn := tx.view
	rec, ok := sn.nodes.get(id)
	if !ok {
		return fmtErrNode(id)
	}
	if rec.out.len() > 0 || rec.in.len() > 0 {
		if !detach {
			return ErrHasRels
		}
		// Outgoing, then incoming, each in ID order, from copies of the
		// key sets (the deletes edit them). A self-loop is in both and
		// goes with the outgoing ones.
		for _, rid := range append(rec.out.keys(), rec.in.keys()...) {
			if _, ok := sn.rels.get(rid); !ok {
				continue
			}
			if err := tx.DeleteRel(rid); err != nil {
				return err
			}
		}
		rec = sn.nodes.at(id) // detach replaced the record copy-on-write
	}
	snap := snapshotNode(rec)
	for l := range rec.labels {
		unpost(&sn.byLabel, sn.by, l, id)
	}
	for k, v := range rec.props {
		sn.indexProp(rec, k, v, false)
	}
	sn.nodes.del(sn.by, id)
	tx.writes++
	tx.data.DeletedNodes = append(tx.data.DeletedNodes, snap)
	return nil
}

// CreateRel creates a relationship of the given type from start to end.
func (tx *Tx) CreateRel(start, end NodeID, typ string, props map[string]value.Value) (RelID, error) {
	if err := tx.writable(); err != nil {
		return 0, err
	}
	if !tx.NodeExists(start) {
		return 0, fmtErrNode(start)
	}
	if !tx.NodeExists(end) {
		return 0, fmtErrNode(end)
	}
	tx.view.nextRel++
	id := tx.view.nextRel
	tx.installRel(id, start, end, typ, storedProps(props))
	return id, nil
}

// installRel is the one relationship installer: the record itself, the
// type-set entry and both endpoints' adjacency. Callers check that both
// endpoints exist. It takes ownership of props, which must be free of
// NULLs.
func (tx *Tx) installRel(id RelID, start, end NodeID, typ string, props map[string]value.Value) {
	sn := tx.view
	rec := &relRec{by: sn.by, id: id, typ: typ, start: start, end: end, props: props}
	sn.rels.set(sn.by, id, rec)
	sRec, _ := tx.editNode(start)
	sRec.out.set(sn.by, id, rec)
	eRec, _ := tx.editNode(end)
	eRec.in.set(sn.by, id, rec)
	post(&sn.byRelType, sn.by, typ, id)
	tx.writes++
	tx.data.CreatedRels = append(tx.data.CreatedRels, id)
}

// DeleteRel removes a relationship.
func (tx *Tx) DeleteRel(id RelID) error {
	if err := tx.writable(); err != nil {
		return err
	}
	sn := tx.view
	rec, ok := sn.rels.get(id)
	if !ok {
		return fmtErrRel(id)
	}
	snap := snapshotRel(rec)
	sn.rels.del(sn.by, id)
	sRec, _ := tx.editNode(rec.start)
	sRec.out.del(sn.by, id)
	eRec, _ := tx.editNode(rec.end)
	eRec.in.del(sn.by, id)
	unpost(&sn.byRelType, sn.by, rec.typ, id)
	tx.writes++
	tx.data.DeletedRels = append(tx.data.DeletedRels, snap)
	return nil
}

// SetLabel adds a label to a node; adding a label the node already carries
// is a no-op that records no change.
func (tx *Tx) SetLabel(id NodeID, label string) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if rec, ok := tx.view.nodes.get(id); !ok {
		return fmtErrNode(id)
	} else if _, has := rec.labels[label]; has {
		return nil
	}
	rec, _ := tx.editNode(id)
	rec.labels[label] = struct{}{}
	post(&tx.view.byLabel, tx.view.by, label, id)
	for k, v := range rec.props {
		tx.view.indexNode(indexKey{label, k}, v, id, true)
	}
	tx.writes++
	tx.data.AssignedLabels = append(tx.data.AssignedLabels, LabelChange{Node: id, Label: label})
	return nil
}

// RemoveLabel removes a label from a node; removing an absent label is a
// no-op that records no change.
func (tx *Tx) RemoveLabel(id NodeID, label string) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if rec, ok := tx.view.nodes.get(id); !ok {
		return fmtErrNode(id)
	} else if _, has := rec.labels[label]; !has {
		return nil
	}
	rec, _ := tx.editNode(id)
	delete(rec.labels, label)
	unpost(&tx.view.byLabel, tx.view.by, label, id)
	for k, v := range rec.props {
		tx.view.indexNode(indexKey{label, k}, v, id, false)
	}
	tx.writes++
	tx.data.RemovedLabels = append(tx.data.RemovedLabels, LabelChange{Node: id, Label: label})
	return nil
}

// SetNodeProp assigns a property on a node. Assigning NULL removes the
// property (Cypher SET semantics).
func (tx *Tx) SetNodeProp(id NodeID, key string, v value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	cur, ok := tx.view.nodes.get(id)
	if !ok {
		return fmtErrNode(id)
	}
	old, had := cur.props[key]
	if v.IsNull() {
		if !had {
			return nil
		}
		rec, _ := tx.editNode(id)
		delete(rec.props, key)
		tx.view.indexProp(rec, key, old, false)
		tx.writes++
		tx.data.RemovedProps = append(tx.data.RemovedProps,
			PropChange{Kind: NodeEntity, Node: id, Key: key, Old: old, New: value.Null})
		return nil
	}
	rec, _ := tx.editNode(id)
	rec.props[key] = v
	if had {
		tx.view.indexProp(rec, key, old, false)
	}
	tx.view.indexProp(rec, key, v, true)
	oldRecorded := value.Null
	if had {
		oldRecorded = old
	}
	tx.writes++
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
	cur, ok := tx.view.rels.get(id)
	if !ok {
		return fmtErrRel(id)
	}
	old, had := cur.props[key]
	if v.IsNull() {
		if !had {
			return nil
		}
		rec, _ := edit(&tx.view.rels, tx.view.by, id)
		delete(rec.props, key)
		tx.writes++
		tx.data.RemovedProps = append(tx.data.RemovedProps,
			PropChange{Kind: RelEntity, Rel: id, Key: key, Old: old, New: value.Null})
		return nil
	}
	rec, _ := edit(&tx.view.rels, tx.view.by, id)
	rec.props[key] = v
	oldRecorded := value.Null
	if had {
		oldRecorded = old
	}
	tx.writes++
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
	if tx.NodeExists(id) {
		return fmt.Errorf("graph: node %d already exists", id)
	}
	if id > tx.view.nextNode {
		tx.view.nextNode = id
	}
	tx.createNode(id, labels, storedProps(props))
	return nil
}

// CreateRelWithID creates a relationship under a caller-chosen identifier.
func (tx *Tx) CreateRelWithID(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	return tx.createRelWithID(id, start, end, typ, storedProps(props))
}

// createRelWithID is CreateRelWithID for props already free of NULLs, which
// it takes ownership of, like installRel.
func (tx *Tx) createRelWithID(id RelID, start, end NodeID, typ string, props map[string]value.Value) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if _, exists := tx.view.rels.get(id); exists {
		return fmt.Errorf("graph: relationship %d already exists", id)
	}
	if !tx.NodeExists(start) {
		return fmtErrNode(start)
	}
	if !tx.NodeExists(end) {
		return fmtErrNode(end)
	}
	if id > tx.view.nextRel {
		tx.view.nextRel = id
	}
	tx.installRel(id, start, end, typ, props)
	return nil
}

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
		tx.view.by.dirty = true
	}
	if nextRel > tx.view.nextRel {
		tx.view.nextRel = nextRel
		tx.view.by.dirty = true
	}
	return nil
}

// ---- Read operations ----

// NodeExists reports whether the node is present.
func (tx *Tx) NodeExists(id NodeID) bool {
	_, ok := tx.view.nodes.get(id)
	return ok
}

// Node returns a snapshot of the node.
func (tx *Tx) Node(id NodeID) (Node, bool) {
	rec, ok := tx.view.nodes.get(id)
	if !ok {
		return Node{}, false
	}
	return snapshotNode(rec), true
}

// Rel returns a snapshot of the relationship.
func (tx *Tx) Rel(id RelID) (Rel, bool) {
	rec, ok := tx.view.rels.get(id)
	if !ok {
		return Rel{}, false
	}
	return snapshotRel(rec), true
}

// NodeLabels returns the labels of a node, sorted.
func (tx *Tx) NodeLabels(id NodeID) ([]string, bool) {
	rec, ok := tx.view.nodes.get(id)
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
	rec, ok := tx.view.nodes.get(id)
	if !ok {
		return false
	}
	_, has := rec.labels[label]
	return has
}

// NodeProp returns a node property value; the second result is false if the
// node does not exist or lacks the property.
func (tx *Tx) NodeProp(id NodeID, key string) (value.Value, bool) {
	rec, ok := tx.view.nodes.get(id)
	if !ok {
		return value.Null, false
	}
	v, has := rec.props[key]
	return v, has
}

// NodePropKeys returns the property keys of a node, sorted.
func (tx *Tx) NodePropKeys(id NodeID) []string {
	rec, ok := tx.view.nodes.get(id)
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
	rec, ok := tx.view.rels.get(id)
	if !ok {
		return value.Null, false
	}
	v, has := rec.props[key]
	return v, has
}

// RelPropKeys returns the property keys of a relationship, sorted.
func (tx *Tx) RelPropKeys(id RelID) []string {
	rec, ok := tx.view.rels.get(id)
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
	rec, found := tx.view.rels.get(id)
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
// A self-loop is both outgoing and incoming; for Direction Both it is
// reported once.
func (tx *Tx) RelsOf(id NodeID, dir Direction, types []string) []RelHandle {
	rec, ok := tx.view.nodes.get(id)
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
	if dir == Outgoing || dir == Both {
		rec.out.each(func(_ RelID, r *relRec) {
			if match(r.typ) {
				out = append(out, RelHandle{ID: r.id, Type: r.typ, Start: r.start, End: r.end})
			}
		})
	}
	if dir == Incoming || dir == Both {
		rec.in.each(func(_ RelID, r *relRec) {
			if match(r.typ) && (dir != Both || r.start != r.end) { // Both: self-loop already reported
				out = append(out, RelHandle{ID: r.id, Type: r.typ, Start: r.start, End: r.end})
			}
		})
	}
	return out
}

// Degree returns the number of relationships incident to a node in the
// given direction.
func (tx *Tx) Degree(id NodeID, dir Direction) int {
	rec, ok := tx.view.nodes.get(id)
	if !ok {
		return 0
	}
	switch dir {
	case Outgoing:
		return rec.out.len()
	case Incoming:
		return rec.in.len()
	default:
		n := rec.out.len() + rec.in.len()
		rec.out.each(func(_ RelID, r *relRec) {
			if r.start == r.end {
				n--
			}
		})
		return n
	}
}

// NodesByLabel returns the identifiers of all nodes carrying the label.
func (tx *Tx) NodesByLabel(label string) []NodeID {
	return tx.view.byLabel.at(label).keys()
}

// CountByLabel returns the number of nodes carrying the label without
// materializing their identifiers.
func (tx *Tx) CountByLabel(label string) int {
	return tx.view.byLabel.at(label).len()
}

// AllNodes returns the identifiers of every node.
func (tx *Tx) AllNodes() []NodeID { return tx.view.nodes.keys() }

// AllRels returns the identifiers of every relationship.
func (tx *Tx) AllRels() []RelID { return tx.view.rels.keys() }

// RelsByType returns the identifiers of all relationships of the type.
func (tx *Tx) RelsByType(typ string) []RelID {
	return tx.view.byRelType.at(typ).keys()
}

// NodeCount returns the number of nodes.
func (tx *Tx) NodeCount() int { return tx.view.nodes.len() }

// RelCount returns the number of relationships.
func (tx *Tx) RelCount() int { return tx.view.rels.len() }

// ---- Derived state ----
//
// Derived entries are aggregates a rule engine maintains over the graph (the
// maintained alert aggregates of internal/trigger): a DerivedEntry per
// (slot, key), kept in the snapshot, so they share its versions, are read
// lock-free by read-only transactions and roll back with the transaction
// that wrote them. They are never logged, snapshotted or exported. The store
// does not know what they aggregate; it only keeps one promise: a committed
// version's entries describe that version. A transaction whose writer has
// not folded every change it made into them (FoldDerived) therefore commits
// with none — a bulk load, a WAL replay, a follower's apply or any
// Store.Update drops them all in O(1), and the engine recounts on the next
// read.

// derivedSlots holds a snapshot's derived entries, per slot.
type derivedSlots = cowMap[int, *cowMap[value.Key, DerivedEntry]]

// DerivedEntry is one kept aggregate: N counts the matches aggregated (the
// distinct ones, for a count(DISTINCT)), and V is the aggregate's value when
// it is not that count (a max or a min, NULL when every aggregated value
// was).
type DerivedEntry struct {
	N int64
	V value.Value
}

// Derived returns the entry under (slot, k).
func (tx *Tx) Derived(slot int, k value.Key) (DerivedEntry, bool) {
	return tx.view.derived.at(slot).get(k)
}

// DerivedLen returns the number of entries under slot.
func (tx *Tx) DerivedLen(slot int) int { return tx.view.derived.at(slot).len() }

// SetDerived stores e under (slot, k). It is a no-op in a read-only
// transaction.
func (tx *Tx) SetDerived(slot int, k value.Key, e DerivedEntry) {
	if tx.writable() != nil {
		return
	}
	sn := tx.view
	m, ok := edit(&sn.derived, sn.by, slot)
	if !ok {
		m = &cowMap[value.Key, DerivedEntry]{by: sn.by}
		sn.derived.set(sn.by, slot, m)
	}
	m.set(sn.by, k, e)
}

// DropDerived removes every entry under slot.
func (tx *Tx) DropDerived(slot int) {
	if tx.writable() != nil || tx.view.derived.at(slot).len() == 0 {
		return
	}
	tx.view.derived.del(tx.view.by, slot)
}

// KeepDerived removes the entries of every slot not in slots: those of
// aggregates nobody maintains any more.
func (tx *Tx) KeepDerived(slots []int) {
	if tx.writable() != nil {
		return
	}
	var drop []int
	tx.view.derived.each(func(slot int, _ *cowMap[value.Key, DerivedEntry]) {
		if !slices.Contains(slots, slot) {
			drop = append(drop, slot)
		}
	})
	for _, slot := range drop {
		tx.view.derived.del(tx.view.by, slot)
	}
}

// FoldDerived records that the caller has brought the derived entries up to
// date with every change the transaction has made so far.
func (tx *Tx) FoldDerived() { tx.derivedAt = tx.writes }

// DerivedCurrent reports whether the derived entries describe the current
// state: every change the transaction has made is folded into them.
func (tx *Tx) DerivedCurrent() bool { return tx.derivedAt == tx.writes }

// DerivedBehind reports whether the caller must fold the transaction's whole
// change record before the entries describe the current state: it has made
// changes and none of them is folded. When only some are folded, which ones
// the record does not say, so the entries are dropped instead (none is
// current for any state) and it reports false.
func (tx *Tx) DerivedBehind() bool {
	switch {
	case tx.DerivedCurrent():
		return false
	case tx.derivedAt == 0:
		return true
	}
	if tx.writable() == nil {
		tx.view.derived = derivedSlots{}
	}
	tx.FoldDerived()
	return false
}
