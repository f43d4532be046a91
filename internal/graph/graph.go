// Package graph implements an in-memory transactional property-graph store
// with snapshot-isolated reads.
//
// The store follows the property-graph data model used by the paper: nodes
// and directed relationships carry labels (a set, for nodes; a single type,
// for relationships) and typed properties. Transactions capture every change
// they make (creation and deletion of nodes and relationships, assignment
// and removal of labels and properties) into a TxData record — the same
// shape of transaction event data that Neo4j exposes to APOC triggers — so a
// reactive-rule engine can be layered on top without the store knowing about
// rules.
//
// Concurrency: the store is single-writer, multi-version. The committed
// state is an immutable snapshot published through an atomic pointer. A
// read-write transaction serializes on the store's write lock from Begin
// until Commit or Rollback and edits a private fork of the committed
// snapshot: exactly what it touches — the trie paths it writes in the
// tables, label and relationship-type sets and property-index postings, and
// the node/relationship records — is copied on first touch by the one
// copy-on-write mechanism in cow.go; untouched structure stays shared with
// the committed snapshot. Commit publishes the fork as the next snapshot in
// one atomic store; Rollback just discards it. A read-write transaction
// always reads its own writes.
//
// Read-only transactions (Begin(ReadOnly), View) grab the current snapshot
// pointer and take no lock at all: readers never block behind writers, never
// observe a transaction in progress, and keep seeing the same consistent
// committed state for their whole lifetime, however long a concurrent write
// takes. Clone shares the committed snapshot instead of deep-copying it, so
// forking is an O(1) snapshot grab and the two stores diverge copy-on-write
// from then on.
package graph

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/value"
)

// NodeID identifies a node within a store.
type NodeID int64

// RelID identifies a relationship within a store.
type RelID int64

// Direction selects which relationships of a node to traverse.
type Direction int

// Traversal directions.
const (
	Outgoing Direction = iota
	Incoming
	Both
)

// Errors returned by store operations.
var (
	ErrNodeNotFound  = errors.New("graph: node not found")
	ErrRelNotFound   = errors.New("graph: relationship not found")
	ErrHasRels       = errors.New("graph: cannot delete node with relationships (use detach)")
	ErrTxDone        = errors.New("graph: transaction already finished")
	ErrReadOnly      = errors.New("graph: write in read-only transaction")
	ErrIndexExists   = errors.New("graph: index already exists")
	ErrIndexNotFound = errors.New("graph: index not found")
	ErrFollowerStore = errors.New("graph: store is in follower mode (writes come from replication only)")
)

// Node is an immutable snapshot of a node.
type Node struct {
	ID     NodeID
	Labels []string
	Props  map[string]value.Value
}

// HasLabel reports whether the snapshot carries the label.
func (n Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Rel is an immutable snapshot of a relationship.
type Rel struct {
	ID    RelID
	Type  string
	Start NodeID
	End   NodeID
	Props map[string]value.Value
}

// Other returns the endpoint of r opposite to id.
func (r Rel) Other(id NodeID) NodeID {
	if r.Start == id {
		return r.End
	}
	return r.Start
}

// nodeRec is one version of a node. It is mutated only by the snapshot
// builder named in by (see cow.go); any other builder clones it first. Its
// adjacency, out and in, shares structure with the version it was cloned
// from, so a clone costs the same at a hub as at a leaf.
type nodeRec struct {
	by     *owner
	id     NodeID
	labels map[string]struct{}
	props  map[string]value.Value
	out    cowMap[RelID, *relRec]
	in     cowMap[RelID, *relRec]
}

func (n *nodeRec) ownerOf() *owner { return n.by }

func (n *nodeRec) clone(o *owner) *nodeRec {
	o.recordsCloned.Inc()
	return &nodeRec{
		by:     o,
		id:     n.id,
		labels: maps.Clone(n.labels),
		props:  maps.Clone(n.props),
		out:    n.out,
		in:     n.in,
	}
}

// relRec is one version of a relationship. Endpoints are held by identifier,
// not pointer, so a record stays valid however its endpoint nodes are
// copy-on-write cloned across versions.
type relRec struct {
	by    *owner
	id    RelID
	typ   string
	start NodeID
	end   NodeID
	props map[string]value.Value
}

func (r *relRec) ownerOf() *owner { return r.by }

func (r *relRec) clone(o *owner) *relRec {
	o.recordsCloned.Inc()
	c := *r
	c.by = o
	c.props = maps.Clone(r.props)
	return &c
}

// Posting sets and property indexes. A propIndex maps a property value (by
// hash key) to the nodes of the indexed label carrying that value.
type (
	nodeSet   = cowMap[NodeID, struct{}]
	relSet    = cowMap[RelID, struct{}]
	propIndex = cowMap[string, *nodeSet]
)

// snapshot is one version of the whole store. A snapshot reachable from
// Store.snap (or pinned by a read-only transaction or a clone) is immutable;
// the next version is a fork that its builder edits through the
// copy-on-write containers of cow.go and then publishes. The zero value is
// the empty store.
type snapshot struct {
	// by is the token of the builder that made (or is making) this version.
	by        *owner
	nodes     cowMap[NodeID, *nodeRec]
	rels      cowMap[RelID, *relRec]
	byLabel   cowMap[string, *nodeSet]
	byRelType cowMap[string, *relSet]
	indexes   cowMap[indexKey, *propIndex]
	// derived holds the aggregates a rule engine keeps over this version
	// (see Tx.Derived): per slot, an entry per key.
	derived  derivedSlots
	nextNode NodeID
	nextRel  RelID
}

// fork returns a private copy of sn for a new builder: every table is still
// shared with sn, and the builder copies what it writes, counting the copies
// in m.
func (sn *snapshot) fork(m *Metrics) *snapshot {
	next := *sn
	next.by = &owner{recordsCloned: m.RecordsCloned, nodesCopied: m.NodesCopied}
	return &next
}

// publish makes a builder's snapshot the committed one, unless the builder
// wrote nothing. The caller holds writeMu.
func (s *Store) publish(sn *snapshot) {
	if sn.by.dirty {
		s.snap.Store(sn)
		s.metrics.Load().SnapshotsPublished.Inc()
	}
}

// Validator is invoked at commit time with the committing transaction; a
// non-nil error aborts the commit and rolls the transaction back. Schema and
// key constraints plug in here.
type Validator func(tx *Tx) error

// CommitHook is invoked when a read-write transaction commits, after every
// validator has passed, while the transaction is still live and before its
// snapshot is published. A non-nil error aborts the commit and rolls the
// transaction back. The write-ahead log plugs in here: it reads the final
// state of the transaction's changes and appends them as one durable
// record, so a transaction is either fully logged or fully rolled back. A
// hook that wants work done after publication (for example waiting on a
// group-commit fsync outside the write lock) registers it with
// Tx.OnCommitted.
type CommitHook func(tx *Tx) error

// Metrics holds the store's optional instrumentation. All fields may be
// nil (instrument methods on nil receivers no-op), so an unwired store pays
// only a nil check per transaction.
type Metrics struct {
	// TxCommits counts committed read-write transactions (an Import is
	// one).
	TxCommits *metrics.Counter
	// TxRollbacks counts rolled-back read-write transactions (explicit
	// rollbacks plus validator- and hook-aborted commits).
	TxRollbacks *metrics.Counter
	// TxSeconds observes read-write transaction latency from Begin to
	// Commit or Rollback — the write-lock hold time.
	TxSeconds *metrics.Histogram
	// SnapshotsPublished counts committed snapshot versions published
	// (write-transaction commits, index creation/drop, imports).
	SnapshotsPublished *metrics.Counter
	// SnapshotReads counts read-only transactions served lock-free from a
	// published snapshot.
	SnapshotReads *metrics.Counter
	// RecordsCloned counts node and relationship records cloned
	// copy-on-write by write transactions — the per-commit COW footprint.
	// A record counts once per transaction that touches it; records a
	// transaction created itself never count.
	RecordsCloned *metrics.Counter
	// NodesCopied counts the nodes of the tables' hash tries that
	// builders (write transactions, index creation and drop) copied
	// copy-on-write: the root-to-leaf paths their first writes walked.
	NodesCopied *metrics.Counter
}

// Store is an in-memory property-graph database.
type Store struct {
	// writeMu serializes read-write transactions, index creation/drop and
	// Import. The read path never takes it.
	writeMu sync.Mutex
	// snap is the current committed snapshot: loaded atomically (and
	// lock-free) by readers, swapped at commit under writeMu.
	snap atomic.Pointer[snapshot]
	// validators is an immutable slice, swapped whole by AddValidator so
	// Clone can copy it without blocking behind an open write transaction.
	validators atomic.Pointer[[]Validator]
	// commitHook is guarded by writeMu.
	commitHook CommitHook
	// metrics is stored as a pointer so the lock-free read path can load it
	// atomically.
	metrics atomic.Pointer[Metrics]
	// follower, when set, rejects every ordinary read-write commit with
	// ErrFollowerStore: the only writes a replica accepts are replayed leader
	// records applied through BeginApply (see internal/replica).
	follower atomic.Bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	s.snap.Store(&snapshot{})
	s.metrics.Store(&Metrics{})
	return s
}

// AddValidator registers a commit-time validator. Safe to call concurrently
// with readers; like all configuration it must not race an open write
// transaction.
func (s *Store) AddValidator(v Validator) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var vs []Validator
	if old := s.validators.Load(); old != nil {
		vs = append(vs, *old...)
	}
	vs = append(vs, v)
	s.validators.Store(&vs)
}

// SetCommitHook installs (or, with nil, removes) the commit hook. At most
// one hook is supported; it is not shared by Clone, so forks of a durable
// store are purely in-memory. Not safe to call concurrently with open write
// transactions.
func (s *Store) SetCommitHook(h CommitHook) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.commitHook = h
}

// SetMetrics installs the store's instrumentation. Clone does not share it,
// so forks are unobserved unless re-wired.
func (s *Store) SetMetrics(m Metrics) {
	s.metrics.Store(&m)
}

// SetFollowerMode switches the store's write gate. In follower mode every
// ordinary read-write transaction fails at Commit with ErrFollowerStore;
// only transactions started with BeginApply (the replication apply path) and
// Import (bootstrap) may change the graph. Reads are unaffected.
func (s *Store) SetFollowerMode(on bool) { s.follower.Store(on) }

// FollowerMode reports whether the store only accepts replicated writes.
func (s *Store) FollowerMode() bool { return s.follower.Load() }

// BeginApply starts a read-write transaction for applying replicated leader
// records: it bypasses the follower-mode write gate and the commit-time
// validators (the leader already validated the original transaction — a
// follower must apply the record stream verbatim or diverge). Everything
// else — write lock, copy-on-write, commit hook, snapshot publication —
// behaves exactly like Begin(ReadWrite).
func (s *Store) BeginApply() *Tx {
	tx := s.Begin(ReadWrite)
	tx.apply = true
	return tx
}

// LabelCount returns the number of nodes currently carrying label. It is a
// lock-free map-size read on the committed snapshot, so scrape-time
// cardinality gauges never stall behind a writer.
func (s *Store) LabelCount(label string) int {
	return s.snap.Load().byLabel.at(label).len()
}

// Mode selects the access mode of a transaction.
type Mode int

// Transaction modes.
const (
	ReadOnly Mode = iota
	ReadWrite
)

// Begin starts a transaction. A ReadWrite transaction holds the store's
// write lock until Commit or Rollback; callers must always finish it. A
// ReadOnly transaction takes no lock: it pins the current committed
// snapshot and observes exactly that state for its whole lifetime.
func (s *Store) Begin(mode Mode) *Tx {
	m := s.metrics.Load()
	if mode == ReadWrite {
		s.writeMu.Lock()
		tx := &Tx{s: s, mode: mode, data: &TxData{}, view: s.snap.Load().fork(m), metrics: m}
		if m.TxSeconds != nil {
			tx.start = time.Now()
		}
		return tx
	}
	m.SnapshotReads.Inc()
	return &Tx{s: s, mode: mode, data: &TxData{}, view: s.snap.Load(), metrics: m}
}

// View runs fn inside a read-only transaction. It never blocks behind a
// writer: fn sees the most recently committed snapshot.
func (s *Store) View(fn func(tx *Tx) error) error {
	tx := s.Begin(ReadOnly)
	defer tx.Rollback()
	return fn(tx)
}

// Update runs fn inside a read-write transaction, committing on success and
// rolling back if fn or a commit validator fails.
func (s *Store) Update(fn func(tx *Tx) error) error {
	tx := s.Begin(ReadWrite)
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// SnapshotView runs barrier while the write lock is held — no commit can
// interleave — and returns a read-only transaction pinned to the committed
// snapshot of that instant. Checkpointing passes a barrier that cuts the
// write-ahead log, pairing the log position exactly with the returned view,
// and then exports from the view after the lock is released, so writers
// wait only for the barrier, never for the export or the disk.
func (s *Store) SnapshotView(barrier func() error) (*Tx, error) {
	m := s.metrics.Load()
	s.writeMu.Lock()
	err := barrier()
	sn := s.snap.Load()
	s.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	m.SnapshotReads.Inc()
	return &Tx{s: s, mode: ReadOnly, data: &TxData{}, view: sn, metrics: m}, nil
}

// Clone returns an independent store over the same data. It is an O(1)
// snapshot grab, not a deep copy: the committed snapshot's tables are
// shared (its derived entries are not, see Tx.Derived), and
// writes on either store diverge from it copy-on-write — changes in one are
// never visible in the other. Validators are shared (they are closures over
// schema and hub definitions, which forks are meant to keep); the commit
// hook and metrics are not, so forks of a durable store are purely
// in-memory and unobserved unless re-wired. Clone is the substrate for
// what-if forking (§V of the paper) and never blocks behind a writer.
func (s *Store) Clone() *Store {
	ns := &Store{}
	// Derived entries belong to the engine that keeps them, which the clone
	// does not share.
	sn := *s.snap.Load()
	sn.derived = derivedSlots{}
	ns.snap.Store(&sn)
	if vs := s.validators.Load(); vs != nil {
		cp := append([]Validator(nil), *vs...)
		ns.validators.Store(&cp)
	}
	ns.metrics.Store(&Metrics{})
	return ns
}

// Stats reports the current size of the store.
type Stats struct {
	Nodes         int
	Relationships int
	Labels        int
	RelTypes      int
	Indexes       int
}

// Stats returns a snapshot of store-size counters. Lock-free.
func (s *Store) Stats() Stats {
	sn := s.snap.Load()
	return Stats{
		Nodes:         sn.nodes.len(),
		Relationships: sn.rels.len(),
		Labels:        sn.byLabel.len(),
		RelTypes:      sn.byRelType.len(),
		Indexes:       sn.indexes.len(),
	}
}

func snapshotNode(n *nodeRec) Node {
	labels := make([]string, 0, len(n.labels))
	for l := range n.labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	props := make(map[string]value.Value, len(n.props))
	for k, v := range n.props {
		props[k] = v
	}
	return Node{ID: n.id, Labels: labels, Props: props}
}

func snapshotRel(r *relRec) Rel {
	props := make(map[string]value.Value, len(r.props))
	for k, v := range r.props {
		props[k] = v
	}
	return Rel{ID: r.id, Type: r.typ, Start: r.start, End: r.end, Props: props}
}

func fmtErrNode(id NodeID) error { return fmt.Errorf("%w: %d", ErrNodeNotFound, id) }
func fmtErrRel(id RelID) error   { return fmt.Errorf("%w: %d", ErrRelNotFound, id) }
