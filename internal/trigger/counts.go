package trigger

// Maintained alert aggregates: counting-based incremental view maintenance
// (Gupta, Mumick & Subrahmanian, SIGMOD 1993) of the aggregate parts that
// cypher.FindAggParts recognises in alert queries — "count (or take the max
// or min over) the x that reach g" — so that an alert like the demo pack's
// R2–R5 reads an aggregate per region instead of recomputing it over the
// region's history on every firing (DESIGN §4).
//
// The aggregates live in the store snapshot (graph.Tx's derived entries),
// one slot per part: they share its versions, roll back with the
// transaction and are never persisted. An entry is written by a read that
// missed (a recount, with the key bound) and kept exact by the fold: before
// an alert reads and at the end of every round, the engine folds the changes
// the transaction made since the last fold. A created x merges its
// contribution (the part's ByX plan run with x bound) into the entries
// present; any other change inside the part's footprint drops the part's
// entries, and reads recount. Commits that bypass the engine drop every
// entry.

import (
	"sync/atomic"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/value"
)

// aggSlots numbers aggregates process-wide, so that two engines over
// stores that share snapshots never read each other's entries.
var aggSlots atomic.Int64

// aggregate is one aggregate part of a rule's alert, with its entry per key
// kept under slot. It is the alert plan's cypher.AggSource for that part.
type aggregate struct {
	part                 *cypher.AggPart
	slot                 int
	labels, types, props map[string]bool

	mHit, mRecount, mDrops *metrics.Counter
}

func newAggregate(cp *cypher.AggPart, m EngineMetrics) *aggregate {
	set := func(ss []string) map[string]bool {
		out := make(map[string]bool, len(ss))
		for _, s := range ss {
			out[s] = true
		}
		return out
	}
	return &aggregate{
		part: cp, slot: int(aggSlots.Add(1)),
		labels: set(cp.Labels), types: set(cp.RelTypes), props: set(cp.PropKeys),
		mHit: m.CountReads.With("hit"), mRecount: m.CountReads.With("recount"), mDrops: m.CountDrops,
	}
}

// Aggregate returns the aggregate of key k (of value g): the kept one when
// tx's entries are up to date and hold k, otherwise a recount — kept, when
// they are up to date.
func (a *aggregate) Aggregate(tx *graph.Tx, k value.Key, g value.Value) (graph.DerivedEntry, error) {
	fresh := tx.DerivedCurrent()
	if fresh {
		if e, ok := tx.Derived(a.slot, k); ok {
			a.mHit.Inc()
			return e, nil
		}
	}
	a.mRecount.Inc()
	rows, err := runBound(tx, a.part.ByKey, a.part.G, g)
	if err != nil {
		return graph.DerivedEntry{}, err
	}
	var e graph.DerivedEntry
	if len(rows) > 0 {
		e = a.part.Entry(rows[0])
	}
	if fresh {
		tx.SetDerived(a.slot, k, e)
	}
	return e, nil
}

// runBound executes one of a part's plans with variable v bound to val; its
// rows are (g, n[, v]).
func runBound(tx *graph.Tx, p *cypher.Plan, v string, val value.Value) ([][]value.Value, error) {
	res, err := p.Execute(tx, &cypher.Options{Bindings: map[string]value.Value{v: val}})
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// hasAll reports whether node id exists and carries every label.
func hasAll(tx *graph.Tx, id graph.NodeID, labels []string) bool {
	for _, l := range labels {
		if !tx.NodeHasLabel(id, l) {
			return false
		}
	}
	return tx.NodeExists(id)
}

// clean reports whether node id can sit at the part's x positions only
// (besides g's): then every match through a relationship incident to it,
// new since the last fold, binds x to it or has it for g.
func (a *aggregate) clean(tx *graph.Tx, id graph.NodeID) bool {
	if !hasAll(tx, id, a.part.XLabels) {
		return false
	}
	for _, o := range a.part.Others {
		if hasAll(tx, id, o) {
			return false
		}
	}
	return true
}

// touched reports whether d holds a change inside the part's footprint that
// the contributions of d's new x do not account for.
func (a *aggregate) touched(tx *graph.Tx, d *delta, nodes *idSet[graph.NodeID], rels *idSet[graph.RelID]) bool {
	for _, id := range d.rels {
		typ, start, end, ok := tx.RelEndpoints(id)
		if !ok || !a.types[typ] {
			continue // a relationship gone since is in goneRels
		}
		if !(nodes.has(start) && a.clean(tx, start)) && !(nodes.has(end) && a.clean(tx, end)) {
			return true
		}
	}
	for _, r := range d.goneRels {
		if a.types[r.Type] {
			return true
		}
	}
	for _, n := range d.goneNodes {
		for _, l := range n.Labels {
			if a.labels[l] {
				return true
			}
		}
	}
	for _, lcs := range d.labels {
		for _, lc := range lcs {
			if a.labels[lc.Label] && !nodes.has(lc.Node) {
				return true
			}
		}
	}
	for _, pcs := range d.props {
		for _, pc := range pcs {
			switch {
			case !a.props[pc.Key]:
			case pc.Kind == graph.NodeEntity && !nodes.has(pc.Node):
				return true
			case pc.Kind == graph.RelEntity && !rels.has(pc.Rel):
				return true
			}
		}
	}
	return false
}

// idSet answers membership in a list of new identifiers, building a map
// only for a long one.
type idSet[ID comparable] struct {
	ids []ID
	m   map[ID]bool
}

func (s *idSet[ID]) has(id ID) bool {
	if len(s.ids) <= 16 {
		for _, x := range s.ids {
			if x == id {
				return true
			}
		}
		return false
	}
	if s.m == nil {
		s.m = make(map[ID]bool, len(s.ids))
		for _, x := range s.ids {
			s.m[x] = true
		}
	}
	return s.m[id]
}

// folder keeps the maintained aggregates exact through one Process: it
// folds the transaction's changes before every alert that reads one and at
// the end of every round, so no read sees an aggregate older than the graph.
type folder struct {
	aggs []*aggregate
	at   txMark // how much of tx.Data() is folded
}

// newFolder returns the folder of a Process, nil when no aggregate is kept
// (the commit then drops any entries left by rules since dropped: nothing
// folds).
func newFolder(idx *dispatchIndex) *folder {
	if len(idx.aggs) == 0 {
		return nil
	}
	return &folder{aggs: idx.aggs}
}

// start folds what Process was handed (data, and anything left in
// tx.Data()) and drops the entries of rules no longer installed.
func (f *folder) start(tx *graph.Tx, data *graph.TxData) error {
	if f == nil {
		return nil
	}
	slots := make([]int, len(f.aggs))
	for i, a := range f.aggs {
		slots[i] = a.slot
	}
	tx.KeepDerived(slots)
	if tx.DerivedBehind() {
		if err := f.fold(tx, since(data, txMark{})); err != nil {
			return err
		}
		if err := f.fold(tx, since(tx.Data(), txMark{})); err != nil {
			return err
		}
	}
	f.at = markOf(tx.Data())
	tx.FoldDerived()
	return nil
}

// catchUp folds the changes made since the last fold.
func (f *folder) catchUp(tx *graph.Tx) error {
	if f == nil || tx.DerivedCurrent() {
		return nil
	}
	d := tx.Data()
	if err := f.fold(tx, since(d, f.at)); err != nil {
		return err
	}
	f.at = markOf(d)
	tx.FoldDerived()
	return nil
}

// rewind follows tx.ResetData: the new record starts unread.
func (f *folder) rewind() {
	if f != nil {
		f.at = txMark{}
	}
}

func (f *folder) drop(tx *graph.Tx, a *aggregate) {
	if tx.DerivedLen(a.slot) > 0 {
		tx.DropDerived(a.slot)
		a.mDrops.Inc()
	}
}

// fold brings every aggregate holding entries up to date with d: it drops
// the entries when d touches the part's footprint other than through new x,
// and otherwise merges each new x's contribution into the keys it reaches.
func (f *folder) fold(tx *graph.Tx, d delta) error {
	nodes := &idSet[graph.NodeID]{ids: d.nodes}
	rels := &idSet[graph.RelID]{ids: d.rels}
	for _, a := range f.aggs {
		if tx.DerivedLen(a.slot) == 0 {
			continue
		}
		if a.touched(tx, &d, nodes, rels) {
			f.drop(tx, a)
			continue
		}
		for _, x := range d.nodes {
			if !hasAll(tx, x, a.part.XLabels) {
				continue
			}
			rows, err := runBound(tx, a.part.ByX, a.part.X, value.Node(int64(x)))
			if err != nil {
				return err
			}
			for _, r := range rows {
				k := r[0].Key()
				if !k.SelfEqual() {
					continue // no read asks for a value that equals nothing
				}
				if e, ok := tx.Derived(a.slot, k); ok {
					tx.SetDerived(a.slot, k, a.part.Merge(e, a.part.Entry(r)))
				}
			}
		}
	}
	return nil
}
