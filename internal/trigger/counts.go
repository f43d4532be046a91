package trigger

// Maintained alert counts: counting-based incremental view maintenance
// (Gupta, Mumick & Subrahmanian, SIGMOD 1993) of the count parts that
// cypher.FindCountPart recognises in alert queries — "count the x that reach
// g" — so that an alert like the demo pack's R2–R5 reads a count per region
// instead of recounting the region's history on every firing (DESIGN §4).
//
// The counts live in the store snapshot (graph.Tx's derived entries), one
// slot per aggregate: they share its versions, roll back with the
// transaction and are never persisted. An entry is written by a read that
// missed (a recount, with g bound) and kept exact by the fold: before an
// alert reads and at the end of every round, the engine folds the changes
// the transaction made since the last fold. A created x adds its
// contribution (the sub-plan run with x bound) to the entries present; any
// other change inside the part's footprint drops the aggregate's entries,
// and reads recount. Commits that bypass the engine drop every entry.

import (
	"sync/atomic"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/value"
)

// countSlots numbers aggregates process-wide, so that two engines over
// stores that share snapshots never read each other's counts.
var countSlots atomic.Int64

// aggregate is the count part of one rule's alert, with its count per g
// kept under slot. It is the alert plan's cypher.CountSource.
type aggregate struct {
	part                 *cypher.CountPart
	slot                 int
	labels, types, props map[string]bool

	mHit, mRecount, mDrops *metrics.Counter
}

func newAggregate(cp *cypher.CountPart, m EngineMetrics) *aggregate {
	set := func(ss []string) map[string]bool {
		out := make(map[string]bool, len(ss))
		for _, s := range ss {
			out[s] = true
		}
		return out
	}
	return &aggregate{
		part: cp, slot: int(countSlots.Add(1)),
		labels: set(cp.Labels), types: set(cp.RelTypes), props: set(cp.PropKeys),
		mHit: m.CountReads.With("hit"), mRecount: m.CountReads.With("recount"), mDrops: m.CountDrops,
	}
}

// Count returns the count of g: the kept one when tx's entries are up to
// date and hold g, otherwise a recount — kept, when they are up to date.
func (a *aggregate) Count(tx *graph.Tx, g graph.NodeID) (int64, error) {
	fresh := tx.DerivedCurrent()
	if fresh {
		if n, ok := tx.Derived(a.slot, g); ok {
			a.mHit.Inc()
			return n, nil
		}
	}
	a.mRecount.Inc()
	rows, err := a.run(tx, a.part.G, g)
	if err != nil {
		return 0, err
	}
	var n int64
	if len(rows) > 0 {
		n, _ = rows[0][1].AsInt()
	}
	if fresh {
		tx.SetDerived(a.slot, g, n)
	}
	return n, nil
}

// run executes the part's sub-plan with variable v bound to node id; its
// rows are (g, count).
func (a *aggregate) run(tx *graph.Tx, v string, id graph.NodeID) ([][]value.Value, error) {
	res, err := a.part.Sub.Execute(tx, &cypher.Options{
		Bindings: map[string]value.Value{v: value.Node(int64(id))},
	})
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

// folder keeps the maintained counts exact through one Process: it folds
// the transaction's changes before every alert that reads a count and at
// the end of every round, so no read sees a count older than the graph.
type folder struct {
	aggs []*aggregate
	at   txMark // how much of tx.Data() is folded
}

// newFolder returns the folder of a Process, nil when no count is kept (the
// commit then drops any counts left by rules since dropped: nothing folds).
func newFolder(idx *dispatchIndex) *folder {
	if len(idx.aggs) == 0 {
		return nil
	}
	return &folder{aggs: idx.aggs}
}

// start folds what Process was handed (data, and anything left in
// tx.Data()) and drops the counts of rules no longer installed.
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
// and otherwise adds each new x's contribution to the g it reaches.
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
			rows, err := a.run(tx, a.part.X, x)
			if err != nil {
				return err
			}
			for _, r := range rows {
				g, _ := r[0].EntityID()
				d, _ := r[1].AsInt()
				if n, ok := tx.Derived(a.slot, graph.NodeID(g)); ok {
					tx.SetDerived(a.slot, graph.NodeID(g), n+d)
				}
			}
		}
	}
	return nil
}
