package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/value"
)

// The generated test of the copy-on-write invariant (cow.go): whatever a
// builder does — any write operation, a rollback, an index creation or drop
// — nothing that was published before it started may change. The test drives
// seeded random operation sequences over a set of stores forked from one
// another with Store.Clone, pins read-only transactions at random points,
// and after every step compares each pinned reader and each store that was
// not written with the fingerprint it had when it was pinned.

var (
	cowLabels   = []string{"A", "B", "C"} // A.k and B.j get indexed at times, C never
	cowProps    = []string{"k", "j"}
	cowRelTypes = []string{"R", "S"}
	cowValues   = 4 // property values are the integers [0, cowValues)
)

// cowFingerprint renders everything a reader can observe of tx: the Export
// document (records and counters) and, because Export does not read them,
// both adjacency maps of every node and every posting set — label members,
// relationship-type members, and the index answer for every (label,
// property, value) of the test's universe.
func cowFingerprint(t *testing.T, tx *Tx) string {
	t.Helper()
	var b bytes.Buffer
	if err := tx.Export(&b); err != nil {
		t.Fatal(err)
	}
	for _, l := range cowLabels {
		fmt.Fprintf(&b, "label %s %v\n", l, sortedIDs(tx.NodesByLabel(l)))
		for _, p := range cowProps {
			for i := 0; i < cowValues; i++ {
				ids, ok := tx.NodesByProp(l, p, value.Int(int64(i)))
				fmt.Fprintf(&b, "index %s.%s=%d %v %v\n", l, p, i, ok, sortedIDs(ids))
			}
		}
	}
	for _, typ := range cowRelTypes {
		fmt.Fprintf(&b, "type %s %v\n", typ, sortedIDs(tx.RelsByType(typ)))
	}
	for _, id := range sortedIDs(tx.AllNodes()) {
		fmt.Fprintf(&b, "node %d out %v in %v\n", id, cowAdjacent(tx, id, Outgoing), cowAdjacent(tx, id, Incoming))
	}
	return b.String()
}

func cowAdjacent(tx *Tx, id NodeID, dir Direction) []RelID {
	var ids []RelID
	for _, h := range tx.RelsOf(id, dir, nil) {
		ids = append(ids, h.ID)
	}
	return sortedIDs(ids)
}

func sortedIDs[ID ~int64](ids []ID) []ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// cowCheckDerived checks that tx's posting sets and adjacency agree with its
// records — a write that went to a copy nobody installed shows up here.
func cowCheckDerived(t *testing.T, tx *Tx) {
	t.Helper()
	for _, id := range tx.AllNodes() {
		n, _ := tx.Node(id)
		for _, l := range cowLabels {
			if has := contains(tx.NodesByLabel(l), id); has != n.HasLabel(l) {
				t.Fatalf("node %d: label %s on record = %v, in label set = %v", id, l, n.HasLabel(l), has)
			}
			for _, p := range cowProps {
				if !tx.HasIndex(l, p) {
					continue
				}
				for i := 0; i < cowValues; i++ {
					v := value.Int(int64(i))
					ids, _ := tx.NodesByProp(l, p, v)
					cur, hasProp := n.Props[p]
					want := n.HasLabel(l) && hasProp && value.Compare(cur, v) == 0
					if has := contains(ids, id); has != want {
						t.Fatalf("node %d: index %s.%s=%d holds it = %v, want %v", id, l, p, i, has, want)
					}
				}
			}
		}
	}
	for _, id := range tx.AllRels() {
		r, _ := tx.Rel(id)
		if !contains(tx.RelsByType(r.Type), id) {
			t.Fatalf("rel %d missing from type set %s", id, r.Type)
		}
		if !contains(cowAdjacent(tx, r.Start, Outgoing), id) {
			t.Fatalf("rel %d missing from the adjacency of its start node %d", id, r.Start)
		}
		// RelsOf reports a self-loop as outgoing only.
		if r.Start != r.End && !contains(cowAdjacent(tx, r.End, Incoming), id) {
			t.Fatalf("rel %d missing from the adjacency of its end node %d", id, r.End)
		}
	}
}

func contains[ID comparable](ids []ID, id ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// cowPin is something published whose fingerprint must never change: a
// read-only transaction, or (tx == nil) the committed state of a store.
type cowPin struct {
	tx    *Tx
	store *Store
	want  string
}

func cowStoreFingerprint(t *testing.T, s *Store) string {
	t.Helper()
	tx := s.Begin(ReadOnly)
	defer tx.Rollback()
	return cowFingerprint(t, tx)
}

func (p *cowPin) check(t *testing.T, step int, what string) {
	t.Helper()
	got := ""
	if p.tx != nil {
		got = cowFingerprint(t, p.tx)
	} else {
		got = cowStoreFingerprint(t, p.store)
	}
	if got != p.want {
		t.Fatalf("step %d (%s): published state changed\n--- when pinned\n%s--- now\n%s", step, what, p.want, got)
	}
}

// cowRandomWrites applies 1–6 random write operations to tx. Operations on
// entities that do not exist (anymore) fail with a not-found error, which is
// part of the sequence, not of the test.
func cowRandomWrites(r *rand.Rand, tx *Tx) {
	pick := func(ss []string) string { return ss[r.Intn(len(ss))] }
	val := func() value.Value {
		if r.Intn(5) == 0 {
			return value.Null
		}
		return value.Int(int64(r.Intn(cowValues)))
	}
	node := func() NodeID {
		if ids := sortedIDs(tx.AllNodes()); len(ids) > 0 && r.Intn(8) > 0 {
			return ids[r.Intn(len(ids))]
		}
		return NodeID(r.Intn(50)) // mostly absent
	}
	rel := func() RelID {
		if ids := sortedIDs(tx.AllRels()); len(ids) > 0 && r.Intn(8) > 0 {
			return ids[r.Intn(len(ids))]
		}
		return RelID(r.Intn(50))
	}
	for n := 1 + r.Intn(6); n > 0; n-- {
		switch r.Intn(12) {
		case 0, 1, 2:
			var labels []string
			for _, l := range cowLabels {
				if r.Intn(2) == 0 {
					labels = append(labels, l)
				}
			}
			_, _ = tx.CreateNode(labels, map[string]value.Value{pick(cowProps): val()})
		case 3:
			_ = tx.DeleteNode(node(), r.Intn(2) == 0)
		case 4, 5:
			_, _ = tx.CreateRel(node(), node(), pick(cowRelTypes), map[string]value.Value{"w": val()})
		case 6:
			_ = tx.DeleteRel(rel())
		case 7:
			_ = tx.SetLabel(node(), pick(cowLabels))
		case 8:
			_ = tx.RemoveLabel(node(), pick(cowLabels))
		case 9, 10:
			_ = tx.SetNodeProp(node(), pick(cowProps), val())
		case 11:
			_ = tx.SetRelProp(rel(), "w", val())
		}
	}
}

func TestCOWGeneratedIsolation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			// A store's committed state is a pin too; the store a step writes
			// to gets a new fingerprint after it, every other pin a check.
			stores := []*cowPin{{store: NewStore()}}
			stores[0].want = cowStoreFingerprint(t, stores[0].store)
			var readers []*cowPin
			for step := 0; step < 200; step++ {
				if len(readers) > 6 { // keep the per-step check bounded
					readers[0].tx.Rollback()
					readers = readers[1:]
				}
				target := stores[r.Intn(len(stores))]
				s := target.store
				written, what := false, ""
				switch c := r.Intn(20); {
				case c < 11:
					tx := s.Begin(ReadWrite)
					cowRandomWrites(r, tx)
					cowCheckDerived(t, tx)
					if r.Intn(5) == 0 {
						tx.Rollback()
						what = "rollback"
					} else if err := tx.Commit(); err != nil {
						t.Fatal(err)
					} else {
						written, what = true, "commit"
					}
				case c < 13:
					l, p := cowLabels[r.Intn(2)], cowProps[r.Intn(2)]
					written, what = s.CreateIndex(l, p) == nil, "CreateIndex "+l+"."+p
				case c < 14:
					l, p := cowLabels[r.Intn(2)], cowProps[r.Intn(2)]
					written, what = s.DropIndex(l, p) == nil, "DropIndex "+l+"."+p
				case c < 17:
					readers = append(readers, &cowPin{tx: s.Begin(ReadOnly), want: target.want})
					what = "pin reader"
				case len(stores) < 4:
					stores = append(stores, &cowPin{store: s.Clone(), want: target.want})
					what = "fork"
				}
				if written {
					target.want = cowStoreFingerprint(t, s)
					_ = s.View(func(tx *Tx) error { cowCheckDerived(t, tx); return nil })
				}
				for _, p := range append(readers, stores...) {
					p.check(t, step, what)
				}
			}
			if len(readers) == 0 || len(stores) < 2 {
				t.Fatalf("sequence pinned %d readers over %d stores; want some of each", len(readers), len(stores))
			}
		})
	}
}

// TestImportIsOneTransaction checks that Import builds its snapshot the way
// every other writer does: a reader pinned before it stays on the empty
// store, the commit hook sees the whole load as one transaction (which is
// what makes an import into a durable store durable), and no record is
// cloned on the way because the transaction owns every record it installs.
func TestImportIsOneTransaction(t *testing.T) {
	src := NewStore()
	if err := src.Update(func(tx *Tx) error {
		a, _ := tx.CreateNode([]string{"A"}, map[string]value.Value{"k": value.Int(1)})
		b, _ := tx.CreateNode([]string{"B"}, nil)
		_, err := tx.CreateRel(a, b, "R", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := src.Export(&doc); err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	commits, cloned := &metrics.Counter{}, &metrics.Counter{}
	dst.SetMetrics(Metrics{TxCommits: commits, RecordsCloned: cloned})
	var hooked []int
	dst.SetCommitHook(func(tx *Tx) error {
		hooked = append(hooked, len(tx.Data().CreatedNodes), len(tx.Data().CreatedRels))
		return nil
	})
	before := dst.Begin(ReadOnly)
	pin := &cowPin{tx: before, want: cowFingerprint(t, before)}
	if err := dst.Import(&doc); err != nil {
		t.Fatal(err)
	}
	pin.check(t, 0, "import")
	if fmt.Sprint(hooked) != "[2 1]" {
		t.Fatalf("commit hook saw %v (created nodes, rels per call); want one call with [2 1]", hooked)
	}
	if commits.Value() != 1 || cloned.Value() != 0 {
		t.Fatalf("import: %d commits, %d records cloned; want 1 and 0", commits.Value(), cloned.Value())
	}
}

// TestRecordsClonedCountsFirstTouchPerTransaction pins
// rkm_graph_snapshot_cow_records_total (Metrics.RecordsCloned): a committed
// record is cloned once per transaction that touches it, however often, and
// a record the transaction created itself is never cloned.
func TestRecordsClonedCountsFirstTouchPerTransaction(t *testing.T) {
	s := NewStore()
	cloned := &metrics.Counter{}
	s.SetMetrics(Metrics{RecordsCloned: cloned})
	var id NodeID
	if err := s.Update(func(tx *Tx) (err error) {
		id, err = tx.CreateNode([]string{"A"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	touch3 := func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			if err := tx.SetNodeProp(id, "k", value.Int(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}
	for txn := int64(1); txn <= 2; txn++ {
		if err := s.Update(touch3); err != nil {
			t.Fatal(err)
		}
		if got := cloned.Value(); got != txn {
			t.Fatalf("after transaction %d touching one committed node three times: %d records cloned, want %d", txn, got, txn)
		}
	}
	if err := s.Update(func(tx *Tx) error {
		n, err := tx.CreateNode(nil, nil)
		if err != nil {
			return err
		}
		if err := tx.SetNodeProp(n, "k", value.Int(1)); err != nil {
			return err
		}
		return tx.SetLabel(n, "A")
	}); err != nil {
		t.Fatal(err)
	}
	if got := cloned.Value(); got != 2 {
		t.Fatalf("creating and modifying a node in one transaction cloned %d records, want 0", got-2)
	}
}
