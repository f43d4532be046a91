package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
		if !contains(cowAdjacent(tx, r.End, Incoming), id) {
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

// The tests below drive cowMap directly: a differential fuzzer against a
// Go map per version, the trie's collision lists, and three behaviours the
// store relies on.

// cowModel is one version of the fuzzer's two maps — an ID-keyed table and
// string-keyed posting sets, the two shapes a snapshot holds — with the
// plain Go maps they must equal.
type cowModel struct {
	o       *owner
	table   cowMap[NodeID, int]
	sets    cowMap[string, *nodeSet]
	refTab  map[NodeID]int
	refSets map[string]map[NodeID]bool
}

// fork starts a builder on m: headers copied under a fresh token, as
// snapshot.fork does, and the reference maps copied deep.
func (m *cowModel) fork() *cowModel {
	f := &cowModel{o: &owner{}, table: m.table, sets: m.sets,
		refTab: maps.Clone(m.refTab), refSets: make(map[string]map[NodeID]bool)}
	for k, s := range m.refSets {
		f.refSets[k] = maps.Clone(s)
	}
	return f
}

// check compares every read of m with its reference maps.
func (m *cowModel) check(t *testing.T, what string, probe NodeID) {
	t.Helper()
	if m.table.len() != len(m.refTab) {
		t.Fatalf("%s: table len %d, want %d", what, m.table.len(), len(m.refTab))
	}
	keys := m.table.keys()
	if !slices.IsSorted(keys) || len(keys) != len(m.refTab) {
		t.Fatalf("%s: table keys %v, want the %d reference keys in ID order", what, keys, len(m.refTab))
	}
	for _, k := range keys {
		if v, ok := m.table.get(k); !ok || v != m.refTab[k] {
			t.Fatalf("%s: table[%d] = %d, %v; want %d", what, k, v, ok, m.refTab[k])
		}
	}
	if v, ok := m.table.get(probe); ok != (m.refTab[probe] != 0) || v != m.refTab[probe] {
		t.Fatalf("%s: probe table[%d] = %d, %v; want %d", what, probe, v, ok, m.refTab[probe])
	}
	if m.sets.len() != len(m.refSets) {
		t.Fatalf("%s: %d posting sets, want %d", what, m.sets.len(), len(m.refSets))
	}
	for _, l := range m.sets.keys() {
		set, want := m.sets.at(l), m.refSets[l]
		got := set.keys()
		if len(got) != len(want) || set.len() != len(want) {
			t.Fatalf("%s: set %s has %d keys (len %d), want %d", what, l, len(got), set.len(), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("%s: set %s holds %d, reference does not", what, l, id)
			}
		}
		if _, ok := set.get(probe); ok != want[probe] {
			t.Fatalf("%s: probe %d in set %s = %v, want %v", what, probe, l, ok, want[probe])
		}
	}
}

// cowKey spreads a key over the trie's depths: digit d of the ID holds a,
// so a few bytes reach every level, root raises and long splits. IDs are
// never negative.
func cowKey(a, d byte) NodeID { return NodeID(uint64(a) << (5 * uint64(d%13)) &^ (1 << 63)) }

// runCOWOps decodes ops — three bytes each: operation, key byte, depth —
// and applies them to a builder, checking after each step that the builder
// reads its own writes and that every published version reads as it did
// when published.
func runCOWOps(t *testing.T, ops []byte) {
	b := (&cowModel{refTab: map[NodeID]int{}, refSets: map[string]map[NodeID]bool{}}).fork()
	var published []*cowModel
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, d := ops[i]%8, ops[i+1], ops[i+2]
		k, label := cowKey(a, d), fmt.Sprint("L", a%4)
		switch op {
		case 0, 1:
			v := int(d) + 1 // 0 is the reference's absent
			b.table.set(b.o, k, v)
			b.refTab[k] = v
		case 2:
			b.table.del(b.o, k)
			delete(b.refTab, k)
		case 3:
			post(&b.sets, b.o, label, k)
			if b.refSets[label] == nil {
				b.refSets[label] = map[NodeID]bool{}
			}
			b.refSets[label][k] = true
		case 4:
			unpost(&b.sets, b.o, label, k)
			if delete(b.refSets[label], k); len(b.refSets[label]) == 0 {
				delete(b.refSets, label)
			}
		case 5:
			if set, ok := edit(&b.sets, b.o, label); ok && set.ownerOf() != b.o {
				t.Fatalf("op %d: edit returned a set the builder does not own", i/3)
			}
		case 6:
			// Publish: the builder's token dies with it; the next builder
			// forks the version just published.
			published = append(published, b)
			b = b.fork()
		case 7:
			// Roll back to an earlier version: fork it, drop the builder.
			if len(published) > 0 {
				b = published[int(a)%len(published)].fork()
			}
		}
		b.check(t, fmt.Sprintf("op %d, builder", i/3), k)
		for j, p := range published {
			p.check(t, fmt.Sprintf("op %d, version %d", i/3, j), k)
		}
	}
}

// FuzzCOWMap checks cowMap against a Go map per version over decoded
// set/del/post/unpost/edit/publish/fork sequences.
func FuzzCOWMap(f *testing.F) {
	for _, seed := range [][]byte{
		// set, publish, overwrite (d = 13 is digit 0 again, value 14)
		{0, 1, 0, 6, 0, 0, 0, 1, 13},
		// two keys in one node, publish, delete one
		{0, 1, 0, 0, 2, 0, 6, 0, 0, 2, 1, 0},
		// posting sets: post, publish, post more and unpost to empty
		{3, 1, 0, 3, 5, 0, 6, 0, 0, 3, 9, 0, 4, 1, 0, 4, 5, 0, 4, 9, 0},
		// keys at every depth: splits and root raises, publish, deletes
		// folding them back
		{0, 1, 0, 0, 1, 12, 0, 1, 6, 0, 33, 6, 6, 0, 0,
			2, 1, 12, 2, 1, 0, 0, 33, 19, 2, 33, 6, 0, 1, 6},
		// edit after publish, fork back to the first version, write again
		{3, 2, 2, 6, 0, 0, 5, 2, 0, 3, 2, 3, 6, 0, 0, 7, 0, 0, 0, 2, 2, 3, 6, 1},
		// one full node, publish, then overwrites and a sweep of deletes
		{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 31, 0, 0, 30, 0, 6, 0, 0,
			0, 2, 13, 2, 1, 0, 2, 3, 0, 2, 4, 0, 2, 31, 0, 2, 30, 0, 0, 1, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		runCOWOps(t, ops)
	})
}

// TestCOWMapCollisionList drives the trie below its last hash digit, where
// a node is a list of keys with equal hashes. Two index keys whose label
// and property differ only in where the separator falls hash alike; more
// keys are put there by calling the internal functions with that hash.
func TestCOWMapCollisionList(t *testing.T) {
	a, b := indexKey{"x\x00", "y"}, indexKey{"x", "\x00y"}
	h := hashOf(a)
	if hashOf(b) != h {
		t.Fatalf("%q and %q hash differently; the test needs a real collision", a, b)
	}
	o := &owner{}
	var c cowMap[indexKey, int]
	c.set(o, a, 1)
	c.set(o, b, 2)
	forced := []indexKey{{"p", "q"}, {"r", "s"}, {"t", "u"}}
	for i, k := range forced {
		if !c.insert(o, h, k, 10+i) {
			t.Fatalf("insert %q: reported as present", k)
		}
	}
	if c.insert(o, h, forced[0], 99) {
		t.Fatalf("overwrite %q: reported as new", forced[0])
	}
	if c.len() != 5 || len(c.keys()) != 5 {
		t.Fatalf("len %d, %d keys; want 5", c.len(), len(c.keys()))
	}
	published := c
	next := &owner{}
	for _, k := range forced {
		if !c.remove(next, h, k) {
			t.Fatalf("remove %q: not found", k)
		}
		if c.remove(next, h, k) {
			t.Fatalf("remove %q twice: found again", k)
		}
	}
	// Back to the two real keys, and then one: the list folds into a leaf.
	if v, ok := c.get(b); !ok || v != 2 || c.len() != 2 {
		t.Fatalf("after removing the forced keys: get(b) = %d, %v; len %d", v, ok, c.len())
	}
	c.del(next, b)
	if v, ok := c.get(a); !ok || v != 1 || c.len() != 1 || len(c.keys()) != 1 {
		t.Fatalf("after removing b: get(a) = %d, %v; len %d", v, ok, c.len())
	}
	// The version before the removals still holds all five.
	for i, k := range forced {
		want := 10 + i
		if i == 0 {
			want = 99
		}
		if v, ok := published.lookup(h, k); !ok || v != want {
			t.Fatalf("published %q = %d, %v; want %d", k, v, ok, want)
		}
	}
	if v, ok := published.get(b); !ok || v != 2 || published.len() != 5 {
		t.Fatalf("published get(b) = %d, %v; len %d", v, ok, published.len())
	}
}

// TestCOWMapDeleteAbsentDirties pins that deleting a key that is not there
// still counts as a write: the builder publishes, as with the flat map the
// trie replaced.
func TestCOWMapDeleteAbsentDirties(t *testing.T) {
	o := &owner{}
	var c cowMap[NodeID, int]
	c.set(&owner{}, 1, 1)
	c.del(o, 2)
	if !o.dirty || c.len() != 1 {
		t.Fatalf("del of an absent key: dirty = %v, len %d; want true and 1", o.dirty, c.len())
	}
	s := NewStore()
	sn := s.snap.Load().fork(&Metrics{})
	sn.nodes.del(sn.by, 7)
	published := s.snap.Load()
	s.publish(sn)
	if s.snap.Load() == published {
		t.Fatal("a builder whose only write deleted an absent key did not publish")
	}
}

var cowCloneSink *cowMap[NodeID, struct{}]

// TestCOWMapCloneIsConstant pins that clone shares the trie: cloning a map
// of 10 entries and one of 10⁴ allocate the same bytes.
func TestCOWMapCloneIsConstant(t *testing.T) {
	perClone := func(n int) uint64 {
		o := &owner{}
		var c cowMap[NodeID, struct{}]
		for i := 0; i < n; i++ {
			c.set(o, NodeID(i), struct{}{})
		}
		// The least of three rounds, so an allocation elsewhere in the
		// process during one round does not count.
		least := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			next := &owner{}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < 1000; i++ {
				cowCloneSink = c.clone(next)
			}
			runtime.ReadMemStats(&ms1)
			least = min(least, (ms1.TotalAlloc-ms0.TotalAlloc)/1000)
		}
		return least
	}
	if small, large := perClone(10), perClone(10_000); small != large {
		t.Fatalf("a clone allocates %d bytes at 10 entries, %d at 10⁴", small, large)
	}
}

// TestCOWMapLenAcrossForks pins that len, which the count store
// (CountByProp) and NodeCount read, stays exact through overwrites,
// deletes of present and absent keys and forks written on both sides.
func TestCOWMapLenAcrossForks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type version struct {
		c   cowMap[NodeID, int]
		ref map[NodeID]int
	}
	vs := []*version{{ref: map[NodeID]int{}}}
	for step := 0; step < 2000; step++ {
		src := vs[r.Intn(len(vs))]
		v := &version{c: src.c, ref: maps.Clone(src.ref)}
		o := &owner{}
		for n := r.Intn(20); n > 0; n-- {
			k := NodeID(r.Intn(300)) << (5 * r.Intn(3))
			if r.Intn(3) == 0 {
				v.c.del(o, k)
				delete(v.ref, k)
			} else {
				v.c.set(o, k, step)
				v.ref[k] = step
			}
		}
		vs = append(vs, v)
		for i, w := range vs {
			if w.c.len() != len(w.ref) {
				t.Fatalf("step %d, version %d: len %d, want %d", step, i, w.c.len(), len(w.ref))
			}
		}
		if len(vs) > 16 {
			vs = vs[1:]
		}
	}
}
