package trigger

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/value"
)

// countWorld is a small region graph under three rules whose alerts count
// per region — the demo pack's R2 (a WHERE on x), R3 (two MATCH clauses,
// count(DISTINCT)) and R5 (RETURN) — R4's shape, which compares R5's count
// with the max of R5's alerts in the previous Summary under a value key,
// a rule whose action creates an x mid-round and one that fails, rolling
// its cascade back. Alerts attach to the Current Summary. A twin store
// takes every write under the same rules with their alerts run as written.
type countWorld struct {
	t    *testing.T
	s    *graph.Store
	e    *Engine
	twin *graph.Store
	te   *Engine
	rng  *rand.Rand
	n    int
	aggs []*aggregate
	// entries counts the maintained entries the checks compared, valued
	// those among them under a value key.
	entries, valued int
}

// regionCodes are the Region nodes' code and key properties, and the values
// the checks try as value keys: r1 and r2 key by a number of the other kind
// than their code.
var regionCodes = [3][2]value.Value{
	{value.Str("r0"), value.Str("r0")},
	{value.Int(1), value.Float(1)},
	{value.Float(2), value.Int(2)},
}

var valueKeys = []value.Value{
	value.Str("r0"), value.Int(1), value.Float(1), value.Int(2), value.Float(2), value.Str("r9"),
}

var countRules = []Rule{{
	// Installed first, so its action runs before the counting rules read
	// in the same round.
	Name:   "spawn",
	Event:  Event{Kind: CreateNode, Label: "Sequence"},
	Guard:  "NEW.spawn = true",
	Action: "MATCH (NEW)-[:SequencedAt]->(l:Lab) CREATE (:Sequence {id: NEW.id + '-child'})-[:SequencedAt]->(l)",
}, {
	Name:  "unassigned",
	Event: Event{Kind: CreateNode, Label: "Sequence"},
	Alert: `MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
	        MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
	        WHERE u.variant IS NULL
	        WITH r.name AS region, count(u) AS n
	        RETURN region, n`,
}, {
	Name:  "critical",
	Event: Event{Kind: CreateNode, Label: "Sequence"},
	Alert: `MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
	        MATCH (s:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
	        MATCH (s)-[:AssignedTo]->(:Variant)-[:Contains]->(:Mutation)-[:HasEffect]->(:Effect {level: 'critical'})
	        WITH r.name AS region, count(DISTINCT s) AS n
	        RETURN region, n`,
}, {
	Name:  "icu",
	Event: Event{Kind: CreateNode, Label: "IcuPatient"},
	Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
	        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
	        RETURN r.name AS region, r.code AS code, count(i) AS n`,
}, {
	// R4's shape: the count part per region, then the max of the icu
	// alerts' n in the previous Summary keyed by the region's key, which
	// is the icu alerts' code under = (r1's key 1.0 against code 1).
	Name:  "growth",
	Event: Event{Kind: CreateNode, Label: "IcuPatient"},
	Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
	        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
	        WITH r.key AS Region, count(i) AS today
	        MATCH (a:Alert {rule: 'icu', code: Region})<-[:has]-(s:Summary)-[:next]->(:Current)
	        WITH Region, today, max(a.n) AS y
	        RETURN Region AS region, today AS n, y`,
}, {
	// A Lab still has relationships: the plain DELETE fails and the whole
	// cascade rolls back, after the counting rules have read.
	Name:   "boom",
	Event:  Event{Kind: CreateNode, Label: "Boom"},
	Action: "MATCH (l:Lab) DELETE l",
}}

func newCountWorld(t *testing.T, seed int64) *countWorld {
	w := &countWorld{t: t, s: graph.NewStore(), e: NewEngine(), twin: graph.NewStore(), te: NewEngine(),
		rng: rand.New(rand.NewSource(seed))}
	w.e.Clock = func() time.Time { return fixedNow }
	w.te.Clock = w.e.Clock
	mgr := summary.New(24 * time.Hour)
	attach := func(tx *graph.Tx, id graph.NodeID) error { return mgr.AttachAlert(tx, id, fixedNow) }
	w.e.OnAlert, w.te.OnAlert = attach, attach
	for _, r := range countRules {
		if err := w.e.Install(r); err != nil {
			t.Fatal(err)
		}
		cr, _ := w.e.lookup(r.Name)
		w.aggs = append(w.aggs, cr.aggs...)
		if err := w.te.Install(r); err != nil {
			t.Fatal(err)
		}
		if cr, _ := w.te.lookup(r.Name); cr.aggs != nil {
			cr.aggs, cr.alert = nil, cr.alert.Statement().Prepared()
		}
	}
	w.te.index = buildDispatch(w.te.rules)
	if len(w.aggs) != 5 {
		t.Fatalf("%d aggregates kept, want 5", len(w.aggs))
	}
	w.write(`CREATE (e1:Effect {level: 'critical'}), (e2:Effect {level: 'moderate'}),
	        (:Variant {name: 'v0'})-[:Contains]->(:Mutation)-[:HasEffect]->(e1),
	        (:Variant {name: 'v1'})-[:Contains]->(:Mutation)-[:HasEffect]->(e2)`, nil)
	for r := 0; r < 3; r++ {
		w.write(`CREATE (r:Region {name: $r, code: $code, key: $key}),
		        (:Lab {name: $r + '-a'})-[:LocatedIn]->(r), (:Lab {name: $r + '-b'})-[:LocatedIn]->(r),
		        (:Hospital {name: $r + '-h'})-[:LocatedIn]->(r)`,
			map[string]value.Value{"r": value.Str(fmt.Sprintf("r%d", r)),
				"code": regionCodes[r][0], "key": regionCodes[r][1]})
	}
	w.write(`CREATE (:Summary:Current {date: 0})`, nil)
	return w
}

// write runs a statement and the engine over it on both stores, checks the
// counts inside the transaction before committing, and checks them again
// after.
func (w *countWorld) write(q string, params map[string]value.Value) error {
	w.t.Helper()
	twinErr := w.writeTwin(q, params)
	err := w.writeKept(q, params)
	if (err == nil) != (twinErr == nil) {
		w.t.Fatalf("%q: %v with counts kept, %v as written", q, err, twinErr)
	}
	return err
}

func (w *countWorld) writeTwin(q string, params map[string]value.Value) error {
	tx := w.twin.Begin(graph.ReadWrite)
	if _, err := cypher.Run(tx, q, &cypher.Options{Params: params}); err != nil {
		tx.Rollback()
		return err
	}
	data := tx.ResetData()
	data.Compact()
	if _, err := w.te.Process(tx, data); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

func (w *countWorld) writeKept(q string, params map[string]value.Value) error {
	w.t.Helper()
	tx := w.s.Begin(graph.ReadWrite)
	if _, err := cypher.Run(tx, q, &cypher.Options{Params: params}); err != nil {
		tx.Rollback()
		return err
	}
	data := tx.ResetData()
	data.Compact()
	if _, err := w.e.Process(tx, data); err != nil {
		tx.Rollback()
		w.check(q)
		return err
	}
	w.checkTx(tx, q+" (before commit)")
	if err := tx.Commit(); err != nil {
		return err
	}
	w.check(q)
	return nil
}

func (w *countWorld) check(step string) {
	w.t.Helper()
	tx := w.s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	w.checkTx(tx, step)
}

// checkTx compares every maintained entry visible to tx with a recount on
// tx: the entries of every node, for a node key, and of every value the
// stream keys by, for a value key.
func (w *countWorld) checkTx(tx *graph.Tx, step string) {
	w.t.Helper()
	for _, a := range w.aggs {
		keys := valueKeys
		if a.part.KeyNode == "" {
			keys = nil
			for _, id := range tx.AllNodes() {
				keys = append(keys, value.Node(int64(id)))
			}
		}
		for _, g := range keys {
			k, _ := graph.KeyOf(g)
			kept, ok := tx.Derived(a.slot, k)
			if !ok {
				continue
			}
			w.entries++
			if a.part.KeyNode != "" {
				w.valued++
			}
			rows, err := runBound(tx, a.part.ByKey, a.part.G, g)
			if err != nil {
				w.t.Fatal(err)
			}
			var want graph.DerivedEntry
			if len(rows) > 0 {
				want = a.part.Entry(rows[0])
			}
			if !reflect.DeepEqual(kept, want) {
				w.t.Fatalf("after %q: %s keeps %+v for %v, a recount gives %+v", step, a.part.ByKey.Query(), kept, g, want)
			}
		}
	}
}

// pick returns a random node carrying label, or false when there is none.
func (w *countWorld) pick(label string) (value.Value, bool) {
	tx := w.s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	ids := tx.NodesByLabel(label)
	if len(ids) == 0 {
		return value.Null, false
	}
	return value.Int(int64(ids[w.rng.Intn(len(ids))])), true
}

func (w *countWorld) lab() value.Value {
	return value.Str(fmt.Sprintf("r%d-%c", w.rng.Intn(3), "ab"[w.rng.Intn(2)]))
}

// step performs one random operation of the stream.
func (w *countWorld) step() {
	w.n++
	id := value.Str(fmt.Sprintf("s%d", w.n))
	p := func(kv ...any) map[string]value.Value {
		m := map[string]value.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(value.Value)
		}
		return m
	}
	switch op := w.rng.Intn(24); op {
	case 0, 1, 2: // an unassigned sequence
		w.write(`MATCH (l:Lab {name: $lab}) CREATE (:Sequence {id: $id})-[:SequencedAt]->(l)`,
			p("lab", w.lab(), "id", id))
	case 3, 4: // an assigned one, on a critical or a moderate variant
		w.write(`MATCH (l:Lab {name: $lab}), (v:Variant {name: $v})
		        CREATE (s:Sequence {id: $id, variant: $v})-[:SequencedAt]->(l), (s)-[:AssignedTo]->(v)`,
			p("lab", w.lab(), "id", id, "v", value.Str(fmt.Sprintf("v%d", w.rng.Intn(2)))))
	case 5, 6: // an ICU admission
		w.write(`MATCH (h:Hospital {name: $h}) CREATE (:IcuPatient {id: $id})-[:TreatedAt]->(h)`,
			p("h", value.Str(fmt.Sprintf("r%d-h", w.rng.Intn(3))), "id", id))
	case 7: // a delete
		label := []string{"Sequence", "IcuPatient"}[w.rng.Intn(2)]
		if n, ok := w.pick(label); ok {
			w.write(`MATCH (x) WHERE id(x) = $n DETACH DELETE x`, p("n", n))
		}
	case 8: // a predicate flip
		if n, ok := w.pick("Sequence"); ok {
			q := `MATCH (x) WHERE id(x) = $n SET x.variant = 'v9'`
			if w.rng.Intn(2) == 0 {
				q = `MATCH (x) WHERE id(x) = $n REMOVE x.variant`
			}
			w.write(q, p("n", n))
		}
	case 9: // a label removed, or given back
		if n, ok := w.pick("Sequence"); ok && w.rng.Intn(2) == 0 {
			w.write(`MATCH (x) WHERE id(x) = $n REMOVE x:Sequence SET x:Retired`, p("n", n))
		} else if n, ok := w.pick("Retired"); ok {
			w.write(`MATCH (x) WHERE id(x) = $n REMOVE x:Retired SET x:Sequence`, p("n", n))
		}
	case 10: // an intermediate node deleted, and replaced
		lab := w.lab()
		if w.rng.Intn(2) == 0 {
			w.write(`MATCH (l:Lab {name: $lab}) DETACH DELETE l`, p("lab", lab))
		} else {
			w.write(`MATCH (h:Hospital) WITH h LIMIT 1 DETACH DELETE h`, nil)
		}
		w.write(`MATCH (r:Region {name: $r}) CREATE (:Lab {name: $lab})-[:LocatedIn]->(r),
		        (:Hospital {name: $r + '-h'})-[:LocatedIn]->(r)`,
			p("r", value.Str(fmt.Sprintf("r%d", w.rng.Intn(3))), "lab", lab))
	case 11: // a deeper hop re-linked: one more region, or a move
		if n, ok := w.pick("Lab"); ok {
			q := `MATCH (l), (r:Region {name: $r}) WHERE id(l) = $n CREATE (l)-[:LocatedIn]->(r)`
			if w.rng.Intn(2) == 0 {
				q = `MATCH (l)-[old:LocatedIn]->(), (r:Region {name: $r}) WHERE id(l) = $n
				     DELETE old CREATE (l)-[:LocatedIn]->(r)`
			}
			w.write(q, p("n", n, "r", value.Str(fmt.Sprintf("r%d", w.rng.Intn(3)))))
		}
	case 12: // an effect's level flipped
		if n, ok := w.pick("Effect"); ok {
			w.write(`MATCH (e) WHERE id(e) = $n SET e.level = CASE e.level WHEN 'critical' THEN 'moderate' ELSE 'critical' END`,
				p("n", n))
		}
	case 13: // an action creating an x mid-round
		w.write(`MATCH (l:Lab {name: $lab}) CREATE (:Sequence {id: $id, spawn: true})-[:SequencedAt]->(l)`,
			p("lab", w.lab(), "id", id))
	case 14: // a cascade that reads, then fails and rolls back
		if err := w.write(`MATCH (l:Lab {name: $lab}) CREATE (:Sequence {id: $id})-[:SequencedAt]->(l), (:Boom)`,
			p("lab", w.lab(), "id", id)); err == nil {
			w.t.Fatal("the failing cascade committed")
		}
	case 16, 17: // a rollover: Current moves to a new Summary
		w.write(`MATCH (c:Summary:Current) REMOVE c:Current CREATE (c)-[:next]->(:Summary:Current {date: $n})`,
			p("n", value.Int(int64(w.n))))
	case 18: // an alert of the previous period deleted
		if n, ok := w.previousAlert(); ok {
			w.write(`MATCH (a) WHERE id(a) = $n DETACH DELETE a`, p("n", n))
		}
	case 19: // an old alert's n set or removed
		if n, ok := w.previousAlert(); ok {
			q := `MATCH (a) WHERE id(a) = $n SET a.n = $v`
			if w.rng.Intn(3) == 0 {
				q = `MATCH (a) WHERE id(a) = $n REMOVE a.n`
			}
			w.write(q, p("n", n, "v", w.icuValue()))
		}
	case 20: // Current removed, or given back to the newest Summary
		if w.rng.Intn(2) == 0 {
			w.write(`MATCH (c:Current) REMOVE c:Current`, nil)
		} else {
			w.write(`MATCH (s:Summary) WITH s ORDER BY id(s) DESC LIMIT 1 SET s:Current`, nil)
		}
	case 21, 22: // an alert created in the previous period, of icu or another
		// rule, coded by a region's code, its key or neither
		rule := []string{"icu", "icu", "other"}[w.rng.Intn(3)]
		code := valueKeys[w.rng.Intn(len(valueKeys))]
		w.write(`MATCH (s:Summary)-[:next]->(:Current)
		        CREATE (s)-[:has]->(:Alert {rule: $rule, code: $code, n: $v})`,
			p("rule", value.Str(rule), "code", code, "v", w.icuValue()))
	default: // a commit that bypasses the engine
		lab := w.lab()
		for _, s := range []*graph.Store{w.s, w.twin} {
			if err := s.Update(func(tx *graph.Tx) error {
				_, err := cypher.Run(tx, `MATCH (l:Lab {name: $lab}) CREATE (:Sequence {id: $id})-[:SequencedAt]->(l)`,
					&cypher.Options{Params: p("lab", lab, "id", id)})
				return err
			}); err != nil {
				w.t.Fatal(err)
			}
		}
		w.check("Store.Update")
	}
}

// previousAlert returns a random alert of the previous period, or false
// when there is none.
func (w *countWorld) previousAlert() (value.Value, bool) {
	tx := w.s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	res, err := cypher.Run(tx, `MATCH (a:Alert)<-[:has]-(:Summary)-[:next]->(:Current) RETURN id(a) ORDER BY id(a)`, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return value.Null, false
	}
	return res.Rows[w.rng.Intn(len(res.Rows))][0], true
}

// icuValue returns an n for an alert: an integer, or a number with a
// fraction, so that no two equal values differ in kind.
func (w *countWorld) icuValue() value.Value {
	if w.rng.Intn(4) == 0 {
		return value.Float(float64(w.rng.Intn(20)) + 0.5)
	}
	return value.Int(int64(w.rng.Intn(20)))
}

// alerts lists a store's alert payloads in creation order.
func alerts(t *testing.T, s *graph.Store) [][]value.Value {
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	res, err := cypher.Run(tx, "MATCH (a:Alert) RETURN id(a), a.rule, a.region, a.code, a.n, a.y ORDER BY id(a)", nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestMaintainedCountsGenerated: over seeded random streams of creates,
// deletes, detach-deleted and re-linked intermediate nodes, label removals,
// predicate flips, an action creating an x mid-round, a cascade rolled back
// after its reads, commits that bypass the engine, and R4's: rollovers,
// deleted and re-valued alerts of the previous period, Current removed and
// given back, and alerts of other rules and codes created in it, some keyed
// by a number of the other kind, every aggregate the engine keeps equals a
// recount by the part's ByKey plan on the same transaction, inside it
// before commit and after, and the alerts equal those of the same rules run
// as written.
func TestMaintainedCountsGenerated(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := newCountWorld(t, seed)
		for i := 0; i < 300; i++ {
			w.step()
		}
		if w.entries < 500 || w.valued < 50 {
			t.Fatalf("seed %d: the checks compared %d maintained entries, %d under a value key; the stream keeps too few",
				seed, w.entries, w.valued)
		}
		kept, asWritten := alerts(t, w.s), alerts(t, w.twin)
		if len(kept) < 100 || !reflect.DeepEqual(kept, asWritten) {
			t.Fatalf("seed %d: %d alerts with counts kept, %d as written, or they differ", seed, len(kept), len(asWritten))
		}
	}
}

// TestDroppedRuleCountsGo: a dropped rule's counts leave the store with the
// next transaction the engine processes, whether other rules still keep
// counts or none does.
func TestDroppedRuleCountsGo(t *testing.T) {
	w := newCountWorld(t, 1)
	for i := 0; i < 3; i++ {
		w.write(`MATCH (h:Hospital {name: 'r0-h'}) CREATE (:IcuPatient)-[:TreatedAt]->(h)`, nil)
		w.write(`MATCH (l:Lab {name: 'r0-a'}) CREATE (:Sequence)-[:SequencedAt]->(l)`, nil)
	}
	held := func(name string) int {
		cr, err := w.e.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tx := w.s.Begin(graph.ReadOnly)
		defer tx.Rollback()
		return tx.DerivedLen(cr.aggs[0].slot)
	}
	icu, unassigned := w.aggs[2], w.aggs[0]
	if held("icu") == 0 || held("unassigned") == 0 {
		t.Fatal("the stream left no counts to drop")
	}
	if err := w.e.Drop("icu"); err != nil {
		t.Fatal(err)
	}
	w.writeKept(`CREATE (:Unrelated)`, nil)
	tx := w.s.Begin(graph.ReadOnly)
	if tx.DerivedLen(icu.slot) != 0 || tx.DerivedLen(unassigned.slot) == 0 {
		t.Errorf("after dropping icu: %d icu entries, %d unassigned ones; want none and some",
			tx.DerivedLen(icu.slot), tx.DerivedLen(unassigned.slot))
	}
	tx.Rollback()
	for _, name := range []string{"unassigned", "critical"} {
		if err := w.e.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	w.writeKept(`CREATE (:Unrelated)`, nil)
	tx = w.s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	if n := tx.DerivedLen(unassigned.slot); n != 0 {
		t.Errorf("no rule keeps counts, yet %d entries stay", n)
	}
}

// TestTransitionVariableInCountPartNotMaintained: an alert that first names
// NEW inside what would be a count part counts the one sequence NEW binds,
// not every sequence of the region, so no count is kept for it.
func TestTransitionVariableInCountPartNotMaintained(t *testing.T) {
	s, e := graph.NewStore(), newTestEngine()
	if err := e.Install(Rule{
		Name:  "own",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Alert: `MATCH (r:Region) MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
		        RETURN r.name AS region, count(NEW) AS n`,
	}); err != nil {
		t.Fatal(err)
	}
	if cr, _ := e.lookup("own"); cr.aggs != nil {
		t.Fatalf("a count of %s per %s is maintained", cr.aggs[0].part.X, cr.aggs[0].part.G)
	}
	run(t, s, e, `CREATE (l:Lab)-[:LocatedIn]->(:Region {name: 'r0'})`)
	for i := 0; i < 3; i++ {
		run(t, s, e, `MATCH (l:Lab) CREATE (:Sequence)-[:SequencedAt]->(l)`)
	}
	if n := count(t, s, `MATCH (a:Alert {rule: 'own', n: 1}) RETURN count(a)`); n != 3 {
		t.Errorf("%d alerts count their own sequence, want 3", n)
	}
}
