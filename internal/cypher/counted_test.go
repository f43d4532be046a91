package cypher

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// recountSource serves every aggregate by running the part's ByKey plan, as
// a miss does, and counts the reads.
type recountSource struct {
	cp    *AggPart
	reads int
}

func (s *recountSource) Aggregate(tx *graph.Tx, _ graph.DerivedKey, g value.Value) (graph.DerivedEntry, error) {
	s.reads++
	res, err := s.cp.ByKey.Execute(tx, &Options{Bindings: map[string]value.Value{s.cp.G: g}})
	if err != nil || len(res.Rows) == 0 {
		return graph.DerivedEntry{}, err
	}
	return s.cp.Entry(res.Rows[0]), nil
}

// aggStore is a small graph for the maintained-plan tests: regions reached
// by samples through labs, and T nodes keyed by k (1, 1.0, 'north', a list)
// that K nodes name.
func aggStore(t *testing.T) *graph.Store {
	s := graph.NewStore()
	q(t, s, `CREATE (a:R {name: 'north'}), (b:R {name: 'north'}), (c:R {name: 'south'}),
	         (la:L)-[:In]->(a), (lb:L)-[:In]->(b), (lc:L)-[:In]->(c),
	         (:S {v: 1})-[:At]->(la), (:S)-[:At]->(la), (:S)-[:At]->(lb), (:S)-[:At]->(lc),
	         (:P)-[:To]->(a), (:P)-[:To]->(a), (:P)-[:To]->(c),
	         (q:Q), (:T {k: 1, v: 3})-[:Of]->(q), (:T {k: 1.0, v: 5})-[:Of]->(q),
	         (:T {k: 'north', v: 2.5})-[:Of]->(q), (:T {k: 'north', v: 'x'})-[:Of]->(q),
	         (:T {k: 'north'})-[:Of]->(q), (:T {k: 2, v: 4}),
	         (:K {k: 1}), (:K {k: 1.0}), (:K {k: 'north'}), (:K {k: 2}), (:K {k: 7})`, nil)
	return s
}

// TestCountedPlanMatchesAsWritten: a maintained plan returns what the
// statement as written returns — keys and WHERE after the count, count(*),
// no keys at all, several rows on one g, and a count(DISTINCT) group over
// two g, which runs the part as written (summing the two counts would
// count a shared x twice); max and min per value key, with INTEGER 1 and
// FLOAT 1.0 one key, a key no value reaches and a key no = can stand for
// (a list, run as written); and two parts in one statement, R4's shape. A
// part recognised without knowing that NEW is bound, run with NEW bound,
// runs as written: bound, NEW pins the match.
func TestCountedPlanMatchesAsWritten(t *testing.T) {
	s := aggStore(t)
	newS := q(t, s, `MATCH (s:S {v: 1}) RETURN s`, nil).Rows[0][0]
	for _, c := range []struct {
		query string
		parts int
		reads int // aggregate reads: one per key the rows bind, none as written
		bind  map[string]value.Value
	}{
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) WHERE s.v IS NULL
		  WITH r.name AS region, count(s) AS n WHERE n > 0 RETURN region, n`, 1, 2, nil},
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r, count(*) AS n`, 1, 2, nil},
		{`MATCH (r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN count(s) AS n`, 1, 3, nil},
		{`MATCH (r:R {name: 'none'}) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN count(s) AS n`, 1, 0, nil},
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(DISTINCT s) AS n`, 1, 2, nil},
		{`MATCH (r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(DISTINCT s) AS n`, 1, 2, nil},
		{`MATCH (r:R) MATCH (NEW)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(NEW) AS n`, 1, 0,
			map[string]value.Value{"NEW": newS}},
		{`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, max(t.v) AS m`, 1, 4, nil},
		{`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, min(t.v) AS m`, 1, 4, nil},
		{`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN max(t.v) AS m, count(*) AS n`, 0, 0, nil},
		{`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN max(t.v) AS m`, 1, 4, nil},
		{`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN count(DISTINCT t) AS n`, 1, 2, nil},
		{`MATCH (c:K) WITH c.k AS key, c AS c MATCH (t:T {k: key})-[:Of]->(:Q) WITH c, count(t) AS n RETURN c, n`, 1, 4, nil},
		{`MATCH (c:K) WITH [c.k] AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, max(t.v) AS m`, 1, 0, nil},
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r)
		  WITH r.name AS key, count(s) AS n
		  MATCH (t:T {k: key})-[:Of]->(q:Q)
		  WITH key, n, max(t.v) AS m WHERE m IS NOT NULL RETURN key, n, m`, 2, 4, nil},
	} {
		stmt := mustParse(t, c.query)
		parts := FindAggParts(stmt, nil)
		if len(parts) != c.parts {
			t.Fatalf("%s: %d aggregate parts recognised, want %d", c.query, len(parts), c.parts)
		}
		var srcs []AggSource
		var counted []*recountSource
		for _, cp := range parts {
			src := &recountSource{cp: cp}
			srcs, counted = append(srcs, src), append(counted, src)
		}
		tx := s.Begin(graph.ReadOnly)
		want, err := stmt.Prepared().Execute(tx, &Options{Bindings: c.bind})
		if err != nil {
			t.Fatal(err)
		}
		got, err := stmt.Prepared().Maintained(parts, srcs).Execute(tx, &Options{Bindings: c.bind})
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\n got %v %v\nwant %v %v", c.query, got.Columns, got.Rows, want.Columns, want.Rows)
		}
		reads := 0
		for _, src := range counted {
			reads += src.reads
		}
		if reads != c.reads {
			t.Errorf("%s: %d aggregate reads, want %d", c.query, reads, c.reads)
		}
	}
}

// TestAggPartByXMergesToByKey: merging the ByX contributions of every x,
// per key, gives what ByKey aggregates for that key — for a node key, and
// for a value key whose ByX returns the key property in the key's place,
// INTEGER 1 and FLOAT 1.0 merging into one key.
func TestAggPartByXMergesToByKey(t *testing.T) {
	s := aggStore(t)
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	for _, query := range []string{
		`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, max(t.v) AS m`,
		`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, min(t.v) AS m`,
		`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, count(t) AS n`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r, count(DISTINCT s) AS n`,
	} {
		parts := FindAggParts(mustParse(t, query), nil)
		if len(parts) != 1 {
			t.Fatalf("%s: %d parts", query, len(parts))
		}
		cp := parts[0]
		merged := map[graph.DerivedKey]graph.DerivedEntry{}
		keys := map[graph.DerivedKey]value.Value{}
		for _, x := range tx.NodesByLabel(cp.XLabels[0]) {
			res, err := cp.ByX.Execute(tx, &Options{Bindings: map[string]value.Value{cp.X: value.Node(int64(x))}})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				k, ok := graph.KeyOf(r[0])
				if !ok {
					continue
				}
				merged[k], keys[k] = cp.Merge(merged[k], cp.Entry(r)), r[0]
			}
		}
		if len(merged) == 0 {
			t.Fatalf("%s: no contribution", query)
		}
		for k, e := range merged {
			res, err := cp.ByKey.Execute(tx, &Options{Bindings: map[string]value.Value{cp.G: keys[k]}})
			if err != nil {
				t.Fatal(err)
			}
			if want := cp.Entry(res.Rows[0]); !reflect.DeepEqual(e, want) {
				t.Errorf("%s: key %v merges to %+v, ByKey gives %+v", query, keys[k], e, want)
			}
		}
	}
}

// TestFindCountPartRejects: parts that are not a function of the graph and
// their key, or whose aggregation is not one count, max or min, are left as
// written. Every query is recognised as a rule's alert is, with NEW bound.
func TestFindCountPartRejects(t *testing.T) {
	for _, query := range []string{
		// reads NEW, as the fraud pack's threshold rules do
		`MATCH (NEW)-[:At]->(r:R) MATCH (t:S {account: NEW.account})-[:At]->(r) RETURN r, count(t)`,
		// NEW first appears inside the part: it counts the one x bound
		`MATCH (r:R) MATCH (NEW)-[:At]->(r) RETURN r, count(NEW)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r), (s)-[:By]->(NEW) RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) WHERE s.v > $min RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) WHERE s.t > timestamp() RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At*1..2]->(r) RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-->(r) RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r), (o:O) RETURN r, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, count(s), max(s.v)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, sum(s.v)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, max(DISTINCT s.v)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, max(s.v + 1)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN s.v, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, count(s) ORDER BY r`,
		`MATCH (r:R)-[x:In]->() MATCH (s:S)-[x]->(r) RETURN r, count(s)`,
		`MATCH (s:S)-[:At]->(r:R) RETURN r, count(s)`,
		// a value key used twice, in a WHERE, on a relationship, on an
		// anonymous node, or beside a node key
		`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(u:T {k: key}) RETURN key, max(t.v)`,
		`MATCH (c:K) WITH c.k AS key MATCH (t:T)-[:Of]->(:Q) WHERE t.k = key RETURN key, max(t.v)`,
		`MATCH (c:K) WITH c.k AS key MATCH (t:T)-[:Of {k: key}]->(:Q) RETURN key, max(t.v)`,
		`MATCH (c:K) WITH c.k AS key MATCH (t:T)-[:Of]->(:Q {k: key}) RETURN key, max(t.v)`,
		`MATCH (c:K) WITH c, c.k AS key MATCH (t:T {k: key})-[:Of]->(c) RETURN key, max(t.v)`,
		// a value a WITH did not project: a transition variable's property,
		// or a binding itself
		`MATCH (c:K) WITH c MATCH (t:T {k: NEW.k})-[:Of]->(c) RETURN c, max(t.v)`,
		`MATCH (c:K) MATCH (t:T {k: NEW})-[:Of]->(:Q) RETURN count(t)`,
		// a clause before the part that is neither MATCH nor WITH
		`UNWIND [1, 2] AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN key, max(t.v)`,
		// a key item reading a variable the WITH dropped
		`MATCH (c:K) WITH c.k AS key MATCH (t:T {k: key})-[:Of]->(:Q) RETURN NEW.k, max(t.v)`,
	} {
		if parts := FindAggParts(mustParse(t, query), []string{"NEW"}); len(parts) != 0 {
			t.Errorf("%s: recognised a part aggregating %s per %s", query, parts[0].X, parts[0].G)
		}
	}
}
