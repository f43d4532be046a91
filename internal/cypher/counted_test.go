package cypher

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// recountSource serves every count by running the part's sub-plan, as a
// miss does, and counts the reads.
type recountSource struct {
	cp    *CountPart
	reads int
}

func (s *recountSource) Count(tx *graph.Tx, g graph.NodeID) (int64, error) {
	s.reads++
	res, err := s.cp.Sub.Execute(tx, &Options{Bindings: map[string]value.Value{s.cp.G: value.Node(int64(g))}})
	if err != nil || len(res.Rows) == 0 {
		return 0, err
	}
	n, _ := res.Rows[0][1].AsInt()
	return n, nil
}

// TestCountedPlanMatchesAsWritten: a counted plan returns what the
// statement as written returns — keys and WHERE after the count, count(*),
// no keys at all, several rows on one g, and a count(DISTINCT) group over
// two g, which runs the part as written (summing the two counts would
// count a shared x twice). A part recognised without knowing that NEW is
// bound, run with NEW bound, runs as written: bound, NEW pins the match.
func TestCountedPlanMatchesAsWritten(t *testing.T) {
	s := graph.NewStore()
	q(t, s, `CREATE (a:R {name: 'north'}), (b:R {name: 'north'}), (c:R {name: 'south'}),
	         (la:L)-[:In]->(a), (lb:L)-[:In]->(b), (lc:L)-[:In]->(c),
	         (:S {v: 1})-[:At]->(la), (:S)-[:At]->(la), (:S)-[:At]->(lb), (:S)-[:At]->(lc),
	         (:P)-[:To]->(a), (:P)-[:To]->(a), (:P)-[:To]->(c)`, nil)
	newS := q(t, s, `MATCH (s:S {v: 1}) RETURN s`, nil).Rows[0][0]
	for _, c := range []struct {
		query    string
		readsMax int // count reads at most: one per g the rows bind
		bind     map[string]value.Value
	}{
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) WHERE s.v IS NULL
		  WITH r.name AS region, count(s) AS n WHERE n > 0 RETURN region, n`, 2, nil},
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r, count(*) AS n`, 2, nil},
		{`MATCH (r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN count(s) AS n`, 3, nil},
		{`MATCH (r:R {name: 'none'}) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN count(s) AS n`, 0, nil},
		{`MATCH (p:P)-[:To]->(r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(DISTINCT s) AS n`, 2, nil},
		{`MATCH (r:R) MATCH (s:S)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(DISTINCT s) AS n`, 3, nil},
		{`MATCH (r:R) MATCH (NEW)-[:At]->(:L)-[:In]->(r) RETURN r.name, count(NEW) AS n`, 0,
			map[string]value.Value{"NEW": newS}},
	} {
		stmt := mustParse(t, c.query)
		cp := FindCountPart(stmt, nil)
		if cp == nil {
			t.Fatalf("%s: no count part recognised", c.query)
		}
		src := &recountSource{cp: cp}
		tx := s.Begin(graph.ReadOnly)
		want, err := stmt.Prepared().Execute(tx, &Options{Bindings: c.bind})
		if err != nil {
			t.Fatal(err)
		}
		got, err := stmt.Prepared().Counted(cp, src).Execute(tx, &Options{Bindings: c.bind})
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\n got %v %v\nwant %v %v", c.query, got.Columns, got.Rows, want.Columns, want.Rows)
		}
		if src.reads > c.readsMax {
			t.Errorf("%s: %d count reads, want at most %d", c.query, src.reads, c.readsMax)
		}
	}
}

// TestFindCountPartRejects: parts that are not a function of the graph and
// g, or whose aggregation is not one count, are left as written. Every query
// is recognised as a rule's alert is, with NEW bound.
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
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN s.v, count(s)`,
		`MATCH (r:R) MATCH (s:S)-[:At]->(r) RETURN r, count(s) ORDER BY r`,
		`MATCH (r:R)-[x:In]->() MATCH (s:S)-[x]->(r) RETURN r, count(s)`,
		`MATCH (s:S)-[:At]->(r:R) RETURN r, count(s)`,
	} {
		if cp := FindCountPart(mustParse(t, query), []string{"NEW"}); cp != nil {
			t.Errorf("%s: recognised a count part of %s per %s", query, cp.X, cp.G)
		}
	}
}
