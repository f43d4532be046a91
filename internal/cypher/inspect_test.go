package cypher

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestInspectReadFootprint(t *testing.T) {
	stmt := mustParse(t, `MATCH (s:Sequence)-[:SequencedAt]->(l:Lab)-[:LocatedIn]->(r:Region)
	                     WHERE (s)-[:AssignedTo]->(:Variant) AND s.id STARTS WITH 'x'
	                     RETURN r.name, count(s)`)
	info := Inspect(stmt)
	wantLabels := []string{"Lab", "Region", "Sequence", "Variant"}
	if !reflect.DeepEqual(info.MatchedNodeLabels, wantLabels) {
		t.Errorf("labels = %v", info.MatchedNodeLabels)
	}
	wantRels := []string{"AssignedTo", "LocatedIn", "SequencedAt"}
	if !reflect.DeepEqual(info.MatchedRelTypes, wantRels) {
		t.Errorf("rel types = %v", info.MatchedRelTypes)
	}
	if len(info.CreatedNodeLabels) != 0 || info.Deletes {
		t.Error("read-only query should have no write footprint")
	}
}

func TestInspectWriteFootprint(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  StatementInfo
	}{
		{
			name: "every write clause",
			query: `MATCH (a:A)
			        CREATE (a)-[:Linked]->(b:B)
			        MERGE (c:Counter {id: 1}) ON CREATE SET c.v = 0 ON MATCH SET c:Seen
			        SET a.touched = true, a += {x: 1}
			        REMOVE a.old, a:Stale
			        DETACH DELETE b`,
			// SetProp keys: touched, v, and "*" from the += form.
			want: StatementInfo{
				MatchedNodeLabels: []string{"A", "Counter"},
				CreatedNodeLabels: []string{"B", "Counter"},
				CreatedRelTypes:   []string{"Linked"},
				SetLabels:         []string{"Seen"},
				SetPropKeys:       []string{"*", "touched", "v"},
				RemovedLabels:     []string{"Stale"},
				RemovedPropKeys:   []string{"old"},
				Deletes:           true,
			},
		},
		{
			name:  "writes inside a UNION branch",
			query: "MATCH (a:A) RETURN 1 AS k UNION MATCH (b:B) CREATE (c:C) RETURN 2 AS k",
			want: StatementInfo{
				MatchedNodeLabels: []string{"A", "B"},
				CreatedNodeLabels: []string{"C"},
			},
		},
	}
	for _, c := range cases {
		if info := Inspect(mustParse(t, c.query)); !reflect.DeepEqual(*info, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, *info, c.want)
		}
	}
}

func TestInspectExprPatternPredicate(t *testing.T) {
	e, err := ParseExpr("(NEW)-[:HasEffect]->(:Effect {level: 'critical'}) AND NEW.x IN [1,2]")
	if err != nil {
		t.Fatal(err)
	}
	info := InspectExpr(e)
	if !reflect.DeepEqual(info.MatchedNodeLabels, []string{"Effect"}) {
		t.Errorf("labels = %v", info.MatchedNodeLabels)
	}
	if !reflect.DeepEqual(info.MatchedRelTypes, []string{"HasEffect"}) {
		t.Errorf("rel types = %v", info.MatchedRelTypes)
	}
}

func TestInspectNestedExpressions(t *testing.T) {
	stmt := mustParse(t, `UNWIND [x IN range(1, 3) | x] AS i
	                     RETURN CASE WHEN (n:Deep) THEN 1 ELSE reduce(a = 0, y IN [1] | a + y) END`)
	info := Inspect(stmt)
	if !reflect.DeepEqual(info.MatchedNodeLabels, []string{"Deep"}) {
		t.Errorf("labels through case/pattern = %v", info.MatchedNodeLabels)
	}
	e, err := ParseExpr("all(x IN xs WHERE (x)-[:Rel]->(:Target))")
	if err != nil {
		t.Fatal(err)
	}
	info = InspectExpr(e)
	if !reflect.DeepEqual(info.MatchedNodeLabels, []string{"Target"}) {
		t.Errorf("labels through quantifier = %v", info.MatchedNodeLabels)
	}
}

func TestExplain(t *testing.T) {
	s := testGraph(t)
	if err := s.CreateIndex("Person", "name"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	stmt := mustParse(t, `MATCH (p:Person {name: 'Alice'})-[:KNOWS]->(f)
	                     WHERE f.age > 20
	                     WITH f.name AS name ORDER BY name
	                     RETURN DISTINCT name`)
	out := Explain(tx, stmt)
	for _, want := range []string{
		"MATCH", "via index (Person.name)", "filter: WHERE",
		"WITH", "ORDER BY", "RETURN (DISTINCT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Label scan and full scan paths.
	stmt = mustParse(t, "MATCH (c:Company) RETURN c")
	if out := Explain(tx, stmt); !strings.Contains(out, "label scan :Company, est 1 rows") {
		t.Errorf("label scan:\n%s", out)
	}
	stmt = mustParse(t, "MATCH (n) RETURN n")
	if out := Explain(tx, stmt); !strings.Contains(out, "full scan") {
		t.Errorf("full scan:\n%s", out)
	}
	// Write clauses render too.
	stmt = mustParse(t, `MATCH (a:Person) CREATE (a)-[:X]->(:Y)
	                    MERGE (c:Counter {id: 1}) SET c.v = 1 REMOVE c.old DETACH DELETE c`)
	out = Explain(tx, stmt)
	for _, want := range []string{"CREATE 1 pattern", "MERGE", "SET 1 item", "REMOVE 1 item", "DETACH DELETE"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	stmt = mustParse(t, "UNWIND [1,2] AS x RETURN x")
	if out := Explain(tx, stmt); !strings.Contains(out, "UNWIND") {
		t.Errorf("unwind:\n%s", out)
	}
}
