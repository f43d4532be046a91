package cypher

// Each plan decision is made once, in the compiled variant: pattern order,
// what is bound when each part runs, its anchor, and which function a call
// names. These tests pin that every consumer — the matcher, the count-store
// shortcut, EXPLAIN, the parser — reads the same decision.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// TestSiblingPartsBoundWhenTheyRun: 20 × (:A)-[:R]->(x)-[:S]->(:B {id}). With
// B.id indexed the planner runs the second part first, so x is unbound when
// that part runs and bound by it for the first part — whatever the source
// order. Taking boundness from source order skips the indexed part as
// NULL-bound and returns no rows.
func TestSiblingPartsBoundWhenTheyRun(t *testing.T) {
	s := graph.NewStore()
	if err := s.Update(func(tx *graph.Tx) error {
		for i := 0; i < 20; i++ {
			a, _ := tx.CreateNode([]string{"A"}, map[string]value.Value{"i": value.Int(int64(i))})
			x, _ := tx.CreateNode([]string{"X"}, nil)
			b, _ := tx.CreateNode([]string{"B"}, map[string]value.Value{"id": value.Int(int64(i))})
			if _, err := tx.CreateRel(a, x, "R", nil); err != nil {
				return err
			}
			if _, err := tx.CreateRel(x, b, "S", nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"MATCH (a:A)-[:R]->(x), (x)-[:S]->(b:B {id: 3}) RETURN a.i",
		"MATCH (x)-[:S]->(b:B {id: 3}), (a:A)-[:R]->(x) RETURN a.i",
	}
	check := func(when string) {
		t.Helper()
		for _, query := range queries {
			res := q(t, s, query, nil)
			if len(res.Rows) != 1 || res.Rows[0][0].String() != "3" {
				t.Errorf("%s: %s = %v, want [[3]]", when, query, res.Rows)
			}
		}
	}
	check("no index")
	if err := s.CreateIndex("B", "id"); err != nil {
		t.Fatal(err)
	}
	check("B.id indexed")
}

// TestExplainRendersBoundAnchor: a part with a bound node starts from it, and
// EXPLAIN says so — whether the node is bound by Options.Bindings or by an
// earlier clause.
func TestExplainRendersBoundAnchor(t *testing.T) {
	s := testGraph(t)
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	alice := value.Node(1)
	res, err := Run(tx, "EXPLAIN MATCH (n)-[:KNOWS]->(m:Person) RETURN m",
		&Options{Bindings: map[string]value.Value{"n": alice}})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, r := range res.Rows {
		sv, _ := r[0].AsString()
		out.WriteString(sv + "\n")
	}
	if !strings.Contains(out.String(), "anchor: node 0 via bound variable n") {
		t.Errorf("bound n is not the anchor:\n%s", out.String())
	}
	out2 := Explain(tx, mustParse(t,
		"MATCH (n:Person {name: 'Alice'}) MATCH (n)-[:KNOWS]->(m:Person) RETURN m"))
	if !strings.Contains(out2, "anchor: node 0 via bound variable n") {
		t.Errorf("n bound by the first MATCH is not the second's anchor:\n%s", out2)
	}
	// The rendered plan is the one that runs.
	res, err = Run(tx, "MATCH (n)-[:KNOWS]->(m:Person) RETURN m.name",
		&Options{Bindings: map[string]value.Value{"n": alice}})
	if err != nil {
		t.Fatal(err)
	}
	if joined(res, 0) != `"Bob"` {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestExplainStatementCompilesOnce: an EXPLAIN statement compiles its
// variant once and renders it, rather than planning a second time.
func TestExplainStatementCompilesOnce(t *testing.T) {
	s := testGraph(t)
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	plan, err := Prepare("EXPLAIN MATCH (p:Person)-[:KNOWS]->(f) RETURN f")
	if err != nil {
		t.Fatal(err)
	}
	before := PlansCompiled()
	if _, err := plan.Execute(tx, nil); err != nil {
		t.Fatal(err)
	}
	if d := PlansCompiled() - before; d != 1 {
		t.Errorf("EXPLAIN compiled %d variants, want 1", d)
	}
}

// TestFastCountIgnoresBoundVariable: the count store answers for a label,
// not for one given node.
func TestFastCountIgnoresBoundVariable(t *testing.T) {
	s := testGraph(t)
	res := q(t, s, "MATCH (p:Person) RETURN count(p)",
		&Options{Bindings: map[string]value.Value{"p": value.Node(1)}})
	if res.Rows[0][0].String() != "1" {
		t.Errorf("count of bound p = %v, want 1", res.Rows)
	}
}

// TestFunctionTableErrors: the parser resolves every call against the
// function table, so a bad call is a positioned parse error for statements
// and expressions alike, and never reaches execution.
func TestFunctionTableErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string // first occurrence marks the expected offset
		msg  string
		expr bool // parse with ParseExpr rather than Parse
	}{
		{"MATCH (n:Nope) RETURN nosuch(n)", "nosuch", "unknown function nosuch()", false},
		{"MATCH (n:Nope) RETURN size(n, 1, 2)", "size", "wrong number of arguments to size()", false},
		{"RETURN countNodes('P', 'k')", "countNodes", "wrong number of arguments to countNodes()", false},
		{"UNWIND [1] AS x RETURN sum()", "sum", "wrong number of arguments to sum()", false},
		{"RETURN timestamp(1)", "timestamp", "wrong number of arguments to timestamp()", false},
		{"RETURN coalesce()", "coalesce", "wrong number of arguments to coalesce()", false},
		{"MATCH (n) RETURN sum(*)", "*", "sum() does not take *", false},
		{"RETURN toUpper(DISTINCT 'a')", "DISTINCT", "toUpper() does not take DISTINCT", false},
		{"nosuch(NEW.v) > 1", "nosuch", "unknown function nosuch()", true},
		{"NEW.v > 1 AND abs(NEW.v, 2) > 0", "abs", "wrong number of arguments to abs()", true},
	}
	for _, c := range cases {
		var err error
		if c.expr {
			_, err = PrepareExpr(c.src)
		} else {
			_, err = Prepare(c.src)
		}
		var pe *Error
		if !errors.As(err, &pe) {
			t.Errorf("%q: error %v, want a positioned *Error", c.src, err)
			continue
		}
		if want := strings.Index(c.src, c.frag); pe.Pos != want || pe.Msg != c.msg {
			t.Errorf("%q: %q at %d, want %q at %d", c.src, pe.Msg, pe.Pos, c.msg, want)
		}
	}
	// Every name the table knows parses; case does not matter.
	for _, ok := range []string{"RETURN count(*)", "RETURN COUNT(DISTINCT 1)", "RETURN toUpper('a')",
		"RETURN coalesce(null, 1, 2, 3)", "RETURN countNodes('P'), countNodes('P', 'k', 1)", "RETURN datetime()"} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
}
