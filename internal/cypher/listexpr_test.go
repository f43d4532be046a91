package cypher

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestQuantifiers(t *testing.T) {
	s := graph.NewStore()
	cases := []struct {
		expr string
		want string
	}{
		{"all(x IN [1,2,3] WHERE x > 0)", "true"},
		{"all(x IN [1,2,3] WHERE x > 1)", "false"},
		{"all(x IN [] WHERE x > 1)", "true"},
		{"any(x IN [1,2,3] WHERE x > 2)", "true"},
		{"any(x IN [1,2,3] WHERE x > 5)", "false"},
		{"any(x IN [] WHERE x > 5)", "false"},
		{"none(x IN [1,2,3] WHERE x > 5)", "true"},
		{"none(x IN [1,2,3] WHERE x = 2)", "false"},
		{"single(x IN [1,2,3] WHERE x = 2)", "true"},
		{"single(x IN [1,2,2] WHERE x = 2)", "false"},
		{"single(x IN [1,3] WHERE x = 2)", "false"},
		// Ternary logic: nulls leave undecided quantifiers unknown.
		{"all(x IN [1, null] WHERE x > 0) IS NULL", "true"},
		{"any(x IN [null, 3] WHERE x > 2)", "true"}, // decided despite null
		{"none(x IN [null] WHERE x > 2) IS NULL", "true"},
		// Quantifier over an outer variable.
		{"all(x IN [1,2] WHERE x < y)", "true"},
	}
	for _, c := range cases {
		res := q(t, s, "WITH 10 AS y RETURN "+c.expr+" AS v", nil)
		if got := res.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
	// Quantifier over null list is null.
	res := q(t, s, "RETURN all(x IN null WHERE x > 0) IS NULL", nil)
	if res.Rows[0][0].String() != "true" {
		t.Error("quantifier over null list")
	}
	// Quantifier over a non-list errors.
	qErr(t, s, "RETURN all(x IN 5 WHERE x > 0)")
}

func TestReduce(t *testing.T) {
	s := graph.NewStore()
	cases := []struct {
		expr string
		want string
	}{
		{"reduce(acc = 0, x IN [1,2,3] | acc + x)", "6"},
		{"reduce(acc = 1, x IN [2,3,4] | acc * x)", "24"},
		{"reduce(s = '', w IN ['a','b'] | s + w)", `"ab"`},
		{"reduce(acc = 0, x IN [] | acc + x)", "0"},
		{"reduce(acc = 0, x IN [1,2] | acc + x + base)", "13"},
	}
	for _, c := range cases {
		res := q(t, s, "WITH 5 AS base RETURN "+c.expr+" AS v", nil)
		if got := res.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
	res := q(t, s, "RETURN reduce(acc = 0, x IN null | acc + x) IS NULL", nil)
	if res.Rows[0][0].String() != "true" {
		t.Error("reduce over null list")
	}
	qErr(t, s, "RETURN reduce(acc = 0, x IN 'nope' | acc + x)")
	// Parse errors.
	for _, bad := range []string{
		"RETURN reduce(acc, x IN [1] | acc)",
		"RETURN reduce(acc = 0 x IN [1] | acc)",
		"RETURN reduce(acc = 0, x IN [1] acc)",
		"RETURN all(x IN [1])",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestQuantifierOverGraphData(t *testing.T) {
	s := testGraph(t)
	// All of Alice's direct contacts are younger than 35.
	res := q(t, s, `MATCH (a:Person {name:'Alice'})
	               MATCH (a)-[:KNOWS]->(f)
	               WITH collect(f.age) AS ages
	               RETURN all(x IN ages WHERE x < 35), any(x IN ages WHERE x > 100)`, nil)
	if res.Rows[0][0].String() != "true" || res.Rows[0][1].String() != "false" {
		t.Errorf("row: %v", res.Rows[0])
	}
}

func TestFuncNamedAllIsPlainCall(t *testing.T) {
	// all/any/none/single only get special parsing with the `v IN list`
	// shape; anything else is a plain call, which the function table
	// rejects as an unknown function at the name's offset.
	_, err := Parse("RETURN all([1,2,3])")
	var pe *Error
	if !errors.As(err, &pe) || pe.Pos != 7 || !strings.Contains(pe.Msg, "unknown function all()") {
		t.Errorf("all() with plain args: %v, want unknown function at offset 7", err)
	}
}

func TestCountNodesFunction(t *testing.T) {
	s := graph.NewStore()
	if err := s.CreateIndex("P", "k"); err != nil {
		t.Fatal(err)
	}
	q(t, s, "UNWIND range(1, 10) AS i CREATE (:P {k: i % 2})", nil)
	res := q(t, s, "RETURN countNodes('P'), countNodes('P', 'k', 0), countNodes('P', 'k', 1)", nil)
	r := res.Rows[0]
	if r[0].String() != "10" || r[1].String() != "5" || r[2].String() != "5" {
		t.Errorf("countNodes: %v", r)
	}
	// Unindexed fallback agrees with the indexed result.
	res = q(t, s, "RETURN countNodes('P', 'unindexed', 1)", nil)
	if res.Rows[0][0].String() != "0" {
		t.Errorf("fallback: %v", res.Rows[0][0])
	}
	q(t, s, "MATCH (p:P) SET p.j = p.k", nil)
	res = q(t, s, "RETURN countNodes('P', 'j', 0)", nil)
	if res.Rows[0][0].String() != "5" {
		t.Errorf("unindexed scan: %v", res.Rows[0][0])
	}
	qErr(t, s, "RETURN countNodes(5)")
	qErr(t, s, "RETURN countNodes('P', 'k')")
}
