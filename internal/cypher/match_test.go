package cypher

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

func TestMultiLabelPattern(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, _ = tx.CreateNode([]string{"A"}, nil)
		_, _ = tx.CreateNode([]string{"A", "B"}, nil)
		_, _ = tx.CreateNode([]string{"B"}, nil)
		return nil
	})
	res := q(t, s, "MATCH (n:A:B) RETURN count(n)", nil)
	if res.Rows[0][0].String() != "1" {
		t.Errorf("multi-label match: %v", res.Rows)
	}
}

func TestAnonymousInteriorNodes(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"Start"}, nil)
		m1, _ := tx.CreateNode([]string{"Mid"}, nil)
		m2, _ := tx.CreateNode([]string{"Mid"}, nil)
		z, _ := tx.CreateNode([]string{"End"}, nil)
		_, _ = tx.CreateRel(a, m1, "R", nil)
		_, _ = tx.CreateRel(m1, z, "R", nil)
		_, _ = tx.CreateRel(a, m2, "R", nil)
		// m2 is a dead end
		return nil
	})
	// The anchor will be Start or End; both interior hops are anonymous.
	res := q(t, s, "MATCH (:Start)-[:R]->()-[:R]->(e:End) RETURN count(e)", nil)
	if res.Rows[0][0].String() != "1" {
		t.Errorf("anonymous chain: %v", res.Rows)
	}
}

func TestAnchorFromMiddleOfChain(t *testing.T) {
	// Index the middle node so the planner anchors there, forcing both the
	// rightward and the leftward expansion paths.
	s := graph.NewStore()
	if err := s.CreateIndex("Mid", "k"); err != nil {
		t.Fatal(err)
	}
	_ = s.Update(func(tx *graph.Tx) error {
		l, _ := tx.CreateNode([]string{"L"}, map[string]value.Value{"name": value.Str("left")})
		m, _ := tx.CreateNode([]string{"Mid"}, map[string]value.Value{"k": value.Int(7)})
		r, _ := tx.CreateNode([]string{"R"}, map[string]value.Value{"name": value.Str("right")})
		_, _ = tx.CreateRel(l, m, "TO", nil)
		_, _ = tx.CreateRel(m, r, "TO", nil)
		// Decoys.
		for i := 0; i < 5; i++ {
			_, _ = tx.CreateNode([]string{"L"}, nil)
			_, _ = tx.CreateNode([]string{"R"}, nil)
		}
		return nil
	})
	res := q(t, s, "MATCH (a:L)-[:TO]->(m:Mid {k: 7})-[:TO]->(b:R) RETURN a.name, b.name", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != `"left"` || res.Rows[0][1].String() != `"right"` {
		t.Errorf("middle anchor: %v", res.Rows)
	}
}

func TestPatternPropsReferencingOuterVars(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, _ = tx.CreateNode([]string{"Conf"}, map[string]value.Value{"want": value.Int(2)})
		for i := 1; i <= 3; i++ {
			_, _ = tx.CreateNode([]string{"Item"}, map[string]value.Value{"v": value.Int(int64(i))})
		}
		return nil
	})
	res := q(t, s, "MATCH (c:Conf) MATCH (i:Item {v: c.want}) RETURN i.v", nil)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "2" {
		t.Errorf("outer-var pattern prop: %v", res.Rows)
	}
}

func TestVarLengthRelVarBindsList(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"N"}, map[string]value.Value{"i": value.Int(0)})
		prev := a
		for i := 1; i <= 3; i++ {
			n, _ := tx.CreateNode([]string{"N"}, map[string]value.Value{"i": value.Int(int64(i))})
			_, _ = tx.CreateRel(prev, n, "NEXT", nil)
			prev = n
		}
		return nil
	})
	res := q(t, s, `MATCH (a:N {i: 0})-[rs:NEXT*2..3]->(b) RETURN size(rs) AS hops, b.i ORDER BY hops`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].String() != "2" || res.Rows[0][1].String() != "2" {
		t.Errorf("two hops: %v", res.Rows[0])
	}
	if res.Rows[1][0].String() != "3" || res.Rows[1][1].String() != "3" {
		t.Errorf("three hops: %v", res.Rows[1])
	}
}

func TestVarLengthUnbounded(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		prev, _ := tx.CreateNode([]string{"Chain", "Head"}, nil)
		for i := 0; i < 6; i++ {
			n, _ := tx.CreateNode([]string{"Chain"}, nil)
			_, _ = tx.CreateRel(prev, n, "NEXT", nil)
			prev = n
		}
		return nil
	})
	res := q(t, s, "MATCH (h:Head)-[:NEXT*]->(x) RETURN count(x)", nil)
	if res.Rows[0][0].String() != "6" {
		t.Errorf("unbounded reach: %v", res.Rows)
	}
}

func TestVarLengthCycleTerminates(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"C"}, map[string]value.Value{"n": value.Str("a")})
		b, _ := tx.CreateNode([]string{"C"}, map[string]value.Value{"n": value.Str("b")})
		_, _ = tx.CreateRel(a, b, "E", nil)
		_, _ = tx.CreateRel(b, a, "E", nil)
		return nil
	})
	// Relationship uniqueness bounds the walk despite the cycle.
	res := q(t, s, "MATCH (x:C {n:'a'})-[:E*]->(y) RETURN count(*)", nil)
	if res.Rows[0][0].String() != "2" {
		t.Errorf("cycle walk: %v", res.Rows)
	}
}

func TestPathVariable(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"P"}, map[string]value.Value{"n": value.Str("a")})
		b, _ := tx.CreateNode([]string{"P"}, map[string]value.Value{"n": value.Str("b")})
		_, _ = tx.CreateRel(a, b, "E", nil)
		return nil
	})
	res := q(t, s, "MATCH p = (:P {n:'a'})-[:E]->(:P) RETURN size(p)", nil)
	// Path list = [node, rel, node].
	if res.Rows[0][0].String() != "3" {
		t.Errorf("path variable: %v", res.Rows)
	}
}

func TestBoundRelVariableJoin(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"X"}, nil)
		b, _ := tx.CreateNode([]string{"Y"}, nil)
		_, _ = tx.CreateRel(a, b, "E", map[string]value.Value{"w": value.Int(1)})
		_, _ = tx.CreateRel(a, b, "E", map[string]value.Value{"w": value.Int(2)})
		return nil
	})
	// Re-matching the same bound rel variable must constrain, not expand.
	res := q(t, s, `MATCH (a:X)-[r:E {w: 1}]->(b:Y) MATCH (a)-[r]->(b) RETURN count(*)`, nil)
	if res.Rows[0][0].String() != "1" {
		t.Errorf("bound rel join: %v", res.Rows)
	}
}

func TestMatchAfterWithNarrowedScope(t *testing.T) {
	s := testGraph(t)
	// After WITH, only projected variables survive; a new MATCH can reuse
	// them as anchors.
	res := q(t, s, `MATCH (p:Person {name:'Alice'})
	               WITH p
	               MATCH (p)-[:WORKS_AT]->(c)
	               RETURN c.name`, nil)
	if joined(res, 0) != `"ACME"` {
		t.Errorf("got %v", res.Rows)
	}
	// A variable dropped by WITH is fresh afterwards: MATCH (q) scans all
	// nodes rather than reusing the old binding.
	res = q(t, s, `MATCH (p:Person {name:'Alice'}) WITH p MATCH (q) RETURN count(q)`, nil)
	if res.Rows[0][0].String() != "5" {
		t.Errorf("fresh variable after WITH: %v", res.Rows)
	}
}

func TestSelfLoopMatching(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		n, _ := tx.CreateNode([]string{"S"}, nil)
		_, _ = tx.CreateRel(n, n, "LOOP", nil)
		return nil
	})
	res := q(t, s, "MATCH (a:S)-[:LOOP]->(a) RETURN count(*)", nil)
	if res.Rows[0][0].String() != "1" {
		t.Errorf("self loop directed: %v", res.Rows)
	}
	res = q(t, s, "MATCH (a:S)-[:LOOP]->(b:S) RETURN a = b", nil)
	if res.Rows[0][0].String() != "true" {
		t.Errorf("loop endpoints: %v", res.Rows)
	}
}

// TestSelfLoopEveryDirection: openCypher matches a self-loop once in each
// direction a pattern can take, variable-length included.
func TestSelfLoopEveryDirection(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, err := Run(tx, "CREATE (a:N)-[:R]->(a)", nil)
		return err
	})
	for _, query := range []string{
		"MATCH (x)<-[r]-(y) RETURN count(*)",
		"MATCH (x:N)<-[:R*1..2]-(y) RETURN count(*)",
		"MATCH (x)-[r]->(y) RETURN count(*)",
		"MATCH (x)-[r]-(y) RETURN count(*)",
	} {
		if res := q(t, s, query, nil); res.Rows[0][0].String() != "1" {
			t.Errorf("%s: %v, want 1", query, res.Rows)
		}
	}
}

func TestParallelEdges(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ := tx.CreateNode([]string{"PA"}, nil)
		b, _ := tx.CreateNode([]string{"PB"}, nil)
		for i := 0; i < 3; i++ {
			_, _ = tx.CreateRel(a, b, "E", nil)
		}
		return nil
	})
	res := q(t, s, "MATCH (:PA)-[r:E]->(:PB) RETURN count(r)", nil)
	if res.Rows[0][0].String() != "3" {
		t.Errorf("parallel edges: %v", res.Rows)
	}
}

func TestOptionalMatchChaining(t *testing.T) {
	s := testGraph(t)
	res := q(t, s, `MATCH (p:Person {name: 'Dave'})
	               OPTIONAL MATCH (p)-[:KNOWS]->(f)
	               OPTIONAL MATCH (f)-[:WORKS_AT]->(c)
	               RETURN p.name, f, c`, nil)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Errorf("nulls should chain through optional matches: %v", res.Rows[0])
	}
}
