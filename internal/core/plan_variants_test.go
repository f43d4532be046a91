package core

// Planner behavior across stores: nothing ties a prepared plan to one store,
// but compiled variants carry statistics-driven anchor choices, so they must
// be cached per executing store. These tests pin that contract and race reads
// that traverse knowledge bridges against writers.

import (
	"fmt"
	"regexp"
	"sync"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/value"
)

// fillSkewed gives the store a label skew: 50 :X and 1 :Y, or with rareX 1
// :X and 50 :Y, with one X->Y relationship. A cost-based planner must anchor
// MATCH (x:X)-->(y:Y) at the rare label.
func fillSkewed(t *testing.T, kb *KnowledgeBase, rareX bool) {
	t.Helper()
	nx, ny := 50, 1
	if rareX {
		nx, ny = 1, 50
	}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		var x0, y0 graph.NodeID
		for i := 0; i < nx; i++ {
			id, err := tx.CreateNode([]string{"X"}, nil)
			if err != nil {
				return err
			}
			if i == 0 {
				x0 = id
			}
		}
		for i := 0; i < ny; i++ {
			id, err := tx.CreateNode([]string{"Y"}, nil)
			if err != nil {
				return err
			}
			if i == 0 {
				y0 = id
			}
		}
		_, err := tx.CreateRel(x0, y0, "R", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

var anchorLine = regexp.MustCompile(`anchor: node \d+ via label scan :(\w+)`)

// TestPlanVariantsPerStore checks, on every row of the constructor table,
// that one shared plan yields one compiled variant per executing store:
// executions on two oppositely skewed stores must each be costed against
// their own statistics, not reuse whichever store compiled the plan first.
func TestPlanVariantsPerStore(t *testing.T) { ForEachVariant(t, testPlanVariantsPerStore) }

func testPlanVariantsPerStore(t *testing.T, v Variant) {
	const q = "MATCH (x:X)-[:R]->(y:Y) RETURN count(*)"
	var kbs []*KnowledgeBase
	for i, rareX := range []bool{false, true} {
		kb, _ := v.OpenSim(t)
		fillSkewed(t, kb, rareX)
		kbs = append(kbs, kb)

		// The anchor choice really is statistics-dependent: explain against
		// each store picks its rare side.
		want := map[bool]string{false: "Y", true: "X"}[rareX]
		plan, err := kb.ExplainQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		m := anchorLine.FindStringSubmatch(plan)
		if m == nil {
			t.Fatalf("store %d explain has no label-scan anchor:\n%s", i, plan)
		}
		if m[1] != want {
			t.Fatalf("store %d anchors :%s, want its rare label :%s", i, m[1], want)
		}
	}

	plan, err := cypher.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	all := func(round string) {
		t.Helper()
		for i, kb := range kbs {
			tx := kb.Store().Begin(graph.ReadOnly)
			res, err := plan.Execute(tx, nil)
			tx.Rollback()
			if err != nil {
				t.Fatalf("store %d, %s: %v", i, round, err)
			}
			if got := res.Rows[0][0].String(); got != "1" {
				t.Fatalf("store %d, %s: count = %s, want 1", i, round, got)
			}
		}
	}
	all("first")
	if n := plan.Variants(); n != len(kbs) {
		t.Fatalf("first executions compiled %d variants, want %d (one per store)", n, len(kbs))
	}
	// Re-executions must hit each store's cached variant, not recompile —
	// and not cross-contaminate: the counts stay right on every store.
	before := cypher.PlansCompiled()
	all("repeat")
	if d := cypher.PlansCompiled() - before; d != 0 || plan.Variants() != len(kbs) {
		t.Fatalf("repeat executions recompiled %d variant(s); plan holds %d", d, plan.Variants())
	}
}

// TestShardedCrossQueryConcurrentWithWriters races MATCHes that traverse
// knowledge bridges between hubs against a writer churning one hub and a
// writer adding bridges. Every read must see one consistent snapshot: each
// bridge bound exactly once, never half of one. Run under -race by the CI
// concurrency sweeps.
func TestShardedCrossQueryConcurrentWithWriters(t *testing.T) {
	kb := parityKB(t, Variants[2]) // N=4 in-memory
	const readers = 4
	const rounds = 50

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer churning an unrelated hub
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := kb.WriteTx(func(tx *graph.Tx) error {
				_, err := tx.CreateNode([]string{"Widget"}, map[string]value.Value{"n": value.Int(int64(100 + i))})
				return err
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // bridge writer adding person->city bridges
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := kb.WriteTx(func(tx *graph.Tx) error {
				p, err := tx.CreateNode([]string{"Visitor"}, nil)
				if err != nil {
					return err
				}
				c, err := tx.CreateNode([]string{"Stop"}, nil)
				if err != nil {
					return err
				}
				_, err = tx.CreateRel(p, c, "VISITED", nil)
				return err
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < rounds; i++ {
				// The fixture's four LIVES_IN bridges are immutable during
				// the run; each must be bound exactly once.
				res, err := kb.Query(
					"MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN p.name, c.code", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 4 {
					t.Errorf("bridge MATCH returned %d rows, want 4", len(res.Rows))
					return
				}
				// Visitor/Stop bridges churn, but a snapshot never shows half
				// of one: every VISITED edge reaches a Stop.
				res, err = kb.Query(
					"MATCH (v:Visitor)-[e:VISITED]->(s) RETURN count(e), count(s)", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(res.Rows[0][0]) != fmt.Sprint(res.Rows[0][1]) {
					t.Errorf("torn bridge: %s edges but %s endpoints",
						res.Rows[0][0].String(), res.Rows[0][1].String())
					return
				}
			}
		}()
	}
	rwg.Wait()
	close(done)
	wg.Wait()
}
