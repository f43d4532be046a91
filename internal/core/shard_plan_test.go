package core

// Planner behavior over shards: the plan cache is shared by every shard (one
// parse per query text), but compiled variants carry statistics-driven
// anchor choices, so they must be cached per executing store. These tests
// pin that contract and race cross-shard reads against per-shard and bridge
// writers.

import (
	"fmt"
	"regexp"
	"sync"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/value"
)

// fillSkewed gives consecutive shards opposite label skews: even shards
// hold 50 :X and 1 :Y, odd shards 1 :X and 50 :Y, each with one X->Y
// relationship. A cost-based planner must anchor MATCH (x:X)-->(y:Y) at the
// shard's rare label.
func fillSkewed(t *testing.T, kb *KnowledgeBase) {
	t.Helper()
	for shard := 0; shard < kb.NumShards(); shard++ {
		nx, ny := 50, 1
		if shard%2 == 1 {
			nx, ny = 1, 50
		}
		if _, err := kb.UpdateShard(shard, func(tx *graph.Tx) error {
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
}

var anchorLine = regexp.MustCompile(`anchor: node \d+ via label scan :(\w+)`)

// TestPlanVariantsPerStore checks, on every row of the constructor table,
// that one shared plan yields one compiled variant per executing store —
// per-hub executions on skewed shards must each be costed against their own
// statistics, and with several shards the cross-shard view is one more
// store with aggregated statistics, not a reuse of whichever shard prepared
// the plan first. With one shard the whole-graph read is that shard's own
// store: one variant in total.
func TestPlanVariantsPerStore(t *testing.T) { ForEachVariant(t, testPlanVariantsPerStore) }

func testPlanVariantsPerStore(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	fillSkewed(t, kb)
	const q = "MATCH (x:X)-[:R]->(y:Y) RETURN count(*)"

	// The anchor choice really is statistics-dependent: explain against
	// each shard's own view picks the rare side.
	stmt, err := cypher.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Shards; i++ {
		want := "Y"
		if i%2 == 1 {
			want = "X"
		}
		if err := kb.Shards().Shard(i).View(func(tx *graph.Tx) error {
			m := anchorLine.FindStringSubmatch(cypher.Explain(tx, stmt))
			if m == nil {
				t.Fatalf("shard %d explain has no label-scan anchor:\n%s", i, cypher.Explain(tx, stmt))
			}
			if m[1] != want {
				t.Fatalf("shard %d anchors :%s, want its rare label :%s", i, m[1], want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	run := func(exec func() (*cypher.Result, error), want int, where string) {
		t.Helper()
		res, err := exec()
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got := res.Rows[0][0].String(); got != fmt.Sprint(want) {
			t.Fatalf("%s: count = %s, want %d", where, got, want)
		}
	}
	all := func(round string) {
		for i := 0; i < v.Shards; i++ {
			run(func() (*cypher.Result, error) { return kb.QueryInHub(v.Hub(i), q, nil) },
				1, fmt.Sprintf("hub %s, %s", v.Hub(i), round))
		}
		run(func() (*cypher.Result, error) { return kb.Query(q, nil) }, v.Shards, "whole graph, "+round)
	}
	stores := v.Shards
	if v.Shards > 1 {
		stores++ // the cross-shard view
	}

	before := cypher.PlansCompiled()
	all("first")
	if d := cypher.PlansCompiled() - before; d != int64(stores) {
		t.Fatalf("first executions compiled %d variants, want %d (one per store)", d, stores)
	}
	// Re-executions must hit each store's cached variant, not recompile —
	// and not cross-contaminate: the counts stay right on every store.
	all("repeat")
	if d := cypher.PlansCompiled() - before; d != int64(stores) {
		t.Fatalf("repeat executions recompiled: %d variants total, want %d", d, stores)
	}
}

// TestShardedCrossQueryConcurrentWithWriters races cross-shard MATCHes that
// traverse knowledge bridges against per-shard writers and a bridge
// writer. Every read must see a consistent multi-shard snapshot: each
// bridge bound exactly once, never a torn half. Run under -race by the CI
// concurrency sweeps.
func TestShardedCrossQueryConcurrentWithWriters(t *testing.T) {
	kb := parityKB(t, Variants[2]) // N=4 in-memory
	const readers = 4
	const rounds = 50

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // per-shard writer churning an unrelated shard
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := kb.UpdateShard(2, func(tx *graph.Tx) error {
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
			if _, err := kb.UpdateBridgeShards(0, 1, func(bt *graph.BridgeTx) error {
				p, err := bt.CreateNodeIn(0, []string{"Visitor"}, nil)
				if err != nil {
					return err
				}
				c, err := bt.CreateNodeIn(1, []string{"Stop"}, nil)
				if err != nil {
					return err
				}
				_, err = bt.CreateRel(p, c, "VISITED", nil)
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
					t.Errorf("cross-shard bridge MATCH returned %d rows, want 4", len(res.Rows))
					return
				}
				// Visitor/Stop bridges churn, but a consistent cut never
				// shows a torn half: every VISITED edge reaches a Stop.
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
