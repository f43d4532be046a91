package bench

// XShard series: reading across hub borders. The same bridge-heavy sharded
// graph is queried two ways:
//
//   - cross:  one cross-shard Query — the engine pins every shard's snapshot,
//     plans against cardinalities aggregated over all shards, and executes
//     once over the multi-shard view. A knowledge bridge is stored in both
//     endpoint shards but bound exactly once.
//   - fanout: the pre-cross-shard strategy — one QueryInHub per hub plus a
//     client-side merge that must dedupe bridges by relationship ID,
//     because each bridge surfaces from both of its endpoint shards.
//
// Both return identical result sets (the smoke gate checks it); the series
// measures what the fan-out costs as hubs multiply: H plan executions, H
// rounds of row materialization and a merge pass, against one.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/value"
)

// XShardConfig parameterizes the cross-shard read series.
type XShardConfig struct {
	// Hubs is the sweep over hub counts.
	Hubs []int
	// NodesPerHub is the number of :Item nodes seeded in each shard.
	NodesPerHub int
	// IntraRels is the number of intra-shard LINK relationships per shard.
	IntraRels int
	// Bridges is the number of LINK bridges between each adjacent shard
	// pair (shard i to shard i+1).
	Bridges int
	// Window is how long each strategy measures per hub count.
	Window time.Duration
	Seed   int64
}

func (c XShardConfig) withDefaults() XShardConfig {
	if len(c.Hubs) == 0 {
		c.Hubs = []int{2, 4, 8}
	}
	if c.NodesPerHub <= 0 {
		c.NodesPerHub = 2000
	}
	if c.IntraRels <= 0 {
		c.IntraRels = 2000
	}
	if c.Bridges <= 0 {
		c.Bridges = 500
	}
	if c.Window <= 0 {
		c.Window = 300 * time.Millisecond
	}
	return c
}

// XShardPoint is one (hubs, strategy) measurement.
type XShardPoint struct {
	Hubs     int
	Strategy string // "cross" or "fanout"
	Rows     int    // result rows per query (after dedupe for fanout)
	Queries  int64
	QPS      float64
}

// xshardQuery matches every LINK — intra-shard and bridge alike — and
// returns its identifier, so the fan-out strategy has something to dedupe
// on (a bridge is visible from both endpoint shards). The far endpoint
// stays anonymous deliberately: a per-hub transaction cannot inspect the
// labels of a node across the hub border, so a `(:Item)` on both ends
// would silently drop every bridge from the fan-out — the strategy's
// fundamental limitation, kept out of the timing comparison.
const xshardQuery = "MATCH (:Item)-[r:LINK]->() RETURN id(r)"

// buildXShard seeds a sharded knowledge base: per shard, NodesPerHub
// :Item nodes and IntraRels intra-shard LINKs; between each adjacent shard
// pair, Bridges LINK bridges.
func buildXShard(cfg XShardConfig, hubs int) (*core.KnowledgeBase, error) {
	kb, err := core.NewSharded(
		core.Config{Clock: periodic.NewManualClock(simStart)}, shardHubs(hubs))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(hubs)))
	nodes := make([][]graph.NodeID, hubs)
	for s := 0; s < hubs; s++ {
		s := s
		if _, err := kb.UpdateShard(s, func(tx *graph.Tx) error {
			for i := 0; i < cfg.NodesPerHub; i++ {
				id, err := tx.CreateNode([]string{"Item"}, map[string]value.Value{
					"n": value.Int(int64(i)),
				})
				if err != nil {
					return err
				}
				nodes[s] = append(nodes[s], id)
			}
			for i := 0; i < cfg.IntraRels; i++ {
				a := nodes[s][rng.Intn(len(nodes[s]))]
				b := nodes[s][rng.Intn(len(nodes[s]))]
				if _, err := tx.CreateRel(a, b, "LINK", nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for s := 0; s+1 < hubs; s++ {
		s := s
		if _, err := kb.UpdateBridgeShards(s, s+1, func(bt *graph.BridgeTx) error {
			for i := 0; i < cfg.Bridges; i++ {
				a := nodes[s][rng.Intn(len(nodes[s]))]
				b := nodes[s+1][rng.Intn(len(nodes[s+1]))]
				if _, err := bt.CreateRel(a, b, "LINK", nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return kb, nil
}

// xshardFanout runs the query once per hub and merges, deduping by the
// returned relationship ID.
func xshardFanout(kb *core.KnowledgeBase, hubs int) (int, error) {
	seen := make(map[string]bool)
	for s := 0; s < hubs; s++ {
		res, err := kb.QueryInHub(fmt.Sprintf("H%d", s), xshardQuery, nil)
		if err != nil {
			return 0, err
		}
		for _, row := range res.Rows {
			seen[row[0].String()] = true
		}
	}
	return len(seen), nil
}

// RunXShard measures both strategies at every hub count. The expected row
// count per query is hubs*IntraRels + (hubs-1)*Bridges; a strategy
// returning anything else (a bridge double-counted or dropped) is an error,
// not a data point.
func RunXShard(cfg XShardConfig) ([]XShardPoint, error) {
	cfg = cfg.withDefaults()
	var out []XShardPoint
	for _, hubs := range cfg.Hubs {
		kb, err := buildXShard(cfg, hubs)
		if err != nil {
			return nil, err
		}
		wantRows := hubs*cfg.IntraRels + (hubs-1)*cfg.Bridges

		res, err := kb.Query(xshardQuery, nil)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != wantRows {
			return nil, fmt.Errorf("xshard: cross-shard query returned %d rows at %d hubs, want %d (bridges must bind exactly once)",
				len(res.Rows), hubs, wantRows)
		}
		merged, err := xshardFanout(kb, hubs)
		if err != nil {
			return nil, err
		}
		if merged != wantRows {
			return nil, fmt.Errorf("xshard: fan-out merge yielded %d rows at %d hubs, want %d",
				merged, hubs, wantRows)
		}

		cross := XShardPoint{Hubs: hubs, Strategy: "cross", Rows: wantRows}
		deadline := time.Now().Add(cfg.Window)
		for time.Now().Before(deadline) {
			if _, err := kb.Query(xshardQuery, nil); err != nil {
				return nil, err
			}
			cross.Queries++
		}
		cross.QPS = float64(cross.Queries) / cfg.Window.Seconds()

		fan := XShardPoint{Hubs: hubs, Strategy: "fanout", Rows: merged}
		deadline = time.Now().Add(cfg.Window)
		for time.Now().Before(deadline) {
			if _, err := xshardFanout(kb, hubs); err != nil {
				return nil, err
			}
			fan.Queries++
		}
		fan.QPS = float64(fan.Queries) / cfg.Window.Seconds()

		out = append(out, cross, fan)
	}
	return out, nil
}

// WriteXShard renders the series.
func WriteXShard(w io.Writer, pts []XShardPoint) {
	fmt.Fprintln(w, "cross-shard MATCH over a multi-shard view vs per-hub fan-out + client merge")
	fmt.Fprintf(w, "%6s  %8s  %8s  %10s  %10s\n",
		"hubs", "strategy", "rows", "queries", "qps")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d  %8s  %8d  %10d  %10.0f\n",
			p.Hubs, p.Strategy, p.Rows, p.Queries, p.QPS)
	}
}
