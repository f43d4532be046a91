package main

// End-to-end tests for the server with -hubs: the same start-up sequence
// and handlers as without it, over a knowledge base with one shard per hub.
// Writes route to the owning hub's shard, reads without a hub take the
// cross-shard path over a multi-shard view — including MATCHes that
// traverse knowledge bridges — and composite rules, the async workers,
// /stats and /checkpoint behave as on the one-shard server.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	reactive "repro"
)

// startTestServer brings a server up through start — the sequence main runs
// — and serves it until the test ends.
func startTestServer(t *testing.T, o options) (*server, *httptest.Server) {
	t.Helper()
	s, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stop)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

// hubsOptions are the flag defaults plus a two-hub declaration (people and
// places).
func hubsOptions() options {
	return options{
		hubs: "people:Person+Admin, places:City", fsync: "always",
		asyncWorkers: 2, asyncQueue: 1024, asyncBP: "block",
		cepDrain: 50 * time.Millisecond,
	}
}

// newShardedTestServer serves a two-hub knowledge base (people and places).
func newShardedTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return startTestServer(t, hubsOptions())
}

func TestShardedServerEndToEnd(t *testing.T) {
	s, ts := newShardedTestServer(t)

	// Writes are per-shard and require the hub field.
	resp, out := postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:Person {name: 'Ada', hub: 'people'}), (:Person {name: 'Bob', hub: 'people'})",
		"hub":   "people",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute people: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {code: 'LON', hub: 'places'})",
		"hub":   "places",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute places: %d %v", resp.StatusCode, out)
	}
	resp, _ = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:Person {name: 'NoHub'})",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("execute without hub should 400, got %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:X)", "hub": "nope",
	})
	if resp.StatusCode == http.StatusOK {
		t.Error("execute into unknown hub should fail")
	}

	// Bridge the shards programmatically (the HTTP write surface is
	// per-shard; bridges are an embedding-API affair).
	people, _ := s.kb.ShardOf("people")
	places, _ := s.kb.ShardOf("places")
	if _, err := s.kb.UpdateBridgeShards(people, places, func(bt *reactive.BridgeTx) error {
		ada, err := bt.ShardTx(people)
		if err != nil {
			return err
		}
		byProp := func(tx *reactive.Tx, label, key, want string) reactive.NodeID {
			for _, id := range tx.NodesByLabel(label) {
				if v, ok := tx.NodeProp(id, key); ok && v.String() == reactive.V(want).String() {
					return id
				}
			}
			t.Fatalf("no %s with %s=%s", label, key, want)
			return 0
		}
		adaID := byProp(ada, "Person", "name", "Ada")
		ptx, err := bt.ShardTx(places)
		if err != nil {
			return err
		}
		lonID := byProp(ptx, "City", "code", "LON")
		_, err = bt.CreateRel(adaID, lonID, "LIVES_IN", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A hub-pinned read sees only its shard.
	resp, out = postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (n) RETURN count(*)", "hub": "people",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query people: %d %v", resp.StatusCode, out)
	}
	if got := out["rows"].([]any)[0].([]any)[0].(float64); got != 2 {
		t.Errorf("people shard count = %v, want 2", got)
	}

	// A hubless read is cross-shard: the MATCH below crosses the bridge.
	resp, out = postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN p.name, c.code",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross-shard query: %d %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("cross-shard bridge rows = %v, want 1", rows)
	}
	if r := rows[0].([]any); r[0] != "Ada" || r[1] != "LON" {
		t.Errorf("bridge row = %v, want [Ada LON]", r)
	}

	// Writes through /query stay rejected in sharded mode.
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CREATE (:X)", "hub": "people",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("write through /query should 400")
	}

	// /stats reports totals, per-shard blocks and the shared plan cache.
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["role"] != "leader" {
		t.Errorf("role = %v", stats["role"])
	}
	if stats["shards"].(float64) != 2 {
		t.Errorf("shards = %v", stats["shards"])
	}
	if stats["nodes"].(float64) != 3 || stats["relationships"].(float64) != 1 {
		t.Errorf("totals = %v nodes, %v rels", stats["nodes"], stats["relationships"])
	}
	perShard := stats["perShard"].([]any)
	if len(perShard) != 2 {
		t.Fatalf("perShard = %v", perShard)
	}
	first := perShard[0].(map[string]any)
	if first["hub"] != "people" || first["nodes"].(float64) != 2 {
		t.Errorf("people shard block = %v", first)
	}
	if _, ok := stats["planCache"].(map[string]any); !ok {
		t.Errorf("missing planCache block: %v", stats)
	}

	// /healthz reports the role; /hubs lists both declared hubs.
	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" || health["role"] != "leader" {
		t.Errorf("healthz = %v", health)
	}
	var hubs []map[string]any
	getJSON(t, ts.URL+"/hubs", &hubs)
	if len(hubs) != 2 {
		t.Errorf("hubs = %v", hubs)
	}

	// Cross-shard query metrics tick.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(buf)
	body := string(buf[:n])
	if !containsMetricLine(body, "rkm_shard_query_total") {
		t.Error("metrics missing rkm_shard_query_total")
	}
}

// containsMetricLine reports whether a Prometheus exposition contains a
// sample for the named metric.
func containsMetricLine(body, name string) bool {
	for _, line := range splitLines(body) {
		if len(line) > len(name) && line[:len(name)] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestShardedRulesOverHTTP installs a rule on the sharded server and checks
// that a hub-routed write fires it and /alerts surfaces the result.
func TestShardedRulesOverHTTP(t *testing.T) {
	_, ts := newShardedTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"name":  "bigcity",
		"hub":   "places",
		"event": "createNode",
		"label": "City",
		"guard": "NEW.pop > 1000000",
		"alert": "MATCH (c:City) WHERE c.pop > 1000000 RETURN count(c) AS big",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("rule install: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {code: 'TYO', pop: 14000000, hub: 'places'})",
		"hub":   "places",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}
	var alerts []map[string]any
	getJSON(t, ts.URL+"/alerts", &alerts)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v, want 1", alerts)
	}
	var rules []map[string]any
	getJSON(t, ts.URL+"/rules", &rules)
	if len(rules) != 1 {
		t.Fatalf("rules = %v", rules)
	}
}

func TestParseHubShards(t *testing.T) {
	hubs, err := parseHubShards("a:X+Y, b:Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(hubs) != 2 || hubs[0].Hub != "a" || len(hubs[0].Labels) != 2 || hubs[1].Labels[0] != "Z" {
		t.Fatalf("parsed %+v", hubs)
	}
	for _, bad := range []string{"", "nolabel", "x:", ":X"} {
		if _, err := parseHubShards(bad); err == nil {
			t.Errorf("parseHubShards(%q) should fail", bad)
		}
	}
}

// statsKeys is the one key set /stats serves whatever the number of shards
// (a follower adds "replica").
var statsKeys = []string{
	"asyncPending", "cepPartials", "cepRules", "indexes", "interHubEdges",
	"intraHubEdges", "labels", "nodes", "nodesPerHub", "perShard", "planCache",
	"relTypes", "relationships", "role", "shards", "time", "unassigned",
}

// TestStatsOneKeySet checks that /stats serves the same keys with and
// without -hubs: the hub partitioning and composite-event counters under
// -hubs, the shard count and per-shard blocks without it.
func TestStatsOneKeySet(t *testing.T) {
	plain := hubsOptions()
	plain.hubs = ""
	for name, o := range map[string]options{"-hubs": hubsOptions(), "no -hubs": plain} {
		t.Run(name, func(t *testing.T) {
			_, ts := startTestServer(t, o)
			var stats map[string]any
			getJSON(t, ts.URL+"/stats", &stats)
			var got []string
			for k := range stats {
				got = append(got, k)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(statsKeys) {
				t.Fatalf("/stats keys = %v\nwant %v", got, statsKeys)
			}
			if n := len(stats["perShard"].([]any)); float64(n) != stats["shards"].(float64) {
				t.Errorf("perShard has %d block(s) for %v shard(s)", n, stats["shards"])
			}
		})
	}
}

// TestShardedCompositeRuleOverHTTP installs a composite (WHEN … WITHIN) rule
// on a -hubs server and checks its alert materializes: the partial match is
// kept in the writing hub's shard and resolved by the background drain.
func TestShardedCompositeRuleOverHTTP(t *testing.T) {
	_, ts := newShardedTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{"text": `CREATE TRIGGER burst ON HUB people
WHEN COUNT(CREATE NODE Person BY NEW.team) >= 2 WITHIN 1h
THEN ALERT RETURN KEY AS team, MATCHES AS n`})
	if resp.StatusCode != http.StatusCreated || out["composite"] != true {
		t.Fatalf("composite install: %d %v", resp.StatusCode, out)
	}
	for _, name := range []string{"Ada", "Bob"} {
		resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
			"query":  "CREATE (:Person {name: $name, team: 'red', hub: 'people'})",
			"params": map[string]any{"name": name},
			"hub":    "people",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute: %d %v", resp.StatusCode, out)
		}
	}
	alerts := waitForAlerts(t, ts.URL, 1)
	if alerts[0]["rule"] != "burst" {
		t.Fatalf("alerts = %v, want one from burst", alerts)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["cepRules"].(float64) != 1 {
		t.Errorf("cepRules = %v, want 1", stats["cepRules"])
	}
}

// TestShardedAsyncRuleDrainsInBackground installs an AFTER ASYNC rule on a
// -hubs server: the activation is staged on the hub's queue and the async
// workers the common start-up launched materialize it.
func TestShardedAsyncRuleDrainsInBackground(t *testing.T) {
	s, ts := newShardedTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"name": "bigcity", "hub": "places", "event": "createNode", "label": "City",
		"phase": "afterAsync",
		"alert": "MATCH (c:City) RETURN count(c) AS cities",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("rule install: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {code: 'TYO', hub: 'places'})", "hub": "places",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}
	if out["rules"].(map[string]any)["alertNodes"].(float64) != 0 {
		t.Fatalf("afterAsync alert materialized inside the write: %v", out["rules"])
	}
	waitForAlerts(t, ts.URL, 1)
	if d := s.kb.AsyncDepth(); d != 0 {
		t.Errorf("async queue depth after drain = %d", d)
	}
}

// waitForAlerts polls /alerts until n alerts are served.
func waitForAlerts(t *testing.T, base string, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var alerts []map[string]any
		getJSON(t, base+"/alerts", &alerts)
		if len(alerts) >= n {
			return alerts
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d alert(s) after 10 s, want %d", len(alerts), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedDataDirPersists runs -hubs with -data-dir: one stream per hub
// under shard-NNN/, /checkpoint answers with one position per stream, and a
// restart over the same directory serves the same graph.
func TestShardedDataDirPersists(t *testing.T) {
	o := hubsOptions()
	o.dataDir = t.TempDir()
	s, err := start(o)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	for hub, q := range map[string]string{
		"people": "CREATE (:Person {name: 'Ada', hub: 'people'})",
		"places": "CREATE (:City {code: 'LON', hub: 'places'})",
	} {
		if resp, out := postJSON(t, ts.URL+"/execute", map[string]any{"query": q, "hub": hub}); resp.StatusCode != http.StatusOK {
			t.Fatalf("execute %s: %d %v", hub, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, ts.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}
	if seqs, _ := out["lastSeqs"].([]any); len(seqs) != 2 {
		t.Fatalf("checkpoint reply = %v, want two lastSeqs", out)
	}
	if _, ok := out["lastSeq"]; ok {
		t.Errorf("checkpoint reply carries lastSeq with two streams: %v", out)
	}
	for _, sub := range []string{"shard-000", "shard-001"} {
		if _, err := os.Stat(filepath.Join(o.dataDir, sub)); err != nil {
			t.Errorf("missing per-hub stream directory: %v", err)
		}
	}
	ts.Close()
	s.stop()

	_, ts2 := startTestServer(t, o)
	resp, out = postJSON(t, ts2.URL+"/query", map[string]any{"query": "MATCH (n) RETURN count(*)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after restart: %d %v", resp.StatusCode, out)
	}
	if got := out["rows"].([]any)[0].([]any)[0].(float64); got != 2 {
		t.Errorf("nodes after restart = %v, want 2", got)
	}
}

// TestStartRejectsSingleStoreFlagsWithHubs pins the -hubs incompatibility
// list to the features that still act on one store.
func TestStartRejectsSingleStoreFlagsWithHubs(t *testing.T) {
	for name, mod := range map[string]func(*options){
		"-demo":       func(o *options) { o.demo = true },
		"-fed-name":   func(o *options) { o.fedName = "n1" },
		"-replica-of": func(o *options) { o.replicaOf = "http://127.0.0.1:1" },
	} {
		o := hubsOptions()
		mod(&o)
		if s, err := start(o); err == nil {
			s.stop()
			t.Errorf("start accepted -hubs with %s", name)
		}
	}
}
