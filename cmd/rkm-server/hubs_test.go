package main

// End-to-end tests for the server with -hubs: the same start-up sequence,
// store and handlers as without it, plus hub ownership enforcement. The
// Sharded names date from when -hubs gave every hub its own graph shard;
// the behaviour they pin — hub-owned writes, rules, composite events, the
// async workers, /stats and -data-dir under -hubs — is what remains.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/wal"
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

// newHubsTestServer serves a two-hub knowledge base (people and places).
func newHubsTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return startTestServer(t, hubsOptions())
}

// TestHubsServerEndToEnd drives a -hubs server: owned labels must carry
// their hub, a knowledge bridge between two hubs is an ordinary Cypher
// write, and /stats, /hubs and /metrics report the one store.
func TestHubsServerEndToEnd(t *testing.T) {
	_, ts := newHubsTestServer(t)

	for _, q := range []string{
		"CREATE (:Person {name: 'Ada', hub: 'people'}), (:Person {name: 'Bob', hub: 'people'})",
		"CREATE (:City {code: 'LON', hub: 'places'})",
	} {
		if resp, out := postJSON(t, ts.URL+"/execute", map[string]any{"query": q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("execute %q: %d %v", q, resp.StatusCode, out)
		}
	}
	// Ownership: a node under a label another hub owns, or under an owned
	// label with no hub at all, is rejected and leaves nothing behind.
	for _, q := range []string{
		"CREATE (:Person {name: 'Eve', hub: 'places'})",
		"CREATE (:City {code: 'PAR'})",
	} {
		if resp, _ := postJSON(t, ts.URL+"/execute", map[string]any{"query": q}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("execute %q: status %d, want 400", q, resp.StatusCode)
		}
	}

	// A knowledge bridge (people -> places) is a plain write.
	resp, out := postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "MATCH (p:Person {name: 'Ada'}), (c:City {code: 'LON'}) CREATE (p)-[:LIVES_IN]->(c)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bridge write: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN p.name, c.code",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bridge query: %d %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("bridge rows = %v, want 1", rows)
	}
	if r := rows[0].([]any); r[0] != "Ada" || r[1] != "LON" {
		t.Errorf("bridge row = %v, want [Ada LON]", r)
	}

	// Writes through /query stay rejected.
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{"query": "CREATE (:X)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("write through /query should 400")
	}

	// /stats reports totals, the hub partitioning and the plan cache.
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["role"] != "leader" {
		t.Errorf("role = %v", stats["role"])
	}
	if stats["nodes"].(float64) != 3 || stats["relationships"].(float64) != 1 {
		t.Errorf("totals = %v nodes, %v rels", stats["nodes"], stats["relationships"])
	}
	if per := stats["nodesPerHub"].(map[string]any); per["people"].(float64) != 2 || per["places"].(float64) != 1 {
		t.Errorf("nodesPerHub = %v", per)
	}
	if stats["interHubEdges"].(float64) != 1 || stats["intraHubEdges"].(float64) != 0 {
		t.Errorf("edges: inter %v, intra %v, want 1, 0", stats["interHubEdges"], stats["intraHubEdges"])
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

	// Commits are counted on the one store.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(buf)
	if !containsMetricLine(string(buf[:n]), "rkm_graph_tx_commits_total") {
		t.Error("metrics missing rkm_graph_tx_commits_total")
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

// TestShardedRulesOverHTTP installs a rule on a -hubs server and checks
// that a hub-owned write fires it and /alerts surfaces the result.
func TestShardedRulesOverHTTP(t *testing.T) {
	_, ts := newHubsTestServer(t)
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
	hubs, err := parseHubs("a:X+Y, b:Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(hubs) != 2 || hubs[0].Hub != "a" || len(hubs[0].Labels) != 2 || hubs[1].Labels[0] != "Z" {
		t.Fatalf("parsed %+v", hubs)
	}
	for _, bad := range []string{"", "nolabel", "x:", ":X"} {
		if _, err := parseHubs(bad); err == nil {
			t.Errorf("parseHubs(%q) should fail", bad)
		}
	}
}

// statsKeys is the one key set /stats serves with or without -hubs (a
// follower adds "replica").
var statsKeys = []string{
	"asyncPending", "cepPartials", "cepRules", "indexes", "interHubEdges",
	"intraHubEdges", "labels", "nodes", "nodesPerHub", "planCache",
	"relTypes", "relationships", "role", "time", "unassigned",
}

// TestStatsOneKeySet checks that /stats serves the same keys with and
// without -hubs.
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
		})
	}
}

// TestShardedCompositeRuleOverHTTP installs a composite (WHEN … WITHIN) rule
// on a -hubs server and checks its alert materializes: the partial match is
// kept in the graph and resolved by the background drain.
func TestShardedCompositeRuleOverHTTP(t *testing.T) {
	_, ts := newHubsTestServer(t)
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
// -hubs server: the activation is staged on the pending queue and the async
// workers the common start-up launched materialize it.
func TestShardedAsyncRuleDrainsInBackground(t *testing.T) {
	s, ts := newHubsTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"name": "bigcity", "hub": "places", "event": "createNode", "label": "City",
		"phase": "afterAsync",
		"alert": "MATCH (c:City) RETURN count(c) AS cities",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("rule install: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {code: 'TYO', hub: 'places'})",
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

// TestShardedDataDirPersists runs -hubs with -data-dir: the log sits at the
// root of the directory exactly as without -hubs, /checkpoint answers with
// its position, and a restart over the same directory serves the same graph
// with ownership still enforced.
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
	for _, q := range []string{
		"CREATE (:Person {name: 'Ada', hub: 'people'})",
		"CREATE (:City {code: 'LON', hub: 'places'})",
	} {
		if resp, out := postJSON(t, ts.URL+"/execute", map[string]any{"query": q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("execute %q: %d %v", q, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, ts.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}
	if out["lastSeq"] != float64(2) {
		t.Fatalf("checkpoint reply = %v, want lastSeq 2", out)
	}
	if shards, _ := filepath.Glob(filepath.Join(o.dataDir, "shard-*")); len(shards) != 0 {
		t.Errorf("per-hub stream directories created: %v", shards)
	}
	if snaps, _ := filepath.Glob(filepath.Join(o.dataDir, "snapshot-*")); len(snaps) != 1 {
		t.Errorf("snapshots at the directory root = %v, want one", snaps)
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
	if resp, _ := postJSON(t, ts2.URL+"/execute", map[string]any{"query": "CREATE (:City {code: 'PAR'})"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hubless City after restart: status %d, want 400", resp.StatusCode)
	}
}

// TestStartRejectsSingleStoreFlagsWithHubs pins what start refuses around
// -hubs: -demo, which declares hubs of its own, two hubs claiming one label,
// and a data directory in the per-hub shard-NNN/ layout that -hubs once
// wrote, which start must refuse without writing a log beside it.
func TestStartRejectsSingleStoreFlagsWithHubs(t *testing.T) {
	demo := hubsOptions()
	demo.demo = true
	if s, err := start(demo); err == nil {
		s.stop()
		t.Error("start accepted -hubs with -demo")
	}
	claimed := hubsOptions()
	claimed.hubs = "people:Person, staff:Person"
	if s, err := start(claimed); err == nil {
		s.stop()
		t.Error("start accepted two hubs owning one label")
	}

	old := hubsOptions()
	old.dataDir = t.TempDir()
	if err := os.Mkdir(filepath.Join(old.dataDir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := start(old)
	if err == nil {
		s.stop()
		t.Fatal("start accepted a shard-NNN/ data directory")
	}
	if !errors.Is(err, wal.ErrShardedLayout) {
		t.Errorf("start error = %v, want wal.ErrShardedLayout", err)
	}
	if entries, _ := os.ReadDir(old.dataDir); len(entries) != 1 {
		t.Errorf("refused open left %d entries in the directory, want only shard-000", len(entries))
	}
}
