package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	reactive "repro"
	"repro/internal/cep"
	"repro/internal/democovid"
	"repro/internal/fednet"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := &server{
		clock: reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)),
	}
	s.kb = reactive.New(reactive.Config{Clock: s.clock})
	m, err := cep.Enable(s.kb, cep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.cep = m
	if err := democovid.Setup(s.kb); err != nil {
		t.Fatal(err)
	}
	if err := democovid.Seed(s.kb); err != nil {
		t.Fatal(err)
	}
	s.ready.Store(true)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "MATCH (r:Region) RETURN r.name ORDER BY r.name",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0].([]any)[0] != "Lombardy" {
		t.Errorf("first region: %v", rows[0])
	}
	// Writes through /query are rejected.
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{"query": "CREATE (:X)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("write through /query should 400")
	}
	// Missing query is rejected.
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("empty query should 400")
	}
}

func TestExecuteEndpointFiresRules(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/execute", map[string]any{
		"query": `MATCH (ef:Effect {level: 'critical'})
		         CREATE (:Mutation {id: $id, hub: 'E'})-[:HasEffect]->(ef)`,
		"params": map[string]any{"id": "S:E484K"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rules := out["rules"].(map[string]any)
	if rules["alertNodes"].(float64) != 1 {
		t.Errorf("rule report: %v", rules)
	}
	stats := out["stats"].(map[string]any)
	if stats["nodesCreated"].(float64) < 1 {
		t.Errorf("stats: %v", stats)
	}

	var alerts []map[string]any
	getJSON(t, ts.URL+"/alerts", &alerts)
	if len(alerts) != 1 || alerts[0]["rule"] != "R1" {
		t.Fatalf("alerts: %v", alerts)
	}
}

func TestRulesEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var rules []map[string]any
	getJSON(t, ts.URL+"/rules", &rules)
	if len(rules) != 5 {
		t.Fatalf("rules: %d", len(rules))
	}
	// Install a new rule over HTTP.
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"name":  "R9",
		"hub":   "R",
		"event": "createNode",
		"label": "Policy",
		"alert": "RETURN NEW.kind AS kind",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d %v", resp.StatusCode, out)
	}
	getJSON(t, ts.URL+"/rules", &rules)
	if len(rules) != 6 {
		t.Error("rule not installed")
	}
	// Unknown event kind.
	resp, _ = postJSON(t, ts.URL+"/rules", map[string]any{
		"name": "bad", "event": "explode",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("unknown event should 400")
	}
	// Drop it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rules?name=R9", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("drop: %d", dresp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/rules?name=R9", nil)
	dresp, _ = http.DefaultClient.Do(req)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("double drop: %d", dresp.StatusCode)
	}
}

func TestHubsAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var hubs []map[string]any
	getJSON(t, ts.URL+"/hubs", &hubs)
	if len(hubs) != 4 {
		t.Fatalf("hubs: %d", len(hubs))
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["nodes"].(float64) <= 0 {
		t.Errorf("stats: %v", stats)
	}
	if _, ok := stats["nodesPerHub"]; !ok {
		t.Error("missing hub stats")
	}
}

func TestTickEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	before := s.kb.Now()
	resp, out := postJSON(t, ts.URL+"/tick", map[string]any{"hours": 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d %v", resp.StatusCode, out)
	}
	if !s.kb.Now().After(before.Add(24 * time.Hour)) {
		t.Error("clock did not advance")
	}
	// A server without a manual clock rejects /tick.
	noClock := &server{kb: reactive.New(reactive.Config{})}
	mux := http.NewServeMux()
	noClock.register(mux)
	ts2 := httptest.NewServer(mux)
	defer ts2.Close()
	resp, _ = postJSON(t, ts2.URL+"/tick", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("tick without manual clock should 400")
	}
}

// TestTickBounds: /tick accepts 1 to maxTickHours hours, and any other
// count — negative, a million hourly rollover checks, or one whose product
// with time.Hour wraps negative — is a 400 that leaves the clock where it
// was.
func TestTickBounds(t *testing.T) {
	s, ts := newTestServer(t)
	before := s.kb.Now()
	for _, hours := range []int{-1, maxTickHours + 1, 1000000, 3000000} {
		resp, out := postJSON(t, ts.URL+"/tick", map[string]any{"hours": hours})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("tick %d hours: %d %v, want 400", hours, resp.StatusCode, out)
		}
		if !s.kb.Now().Equal(before) {
			t.Fatalf("tick %d hours moved the clock from %v to %v", hours, before, s.kb.Now())
		}
	}
	resp, out := postJSON(t, ts.URL+"/tick", map[string]any{"hours": maxTickHours})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick %d hours: %d %v", maxTickHours, resp.StatusCode, out)
	}
	if want := before.Add(maxTickHours * time.Hour); !s.kb.Now().Equal(want) {
		t.Errorf("clock = %v, want %v", s.kb.Now(), want)
	}
}

// TestReadHeaderDeadline: the server serve runs closes a connection whose
// request headers stop arriving, within readHeaderTimeout, and still
// answers complete requests.
func TestReadHeaderDeadline(t *testing.T) {
	s, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := s.httpServer("", false)
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: rkm\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start), err)
	}
}

// TestRequestBodyLimits: an oversized body is refused with 413 without
// harming the next request, and a malformed /tick body is a 400 that leaves
// the clock where it was.
func TestRequestBodyLimits(t *testing.T) {
	s, ts := newTestServer(t)
	big := `{"query": "CREATE (:X {pad: '` + strings.Repeat("x", maxBodyBytes) + `'})"}`
	resp, err := http.Post(ts.URL+"/execute", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /execute: %d, want 413", resp.StatusCode)
	}
	if resp, out := postJSON(t, ts.URL+"/execute", map[string]any{"query": "CREATE (:X)"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after oversized body: %d %v", resp.StatusCode, out)
	}

	before := s.kb.Now()
	resp, err = http.Post(ts.URL+"/tick", "application/json", strings.NewReader(`{"hours": "soon"`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed /tick: %d, want 400", resp.StatusCode)
	}
	if !s.kb.Now().Equal(before) {
		t.Errorf("malformed /tick moved the clock from %v to %v", before, s.kb.Now())
	}
	// An empty body still advances the default day.
	resp, err = http.Post(ts.URL+"/tick", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !s.kb.Now().Equal(before.Add(24*time.Hour)) {
		t.Errorf("empty /tick: %d, clock %v", resp.StatusCode, s.kb.Now())
	}
}

func TestValueJSONEncoding(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "RETURN 1, 1.5, 'x', true, null, [1, 'a'], datetime('2023-04-01'), duration('2h')",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	row := out["rows"].([]any)[0].([]any)
	if row[0].(float64) != 1 || row[1].(float64) != 1.5 || row[2] != "x" ||
		row[3] != true || row[4] != nil {
		t.Errorf("scalars: %v", row)
	}
	if list := row[5].([]any); len(list) != 2 {
		t.Errorf("list: %v", row[5])
	}
	if _, err := time.Parse(time.RFC3339Nano, row[6].(string)); err != nil {
		t.Errorf("datetime encoding: %v", row[6])
	}
	if row[7] != "2h0m0s" {
		t.Errorf("duration encoding: %v", row[7])
	}
}

func TestRulesAPOCEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var out map[string][]string
	getJSON(t, ts.URL+"/rules/apoc", &out)
	// The demo installs R1, R2, R3, R5, R4 — all node-creation rules.
	if len(out["triggers"]) != 5 {
		t.Fatalf("translated %d triggers (skipped: %v)", len(out["triggers"]), out["skipped"])
	}
	found := false
	for _, trg := range out["triggers"] {
		if bytes.Contains([]byte(trg), []byte("apoc.trigger.install('neo4j', 'R2'")) {
			found = true
		}
	}
	if !found {
		t.Error("R2 translation missing")
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// In-memory servers reject /checkpoint.
	s := &server{kb: reactive.New(reactive.Config{})}
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("checkpoint on in-memory server: %d, want 400", resp.StatusCode)
	}

	// A durable server checkpoints, and a fresh process recovers the writes.
	dir := t.TempDir()
	kb, _, err := reactive.OpenDurable(dir, reactive.Config{}, reactive.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds := &server{kb: kb}
	dmux := http.NewServeMux()
	ds.register(dmux)
	dts := httptest.NewServer(dmux)
	defer dts.Close()

	resp, out := postJSON(t, dts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {name: 'Milan'})",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, dts.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK || out["checkpointed"] != true {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}
	if out["lastSeq"] != float64(1) || len(out) != 2 {
		t.Errorf("checkpoint reply = %v, want checkpointed and lastSeq 1", out)
	}
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	kb2, info, err := reactive.OpenDurable(dir, reactive.Config{}, reactive.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb2.Close()
	if info.SnapshotSeq == 0 {
		t.Errorf("no snapshot after checkpoint: %+v", info)
	}
	res, err := kb2.Query("MATCH (c:City) RETURN c.name", nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("recovered query: %v rows=%v", err, res)
	}
}

// parsePrometheus runs a minimal syntax check over a text exposition and
// returns the set of sample names (histogram series collapse to the family
// name, labels and the _bucket/_sum/_count suffixes stripped).
func parsePrometheus(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		// name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		names[name] = true
	}
	return names
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Seed a write so trigger and graph counters are nonzero.
	resp, out := postJSON(t, ts.URL+"/execute", map[string]any{
		"query": `MATCH (ef:Effect {level: 'critical'})
		         CREATE (:Mutation {id: $id, hub: 'E'})-[:HasEffect]->(ef)`,
		"params": map[string]any{"id": "S:E484K"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type: %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := parsePrometheus(t, string(raw))
	for _, want := range []string{
		"rkm_graph_tx_commits_total",
		"rkm_graph_nodes",
		"rkm_trigger_rule_fired_total",
		"rkm_trigger_alerts_created_total",
	} {
		if !names[want] {
			t.Errorf("metric %s missing from /metrics output", want)
		}
	}
	if !strings.Contains(string(raw), `rkm_trigger_rule_fired_total{rule="R1"} 1`) {
		t.Errorf("per-rule fire count missing:\n%s", raw)
	}
}

func TestMetricsEndpointDurable(t *testing.T) {
	kb, _, err := reactive.OpenDurable(t.TempDir(), reactive.Config{}, reactive.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	s := &server{kb: kb}
	s.ready.Store(true)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, out := postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:City {name: 'Milan'})",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	names := parsePrometheus(t, string(raw))
	for _, want := range []string{
		"rkm_wal_records_appended_total",
		"rkm_wal_bytes_appended_total",
		"rkm_wal_fsync_seconds",
		"rkm_wal_last_seq",
	} {
		if !names[want] {
			t.Errorf("metric %s missing from durable /metrics output", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := &server{kb: reactive.New(reactive.Config{})}
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("before ready: %d, want 503", resp.StatusCode)
	}
	s.ready.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("after ready: %d %v", resp.StatusCode, body)
	}
}

func TestRuleInstallViaText(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"text": "CREATE TRIGGER fromText ON HUB R\nAFTER CREATE OF NODE Policy\nALERT RETURN NEW.kind AS kind",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d %v", resp.StatusCode, out)
	}
	if out["installed"] != "fromText" {
		t.Errorf("response: %v", out)
	}
	resp, _ = postJSON(t, ts.URL+"/rules", map[string]any{"text": "CREATE TRIGGER broken"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Error("bad text should 400")
	}
}

// newFedServer builds a server participating in a federation under the
// given name, optionally subscribed to peers, and serves it over httptest —
// one rkm-server process of a two-process deployment.
func newFedServer(t *testing.T, name string, peers ...fedPeer) (*server, *httptest.Server) {
	t.Helper()
	s := &server{
		clock: reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)),
	}
	s.kb = reactive.New(reactive.Config{Clock: s.clock})
	if err := s.kb.InstallRule(reactive.Rule{
		Name:  "icu",
		Hub:   "C",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "IcuPatient"},
		Alert: "RETURN NEW.region AS region",
	}); err != nil {
		t.Fatal(err)
	}
	node, err := fednet.NewNode(name, s.kb, fednet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := node.Subscribe(p.name, p.url); err != nil {
			t.Fatal(err)
		}
	}
	s.fed = node
	s.ready.Store(true)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestFederatedServers runs the networked-federation scenario end to end
// through the HTTP API: two rkm-server instances, alerts fired on one appear
// exactly once as RemoteAlert nodes on the other.
func TestFederatedServers(t *testing.T) {
	_, regionTS := newFedServer(t, "region")
	clinic, clinicTS := newFedServer(t, "clinic", fedPeer{name: "region", url: regionTS.URL})

	// Fire two alerts on the clinic through the public API.
	for _, region := range []string{"Lombardy", "Veneto"} {
		resp, out := postJSON(t, clinicTS.URL+"/execute", map[string]any{
			"query": "CREATE (:IcuPatient {region: '" + region + "', hub: 'C'})",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute: %d %v", resp.StatusCode, out)
		}
	}

	// Manual sync round.
	resp, out := postJSON(t, clinicTS.URL+"/fed/sync", map[string]any{})
	if resp.StatusCode != http.StatusOK || out["delivered"].(float64) != 2 {
		t.Fatalf("fed/sync: %d %v", resp.StatusCode, out)
	}
	// Redundant round delivers nothing new.
	if _, out := postJSON(t, clinicTS.URL+"/fed/sync", map[string]any{}); out["delivered"].(float64) != 0 {
		t.Fatalf("second fed/sync: %v", out)
	}

	// The receiver reports the alerts, exactly once.
	var st fednet.Status
	getJSON(t, regionTS.URL+"/fed/status", &st)
	if st.Name != "region" || st.RemoteAlerts["clinic"] != 2 {
		t.Fatalf("receiver status: %+v", st)
	}
	respQ, outQ := postJSON(t, regionTS.URL+"/query", map[string]any{
		"query": "MATCH (a:RemoteAlert) RETURN a.origin, a.region ORDER BY a.region",
	})
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %v", respQ.StatusCode, outQ)
	}
	qrows := outQ["rows"].([]any)
	if len(qrows) != 2 {
		t.Fatalf("RemoteAlert rows: %v", qrows)
	}
	first := qrows[0].([]any)
	if first[0] != "clinic" || first[1] != "Lombardy" {
		t.Errorf("first remote alert: %v", first)
	}

	// Sender status shows the drained outbox and a closed breaker.
	var sst fednet.Status
	getJSON(t, clinicTS.URL+"/fed/status", &sst)
	if len(sst.Peers) != 1 || sst.Peers[0].Pending != 0 || sst.Peers[0].Breaker != "closed" {
		t.Fatalf("sender status: %+v", sst.Peers)
	}

	// Federation metrics surface on /metrics.
	mresp, err := http.Get(clinicTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"rkm_fed_push_total", "rkm_fed_outbox_depth"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	_ = clinic
}

func TestParseFedPeers(t *testing.T) {
	peers, err := parseFedPeers("region=http://a:1, national=http://b:2")
	if err != nil || len(peers) != 2 || peers[0].name != "region" || peers[1].url != "http://b:2" {
		t.Fatalf("peers=%v err=%v", peers, err)
	}
	if got, err := parseFedPeers(""); err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	if _, err := parseFedPeers("nourl"); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestAsyncRuleOverHTTP(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.kb.StartAsync(reactive.AsyncOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.kb.StopAsync)

	resp, body := postJSON(t, ts.URL+"/rules", map[string]any{
		"name":  "asyncEcho",
		"hub":   "E",
		"event": "createNode",
		"label": "Probe",
		"phase": "afterAsync",
		"alert": "RETURN NEW.v AS v",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d %v", resp.StatusCode, body)
	}

	// The rule list reports the phase.
	var rules []map[string]any
	getJSON(t, ts.URL+"/rules", &rules)
	found := false
	for _, r := range rules {
		if r["name"] == "asyncEcho" {
			found = true
			if r["phase"] != "afterAsync" {
				t.Fatalf("phase = %v, want afterAsync", r["phase"])
			}
		}
	}
	if !found {
		t.Fatal("asyncEcho not listed")
	}

	// A write triggers the rule; the alert materializes asynchronously.
	resp, body = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:Probe {v: 41})",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, body)
	}
	if err := s.kb.WaitAsyncIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var alerts []map[string]any
	getJSON(t, ts.URL+"/alerts", &alerts)
	hit := 0
	for _, a := range alerts {
		if a["rule"] == "asyncEcho" {
			hit++
		}
	}
	if hit != 1 {
		t.Fatalf("asyncEcho alerts = %d, want 1", hit)
	}

	// The drained queue shows up in /stats and /metrics.
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["asyncPending"] != float64(0) {
		t.Fatalf("asyncPending = %v, want 0", stats["asyncPending"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"rkm_trigger_async_queue_depth 0",
		"rkm_trigger_async_enqueued_total 1",
		"rkm_trigger_async_evaluated_total 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A bad phase is rejected.
	resp, _ = postJSON(t, ts.URL+"/rules", map[string]any{
		"name": "bad", "event": "createNode", "phase": "during",
		"alert": "RETURN 1 AS one",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad phase accepted: %d", resp.StatusCode)
	}
}

// TestCEPServerEndToEnd drives a composite rule through the HTTP API:
// install via text, watch a partial match open in /stats, complete it,
// drain via /tick, read the alert, export APOC, drop.
func TestCEPServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/rules", map[string]any{
		"text": `CREATE TRIGGER handoff ON HUB C
WHEN SEQUENCE(CREATE NODE Arrival BY NEW.ward,
              CREATE NODE Transfer BY NEW.ward)
WITHIN 5m
THEN ALERT RETURN KEY AS ward`,
	})
	if resp.StatusCode != http.StatusCreated || out["composite"] != true {
		t.Fatalf("composite install: %d %v", resp.StatusCode, out)
	}

	var rules []map[string]any
	getJSON(t, ts.URL+"/rules", &rules)
	seen := false
	for _, r := range rules {
		name := r["name"].(string)
		if strings.HasPrefix(name, "cep:") {
			t.Errorf("internal step rule leaked into /rules: %s", name)
		}
		if name == "handoff" {
			seen = true
			if r["composite"] != true || !strings.Contains(r["text"].(string), "SEQUENCE") {
				t.Errorf("composite listing: %v", r)
			}
		}
	}
	if !seen {
		t.Fatal("composite rule missing from /rules")
	}

	resp, out = postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:Arrival {ward: 'icu-3', hub: 'C'})",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d %v", resp.StatusCode, out)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["cepPartials"].(float64) != 1 {
		t.Fatalf("cepPartials = %v, want 1", stats["cepPartials"])
	}

	postJSON(t, ts.URL+"/execute", map[string]any{
		"query": "CREATE (:Transfer {ward: 'icu-3', hub: 'C'})",
	})
	// /tick advances the clock and drains done partials into alerts.
	resp, _ = postJSON(t, ts.URL+"/tick", map[string]any{"hours": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	var alerts []map[string]any
	getJSON(t, ts.URL+"/alerts", &alerts)
	found := false
	for _, a := range alerts {
		if a["rule"] == "handoff" {
			found = true
			if a["props"].(map[string]any)["ward"] != "icu-3" {
				t.Errorf("alert props: %v", a)
			}
		}
	}
	if !found {
		t.Fatalf("no handoff alert in %v", alerts)
	}

	var apoc map[string][]string
	getJSON(t, ts.URL+"/rules/apoc", &apoc)
	if len(apoc["composite"]) == 0 {
		t.Error("no composite APOC export")
	}
	for _, lists := range [][]string{apoc["triggers"], apoc["skipped"]} {
		for _, s := range lists {
			if strings.Contains(s, "cep:") {
				t.Errorf("internal step rule leaked into APOC export: %s", s)
			}
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/rules?name=handoff", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", dresp.StatusCode)
	}
	rules = nil
	getJSON(t, ts.URL+"/rules", &rules)
	for _, r := range rules {
		if r["name"] == "handoff" {
			t.Fatal("composite rule still listed after drop")
		}
	}
}
