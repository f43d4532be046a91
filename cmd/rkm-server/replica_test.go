package main

// Two-process (two-server) leader/follower e2e: a durable leader serves the
// /wal endpoints, a follower rkm-server bootstraps from it, streams the
// tail, answers queries from its local mirror, reports its role and lag on
// /stats and /healthz, and rejects writes with 403.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	reactive "repro"
	"repro/internal/backoff"
	"repro/internal/replica"
	"repro/internal/trigger"
)

// newLeaderServer builds a durable leader rkm-server around dir.
func newLeaderServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	s := &server{}
	kb, _, err := reactive.OpenDurable(dir, reactive.Config{}, reactive.WALOptions{Fsync: reactive.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s.kb = kb
	t.Cleanup(func() { _ = kb.Close() })
	ld, err := replica.NewLeader(kb, replica.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.leader = ld
	s.ready.Store(true)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

// newFollowerServer builds a follower rkm-server of the leader at leaderURL.
func newFollowerServer(t *testing.T, leaderURL string, maxLag time.Duration) (*server, *httptest.Server) {
	t.Helper()
	fol, err := replica.OpenFollower(t.TempDir(), leaderURL, reactive.Config{}, replica.Options{
		WAL:               reactive.WALOptions{Fsync: reactive.FsyncAlways},
		PollInterval:      2 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		StreamWindow:      250 * time.Millisecond,
		Policy:            backoff.Policy{BackoffBase: 5 * time.Millisecond, BackoffMax: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fol.Close() })
	fol.Start()
	s := &server{kb: fol.KB(), follower: fol, maxLag: maxLag}
	s.ready.Store(true)
	mux := http.NewServeMux()
	s.register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestReplicaLeaderFollowerServers(t *testing.T) {
	leaderSrv, leaderTS := newLeaderServer(t, t.TempDir())

	// Leader takes writes over HTTP.
	for _, q := range []string{
		"CREATE (:City {name: 'Milan', pop: 1400000})",
		"CREATE (:City {name: 'Rome', pop: 2800000})",
	} {
		if resp, out := postJSON(t, leaderTS.URL+"/execute", map[string]any{"query": q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("leader execute: %d %v", resp.StatusCode, out)
		}
	}

	_, folTS := newFollowerServer(t, leaderTS.URL, time.Minute)

	// More leader writes after the follower bootstrapped.
	if resp, out := postJSON(t, leaderTS.URL+"/execute", map[string]any{
		"query": "CREATE (:City {name: 'Naples', pop: 960000})",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader execute: %d %v", resp.StatusCode, out)
	}

	// The follower catches up and serves the full data set read-only.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var out map[string]any
		resp, body := postJSON(t, folTS.URL+"/query", map[string]any{
			"query": "MATCH (c:City) RETURN count(c)",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follower query: %d %v", resp.StatusCode, body)
		}
		out = body
		n := out["rows"].([]any)[0].([]any)[0].(float64)
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %v cities", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Roles on /stats.
	var stats map[string]any
	getJSON(t, leaderTS.URL+"/stats", &stats)
	if stats["role"] != "leader" {
		t.Fatalf("leader /stats role = %v", stats["role"])
	}
	getJSON(t, folTS.URL+"/stats", &stats)
	if stats["role"] != "follower" {
		t.Fatalf("follower /stats role = %v", stats["role"])
	}
	rep, ok := stats["replica"].(map[string]any)
	if !ok || rep["state"] != "streaming" {
		t.Fatalf("follower /stats replica = %v", stats["replica"])
	}

	// Roles and lag on /healthz; both healthy.
	var hz map[string]any
	if resp := getJSON(t, leaderTS.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK || hz["role"] != "leader" {
		t.Fatalf("leader healthz: %d %v", resp.StatusCode, hz)
	}
	if resp := getJSON(t, folTS.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK || hz["role"] != "follower" {
		t.Fatalf("follower healthz: %d %v", resp.StatusCode, hz)
	}
	if _, ok := hz["lagRecords"]; !ok {
		t.Fatalf("follower healthz missing lag: %v", hz)
	}

	// Writes on the follower are forbidden, not mangled.
	if resp, out := postJSON(t, folTS.URL+"/execute", map[string]any{
		"query": "CREATE (:City {name: 'Turin'})",
	}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower execute: %d %v, want 403", resp.StatusCode, out)
	}
	// Nor does it run composite rules: it has no composite-event runtime.
	if resp, out := postJSON(t, folTS.URL+"/rules", map[string]any{
		"text": "CREATE TRIGGER pair\nWHEN SEQUENCE(CREATE NODE A, CREATE NODE B) WITHIN 5m",
	}); resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), trigger.ErrNoStepSink.Error()) {
		t.Fatalf("follower composite install: %d %v, want 400 with %q", resp.StatusCode, out, trigger.ErrNoStepSink)
	}

	// Leader sees the follower count unchanged (the write really was
	// rejected, not buffered).
	res, err := leaderSrv.kb.Query("MATCH (c:City) RETURN count(c)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("leader city count = %d", n)
	}
}

func TestReplicaFollowerHealthzDegradesPastMaxLag(t *testing.T) {
	_, leaderTS := newLeaderServer(t, t.TempDir())
	if resp, out := postJSON(t, leaderTS.URL+"/execute", map[string]any{
		"query": "CREATE (:City {name: 'Milan'})",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader execute: %d %v", resp.StatusCode, out)
	}

	// Heartbeats arrive every 10ms in the test config, so a 200ms bound keeps
	// a healthy follower comfortably inside it.
	folSrv, folTS := newFollowerServer(t, leaderTS.URL, 200*time.Millisecond)
	deadline := time.Now().Add(15 * time.Second)
	for folSrv.follower.KB().ReplicaAppliedSeq() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Healthy while caught up.
	var hz map[string]any
	if resp := getJSON(t, folTS.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up healthz: %d %v", resp.StatusCode, hz)
	}

	// Stop streaming: the staleness clock stops being refreshed, ages past
	// the bound, and /healthz degrades to 503.
	folSrv.follower.Stop()
	deadline = time.Now().Add(15 * time.Second)
	for {
		resp := getJSON(t, folTS.URL+"/healthz", &hz)
		if resp.StatusCode == http.StatusServiceUnavailable && hz["status"] == "lagging" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded: %v", hz)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
