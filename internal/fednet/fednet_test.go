package fednet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

var netStart = time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)

// icuRule is the demo rule every sender installs: ICU admissions fire alerts.
var icuRule = trigger.Rule{
	Name:  "icu",
	Hub:   "C",
	Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
	Alert: "RETURN NEW.region AS region",
}

func newMemKB(t *testing.T) *core.KnowledgeBase {
	t.Helper()
	kb := core.New(core.Config{Clock: periodic.NewManualClock(netStart)})
	if err := kb.InstallRule(icuRule); err != nil {
		t.Fatal(err)
	}
	return kb
}

// openDurable opens (or reopens) a durable KB under dir and reinstalls the
// demo rule, the way a restarted rkm-server process would.
func openDurable(t *testing.T, dir string) *core.KnowledgeBase {
	t.Helper()
	kb, _, err := core.OpenDurable(dir, core.Config{Clock: periodic.NewManualClock(netStart)}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(icuRule); err != nil {
		t.Fatal(err)
	}
	return kb
}

func admit(t *testing.T, kb *core.KnowledgeBase, region string) {
	t.Helper()
	if _, err := kb.Execute("CREATE (:IcuPatient {region: '"+region+"', hub: 'C'})", nil); err != nil {
		t.Fatal(err)
	}
}

// backlog is the alert count of the batching tests: one full push batch
// plus a partial one.
const backlog = pushBatchSize + 44

// admitBacklog admits backlog patients in one statement, one alert each.
func admitBacklog(t *testing.T, kb *core.KnowledgeBase) {
	t.Helper()
	if _, err := kb.Execute("UNWIND range(1, $n) AS i CREATE (:IcuPatient {region: 'R' + toString(i % 20), hub: 'C'})",
		map[string]value.Value{"n": value.Int(backlog)}); err != nil {
		t.Fatal(err)
	}
}

// testOpts are Options with the timing knobs shrunk for tests.
func testOpts() Options {
	return Options{
		RequestTimeout: 2 * time.Second,
		Policy:         backoff.Policy{BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
		Seed:           1,
	}
}

// manualNow is a settable breaker clock (Options.Now).
type manualNow struct{ t time.Time }

func (m *manualNow) now() time.Time { return m.t }

// swapHandler lets a test "restart" a receiver behind a stable URL: the
// httptest server stays up while the node (and knowledge base) behind it is
// replaced, which models a receiver process restarting on the same address.
type swapHandler struct{ h atomic.Value }

// set wraps h in http.HandlerFunc so atomic.Value always stores one
// concrete type.
func (s *swapHandler) set(h http.Handler) { s.h.Store(http.HandlerFunc(h.ServeHTTP)) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// newReceiver builds a receiver node and serves it; returns the node, its
// base URL and the swapHandler for mid-test surgery.
func newReceiver(t *testing.T, name string, kb *core.KnowledgeBase) (*Node, string, *swapHandler) {
	t.Helper()
	n, err := NewNode(name, kb, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh := &swapHandler{}
	sh.set(n.Handler())
	ts := httptest.NewServer(sh)
	t.Cleanup(ts.Close)
	return n, ts.URL, sh
}

// remoteIDs returns the origin ids of the RemoteAlert nodes in kb, failing
// the test on any duplicate — the exactly-once invariant.
func remoteIDs(t *testing.T, kb *core.KnowledgeBase) []int64 {
	t.Helper()
	remote, err := RemoteAlerts(kb)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(remote))
	ids := make([]int64, 0, len(remote))
	for _, a := range remote {
		if seen[int64(a.ID)] {
			t.Fatalf("origin id %d materialized twice", a.ID)
		}
		seen[int64(a.ID)] = true
		ids = append(ids, int64(a.ID))
	}
	return ids
}

func TestPushEndToEnd(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)

	src, err := NewNode("clinic", srcKB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}

	admit(t, srcKB, "Lombardy")
	admit(t, srcKB, "Veneto")
	admit(t, srcKB, "Lazio")
	n, err := src.SyncAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("delivered = %d, want 3", n)
	}
	if ids := remoteIDs(t, dstKB); len(ids) != 3 {
		t.Fatalf("remote alerts = %d, want 3", len(ids))
	}
	remote, _ := RemoteAlerts(dstKB)
	if origin, _ := remote[0].Props[OriginProp].AsString(); origin != "clinic" {
		t.Errorf("origin = %q", origin)
	}
	if region, _ := remote[0].Props["region"].AsString(); region != "Lombardy" {
		t.Errorf("alert props lost on the wire: %v", remote[0].Props)
	}

	// Nothing pending → second sync is a no-op.
	if n, err := src.SyncAll(context.Background()); err != nil || n != 0 {
		t.Fatalf("idle sync: n=%d err=%v", n, err)
	}
	// Incremental delivery.
	admit(t, srcKB, "Puglia")
	if n, err := src.SyncAll(context.Background()); err != nil || n != 1 {
		t.Fatalf("incremental sync: n=%d err=%v", n, err)
	}

	// Sender-side status.
	st, err := src.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 || st.Peers[0].Peer != "region" || st.Peers[0].Pending != 0 ||
		st.Peers[0].Breaker != "closed" {
		t.Errorf("sender status: %+v", st.Peers)
	}
}

// TestPushBatching drains a backlog of more than one push batch in one
// sync round: exactly one push request per batch, every alert materialised
// exactly once on the receiver.
func TestPushBatching(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	rcv, err := NewNode("region", dstKB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	inner := rcv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fed/push" {
			requests.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	src, err := NewNode("clinic", srcKB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", ts.URL); err != nil {
		t.Fatal(err)
	}
	admitBacklog(t, srcKB)
	sent, err := src.SyncAll(context.Background())
	if err != nil || sent != backlog {
		t.Fatalf("sync: sent=%d err=%v, want %d", sent, err, backlog)
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("push requests = %d, want 2 for %d alerts in batches of %d", got, backlog, pushBatchSize)
	}
	if ids := remoteIDs(t, dstKB); len(ids) != backlog {
		t.Fatalf("remote alerts = %d, want %d", len(ids), backlog)
	}
}

func TestStatusEndpoint(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)
	src, _ := NewNode("clinic", srcKB, testOpts())
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	admit(t, srcKB, "Lombardy")
	if _, err := src.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(url + "/fed/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "region" || st.RemoteAlerts["clinic"] != 1 {
		t.Errorf("receiver status: %+v", st)
	}
}

func TestRuleFilteredSubscription(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	if err := srcKB.InstallRule(trigger.Rule{
		Name:  "noise",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Misc"},
		Alert: "RETURN 1 AS one",
	}); err != nil {
		t.Fatal(err)
	}
	_, url, _ := newReceiver(t, "region", dstKB)
	src, _ := NewNode("clinic", srcKB, testOpts())
	if err := src.Subscribe("region", url, "icu"); err != nil {
		t.Fatal(err)
	}

	admit(t, srcKB, "Lombardy")
	if _, err := srcKB.Execute("CREATE (:Misc)", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := src.SyncAll(context.Background()); err != nil || n != 1 {
		t.Fatalf("filtered sync: n=%d err=%v", n, err)
	}
	remote, _ := RemoteAlerts(dstKB)
	if len(remote) != 1 || remote[0].Rule != "icu" {
		t.Fatalf("remote: %+v", remote)
	}
	// The filtered-out alert advanced the mark; it never resurfaces.
	if n, err := src.SyncAll(context.Background()); err != nil || n != 0 {
		t.Fatalf("skipped alert resurfaced: n=%d err=%v", n, err)
	}
}

// TestReceiverRestartMidStream is the acceptance scenario: the receiver dies
// mid-stream (one batch applied, the connection severed on the next), comes
// back from its write-ahead log on the same address, and the stream resumes
// with every alert materialized exactly once.
func TestReceiverRestartMidStream(t *testing.T) {
	srcKB := newMemKB(t)
	dstDir := t.TempDir()
	dstKB := openDurable(t, dstDir)
	_, url, sh := newReceiver(t, "region", dstKB)

	opts := testOpts()
	opts.BreakerThreshold = 100 // breaker behaviour has its own tests
	src, err := NewNode("clinic", srcKB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	admitBacklog(t, srcKB)

	// Kill the receiver after the first batch commits: subsequent pushes die
	// without a response, like a process crash mid-request.
	live := sh.h.Load().(http.Handler)
	var pushes atomic.Int64
	sh.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if pushes.Add(1) > 1 {
			panic(http.ErrAbortHandler)
		}
		live.ServeHTTP(w, r)
	}))
	sent, err := src.SyncAll(context.Background())
	if err == nil {
		t.Fatal("sync succeeded against a dead receiver")
	}
	if sent != pushBatchSize {
		t.Fatalf("delivered before crash = %d, want %d (one batch)", sent, pushBatchSize)
	}

	// "Restart" the receiver: recover the knowledge base from its WAL and
	// mount a fresh node on the same address.
	if err := dstKB.Close(); err != nil {
		t.Fatal(err)
	}
	dstKB2 := openDurable(t, dstDir)
	t.Cleanup(func() { dstKB2.Close() })
	dst2, err := NewNode("region", dstKB2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh.set(dst2.Handler())
	if ids := remoteIDs(t, dstKB2); len(ids) != pushBatchSize {
		t.Fatalf("recovered remote alerts = %d, want %d (first batch survived the crash)", len(ids), pushBatchSize)
	}

	// The sender just retries on its next round; nothing is lost or doubled.
	if n, err := src.SyncAll(context.Background()); err != nil || n != backlog-pushBatchSize {
		t.Fatalf("resumed sync: n=%d err=%v, want %d", n, err, backlog-pushBatchSize)
	}
	if ids := remoteIDs(t, dstKB2); len(ids) != backlog {
		t.Fatalf("final remote alerts = %d, want %d", len(ids), backlog)
	}
}

// TestSenderRestartAfterPartialPush is the other acceptance half: the sender
// crashes after an acknowledged batch, restarts from its write-ahead log, and
// resumes from the durable outbox mark instead of re-sending history.
func TestSenderRestartAfterPartialPush(t *testing.T) {
	srcDir := t.TempDir()
	srcKB := openDurable(t, srcDir)
	dstKB := newMemKB(t)
	_, url, sh := newReceiver(t, "region", dstKB)

	opts := testOpts()
	opts.MaxAttempts = 1 // fail fast; the restarted process is the retry
	src, err := NewNode("clinic", srcKB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	admitBacklog(t, srcKB)

	// The peer vanishes after acknowledging the first batch.
	live := sh.h.Load().(http.Handler)
	var pushes atomic.Int64
	sh.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if pushes.Add(1) > 1 {
			http.Error(w, "gone", http.StatusServiceUnavailable)
			return
		}
		live.ServeHTTP(w, r)
	}))
	if sent, err := src.SyncAll(context.Background()); err == nil || sent != pushBatchSize {
		t.Fatalf("partial push: sent=%d err=%v, want %d and an error", sent, err, pushBatchSize)
	}

	// Sender process crashes and restarts: recover its graph (alert log and
	// outbox mark included) and rebuild the node.
	if err := srcKB.Close(); err != nil {
		t.Fatal(err)
	}
	srcKB2 := openDurable(t, srcDir)
	t.Cleanup(func() { srcKB2.Close() })
	src2, err := NewNode("clinic", srcKB2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := src2.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	sh.set(live) // peer is back

	// Only the unacknowledged alerts go out — the recovered mark spares
	// the first batch a redelivery.
	if n, err := src2.SyncAll(context.Background()); err != nil || n != backlog-pushBatchSize {
		t.Fatalf("resumed sync after sender restart: n=%d err=%v, want %d", n, err, backlog-pushBatchSize)
	}
	if ids := remoteIDs(t, dstKB); len(ids) != backlog {
		t.Fatalf("final remote alerts = %d, want %d", len(ids), backlog)
	}
	if n, err := src2.SyncAll(context.Background()); err != nil || n != 0 {
		t.Fatalf("steady state: n=%d err=%v", n, err)
	}
}

// TestStartSchedulesPeriodicSync runs the background loop on the wall clock:
// it delivers without anyone ticking the knowledge base, a dead peer's
// failures (counted in rkm_fed_push_errors_total) do not stop later passes,
// and Stop ends the loop.
func TestStartSchedulesPeriodicSync(t *testing.T) {
	srcKB := newMemKB(t)
	dstKB := newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)
	opts := testOpts()
	opts.BreakerCooldown = 10 * time.Millisecond // later passes retry the dead peer
	src, _ := NewNode("clinic", srcKB, opts)
	failures := src.nm.pushErrors.With("ghost")
	if err := src.Subscribe("ghost", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	if err := src.Start(0); err == nil {
		t.Fatal("Start(0) accepted")
	}
	if err := src.Start(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := src.Start(10 * time.Millisecond); err == nil {
		t.Fatal("second Start accepted")
	}
	eventually := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("background sync: %s did not happen", what)
			}
		}
	}
	delivered := func(n int) func() bool {
		return func() bool { return len(remoteIDs(t, dstKB)) == n }
	}
	admit(t, srcKB, "Lombardy")
	eventually("first delivery", delivered(1))
	eventually("the dead peer's failure", func() bool { return failures.Value() > 0 })
	// Passes go on over the dead peer: a later alert still goes out.
	seen := failures.Value()
	admit(t, srcKB, "Veneto")
	eventually("second delivery", delivered(2))
	eventually("a later failed pass", func() bool { return failures.Value() > seen })

	src.Stop()
	src.Stop()
	stopped := failures.Value()
	admit(t, srcKB, "Piedmont")
	time.Sleep(50 * time.Millisecond)
	if got := len(remoteIDs(t, dstKB)); got != 2 || failures.Value() != stopped {
		t.Fatalf("after Stop: %d remote alerts, %d more push errors; want 2 and 0", got, failures.Value()-stopped)
	}
}

func TestSubscribeValidation(t *testing.T) {
	kb := newMemKB(t)
	n, err := NewNode("clinic", kb, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe("", "http://x"); err == nil {
		t.Error("empty peer accepted")
	}
	if err := n.Subscribe("clinic", "http://x"); err == nil {
		t.Error("self peer accepted")
	}
	if err := n.Subscribe("region", "not a url"); err == nil {
		t.Error("bad URL accepted")
	}
	if err := n.Subscribe("region", "http://127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe("region", "http://127.0.0.1:9"); !errors.Is(err, ErrPeerExists) {
		t.Errorf("duplicate subscribe: %v", err)
	}
	if _, err := NewNode("", kb, testOpts()); err == nil {
		t.Error("empty node name accepted")
	}
}

func TestInspect(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)
	src, _ := NewNode("clinic", srcKB, testOpts())
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	admit(t, srcKB, "Lombardy")
	if _, err := src.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	srcInfo, err := Inspect(srcKB)
	if err != nil {
		t.Fatal(err)
	}
	if srcInfo.OutboxMarks["region"] == 0 {
		t.Errorf("sender outbox mark not persisted: %+v", srcInfo)
	}
	dstInfo, err := Inspect(dstKB)
	if err != nil {
		t.Fatal(err)
	}
	if dstInfo.RemoteByOrigin["clinic"] != 1 {
		t.Errorf("receiver remote counts: %+v", dstInfo)
	}
}
