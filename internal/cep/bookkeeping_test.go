package cep

// A composite completion is an ordinary reaction reached later: these tests
// pin what that buys — the composite alert goes through the engine's one
// materializer (Essential Summary attachment, the one alert label, the
// trigger metrics) — and run the bookkeeping contract of core.Bookkeeping with
// CEPPartial as the user (internal/core runs it for PendingAlert).

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
)

// plainE1 fires on the same event that completes seq2, so a test has one
// plain and one composite alert to compare.
var plainE1 = trigger.Rule{
	Name: "plain", Hub: "H",
	Event: trigger.Event{Kind: trigger.CreateNode, Label: "E1"},
	Alert: "RETURN NEW.k AS k",
}

func TestCEPCompositeAlertAttachedToCurrentSummary(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(plainE1); err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	if n := len(cepAlerts(t, kb)); n != 2 {
		t.Fatalf("%d alert nodes, want 2 (one plain, one composite)", n)
	}
	sm, err := kb.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	attached := 0
	_ = kb.Store().View(func(tx *graph.Tx) error {
		cur, _ := sm.Current(tx)
		attached = len(sm.Alerts(tx, cur))
		return nil
	})
	if attached != 2 {
		t.Fatalf("attached %d of 2 alerts to the Current summary: the composite alert bypassed OnAlert", attached)
	}
	if got := kb.Engine().Metrics.AlertsCreated.Value(); got != 2 {
		t.Fatalf("rkm_trigger_alerts_created_total = %d, want 2 (composite alerts count too)", got)
	}
}

// TestEveryAlertIsAnAlertNode runs the three ways an alert is born — a
// synchronous rule, a composite completion and an afterAsync drain — and
// checks that each one is an :Alert node that kb.Alerts() lists, and that
// the APOC export creates the same label.
func TestEveryAlertIsAnAlertNode(t *testing.T) {
	kb, _, m := newCEPKB(t)
	later := plainE1
	later.Name, later.Phase = "later", trigger.AfterAsync
	for _, r := range []trigger.Rule{plainE1, seq2("pair", 5*time.Minute), later} {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := kb.StartAsync(core.AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if n, err := kb.DrainAsync(); err != nil || n != 1 {
		t.Fatalf("DrainAsync = %d, %v; want 1", n, err)
	}
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	var rules []string
	for _, a := range cepAlerts(t, kb) {
		rules = append(rules, a.Rule)
	}
	sort.Strings(rules)
	if fmt.Sprint(rules) != "[later pair plain]" {
		t.Fatalf("kb.Alerts() rules = %v, want [later pair plain]", rules)
	}
	if got := kb.Store().LabelCount(trigger.AlertLabel); got != 3 {
		t.Fatalf("%d :%s nodes, want 3", got, trigger.AlertLabel)
	}
	exp := kb.TranslateRulesAPOC("neo4j", "")
	if len(exp.Skipped) != 0 || len(exp.CompositeSkipped) != 0 {
		t.Fatalf("skipped: %v %v", exp.Skipped, exp.CompositeSkipped)
	}
	for _, name := range rules {
		if all := strings.Join(append(exp.Triggers, exp.Composite...), "\n"); !strings.Contains(all, "CREATE (:Alert {rule: '"+name+"'") {
			t.Fatalf("APOC export creates no :Alert for rule %s:\n%s", name, all)
		}
	}
}

func TestCEPCompositeAlertQueryObserved(t *testing.T) {
	kb, _, m := newCEPKB(t)
	r := seq2("pair", 5*time.Minute)
	r.Alert = "RETURN KEY AS k, MATCHES AS n"
	if err := kb.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	h := kb.Engine().Metrics.AlertQuerySeconds
	if got := h.Snapshot().Count; got != 0 {
		t.Fatalf("%d alert queries observed before the drain, want 0 (step rules run none)", got)
	}
	drain(t, m)
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("rkm_trigger_alert_query_seconds observed %d queries, want the composite rule's 1", got)
	}
}

// eachTxn completes a match on every occurrence, so n writes leave n ready
// partials.
var eachTxn = trigger.Rule{
	Name: "each", Hub: "P",
	Composite: &trigger.Composite{Op: trigger.Count, Threshold: 1, Window: time.Hour,
		Steps: []trigger.Step{{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.k"}}},
}

// bookkeepingHosts are the knowledge bases the contract runs over: no hubs,
// and two declared hubs whose names key the staged events.
func bookkeepingHosts(t *testing.T, fn func(t *testing.T, kb *core.KnowledgeBase, m *Manager, hubs []string)) {
	t.Run("N=1", func(t *testing.T) {
		kb, _, m := newCEPKB(t)
		fn(t, kb, m, []string{""})
	})
	t.Run("N=2", func(t *testing.T) {
		kb := core.New(core.Config{Clock: periodic.NewManualClock(cepT0)})
		if err := kb.DefineHub("P", "payments", "Account"); err != nil {
			t.Fatal(err)
		}
		if err := kb.DefineHub("M", "merchants", "Merchant"); err != nil {
			t.Fatal(err)
		}
		m, err := Enable(kb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fn(t, kb, m, []string{"P", "M"})
	})
}

// stageReady installs eachTxn and writes per occurrences keyed by every
// hub, round-robin.
func stageReady(t *testing.T, kb *core.KnowledgeBase, m *Manager, hubs []string, per int) {
	t.Helper()
	if err := kb.InstallRule(eachTxn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < per; i++ {
		for _, hub := range hubs {
			if _, err := kb.Execute(fmt.Sprintf("CREATE (:Txn {k: '%s-%d'})", hub, i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := m.Depth(), per*len(hubs); got != want {
		t.Fatalf("%d partials staged, want %d", got, want)
	}
}

func TestCEPBookkeepingScanOrderAndTake(t *testing.T) {
	bookkeepingHosts(t, func(t *testing.T, kb *core.KnowledgeBase, m *Manager, hubs []string) {
		stageReady(t, kb, m, hubs, 4)
		now := kb.Now()
		ready := m.partials.Scan(func(tx *graph.Tx, id graph.NodeID) bool { return m.ready(tx, id, now) })
		if len(ready) != 4*len(hubs) {
			t.Fatalf("scan found %d ready partials, want %d", len(ready), 4*len(hubs))
		}
		if !sort.SliceIsSorted(ready, func(i, j int) bool { return ready[i] < ready[j] }) {
			t.Fatalf("scan order %v is not node-id ascending", ready)
		}
		// An open partial of a rule that is still installed is not ready,
		// and the scan skips it.
		if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
			t.Fatal(err)
		}
		cepExec(t, kb, "CREATE (:E0 {k: 'open'})")
		if n := drain(t, m); n != len(ready) || m.Depth() != 1 {
			t.Fatalf("drain resolved %d (want %d) and left %d (want the 1 open partial)", n, len(ready), m.Depth())
		}
	})
}

func TestCEPBookkeepingRacingDrainsExactlyOnce(t *testing.T) {
	bookkeepingHosts(t, func(t *testing.T, kb *core.KnowledgeBase, m *Manager, hubs []string) {
		stageReady(t, kb, m, hubs, 8)
		n := 8 * len(hubs)
		var wg sync.WaitGroup
		resolved := make([]int, 2)
		errs := make([]error, 2)
		for g := range resolved {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resolved[g], errs[g] = m.DrainOnce()
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("drain %d: the loser must report not-resolved, not an error: %v", g, err)
			}
		}
		if resolved[0]+resolved[1] != n {
			t.Fatalf("drains resolved %d + %d partials, want %d in total", resolved[0], resolved[1], n)
		}
		if got := len(cepAlerts(t, kb)); got != n {
			t.Fatalf("%d alerts after racing drains, want exactly %d", got, n)
		}
		if got := m.m.alerts.Value(); got != int64(n) {
			t.Fatalf("alert counter = %d, want %d", got, n)
		}
	})
}

func TestCEPBookkeepingOrphanDiscardAndRecovered(t *testing.T) {
	dir := t.TempDir()
	watch := trigger.Rule{
		Name: "anyDelete", Hub: "H",
		Event: trigger.Event{Kind: trigger.DeleteNode},
		Alert: "RETURN 1 AS one",
	}
	kb, _, m := openDurableCEP(t, dir, cepT0, seq2("pair", 5*time.Minute))
	if m.Recovered() != 0 {
		t.Fatalf("fresh directory: recovered = %d", m.Recovered())
	}
	if err := kb.InstallRule(watch); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		cepExec(t, kb, fmt.Sprintf("CREATE (:E0 {k: '%s'})", k))
	}
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen without the rule: the three partials are recovered, orphaned,
	// and discarded by the drain without any rule seeing the deletes.
	kb2, _, m2 := openDurableCEP(t, dir, cepT0)
	if err := kb2.InstallRule(watch); err != nil {
		t.Fatal(err)
	}
	if rec := m2.Recovered(); rec != 3 || rec != m2.Depth() {
		t.Fatalf("after reopen: recovered %d, depth %d, want both 3", rec, m2.Depth())
	}
	if n := drain(t, m2); n != 3 {
		t.Fatalf("drained %d orphans, want 3", n)
	}
	if got := m2.m.orphaned.Value(); got != 3 {
		t.Fatalf("orphaned counter = %d, want 3", got)
	}
	for _, info := range kb2.Rules() {
		if info.Name == watch.Name && info.Stats.GuardChecks != 0 {
			t.Fatalf("a wildcard delete rule saw %d bookkeeping delete(s)", info.Stats.GuardChecks)
		}
	}
	if len(cepAlerts(t, kb2)) != 0 {
		t.Fatal("a discard produced an alert")
	}
	if err := kb2.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, m3 := openDurableCEP(t, dir, cepT0)
	if m3.Recovered() != 0 {
		t.Fatalf("the discards are not in the log: %d partial(s) came back", m3.Recovered())
	}
}
