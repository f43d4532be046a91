package cep

// Behavior tests for the composite-event subsystem: operator semantics
// (sequence, conjunction, count, absence), correlation keys, window expiry,
// guards, alert queries, rule management, hosts with hubs and followers, and
// the background drain loop. Crash recovery is covered in fault_test.go,
// the DSL in dsl_test.go.

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/wal"
)

var cepT0 = time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)

func newCEPKB(t *testing.T) (*core.KnowledgeBase, *periodic.ManualClock, *Manager) {
	t.Helper()
	clock := periodic.NewManualClock(cepT0)
	kb := core.New(core.Config{Clock: clock})
	m, err := Enable(kb, Options{})
	if err != nil {
		t.Fatalf("Enable: %v", err)
	}
	return kb, clock, m
}

func cepExec(t *testing.T, kb *core.KnowledgeBase, query string) *trigger.Report {
	t.Helper()
	_, rep, err := kb.ExecuteReport(query, nil)
	if err != nil {
		t.Fatalf("execute %q: %v", query, err)
	}
	return rep
}

func cepAlerts(t *testing.T, kb *core.KnowledgeBase) []core.Alert {
	t.Helper()
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	return alerts
}

func drain(t *testing.T, m *Manager) int {
	t.Helper()
	n, err := m.DrainOnce()
	if err != nil {
		t.Fatalf("DrainOnce: %v", err)
	}
	return n
}

// seq2 is a two-step keyed sequence: E0 then E1, correlated by NEW.k.
func seq2(name string, window time.Duration) trigger.Rule {
	return trigger.Rule{
		Name: name, Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: window,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "E0"}, Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "E1"}, Key: "NEW.k"},
			}},
	}
}

func TestCEPSequenceMatchAndDrain(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	rep := cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	if rep.CompositeSteps != 1 {
		t.Fatalf("CompositeSteps = %d, want 1", rep.CompositeSteps)
	}
	if m.Depth() != 1 {
		t.Fatalf("depth after step 0 = %d, want 1", m.Depth())
	}
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("alert before the sequence completed")
	}
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Rule != "pair" || a.Hub != "H" {
		t.Fatalf("alert = %+v", a)
	}
	if k, _ := a.Props["key"].AsString(); k != "a" {
		t.Fatalf("alert key = %v, want a", a.Props["key"])
	}
	if n, _ := a.Props["matches"].AsInt(); n != 2 {
		t.Fatalf("alert matches = %v, want 2", a.Props["matches"])
	}
	if m.Depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", m.Depth())
	}
	if m.m.completed.Value() != 1 || m.m.alerts.Value() != 1 {
		t.Fatalf("completed = %d alerts = %d, want 1/1",
			m.m.completed.Value(), m.m.alerts.Value())
	}
	// Repeated drains find nothing more.
	if n := drain(t, m); n != 0 {
		t.Fatalf("second drain resolved %d, want 0", n)
	}
}

func TestCEPSequenceOutOfOrderIgnored(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// The second step without an open partial does not open one.
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if m.Depth() != 0 {
		t.Fatalf("depth after orphan step 1 = %d, want 0", m.Depth())
	}
	// A repeated first step does not advance the match.
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("E0,E0 completed a sequence that needs E0,E1")
	}
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 1 {
		t.Fatal("sequence did not complete after the missing step arrived")
	}
}

func TestCEPSequenceWindowExpiry(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	clock.Advance(6 * time.Minute)
	// The window closed before step 1: the stale partial is evicted on
	// contact, and a non-opening step cannot reopen it.
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if m.Depth() != 0 {
		t.Fatalf("depth after late step = %d, want 0", m.Depth())
	}
	if m.m.expired.Value() != 1 {
		t.Fatalf("expired = %d, want 1", m.m.expired.Value())
	}
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("expired sequence produced an alert")
	}

	// A fresh opening step after expiry starts a new match.
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	clock.Advance(6 * time.Minute)
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})") // evicts the stale one, reopens
	if m.Depth() != 1 {
		t.Fatalf("depth after reopen = %d, want 1", m.Depth())
	}
	if m.m.expired.Value() != 2 {
		t.Fatalf("expired = %d, want 2", m.m.expired.Value())
	}
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 1 {
		t.Fatal("reopened sequence did not complete")
	}
}

func TestCEPSequenceDrainEvictsExpired(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	clock.Advance(10 * time.Minute)
	// No further event touches the key: the drain reaps the stale partial.
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1 eviction", n)
	}
	if m.Depth() != 0 || m.m.expired.Value() != 1 {
		t.Fatalf("depth = %d expired = %d, want 0/1", m.Depth(), m.m.expired.Value())
	}
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("evicted partial produced an alert")
	}
}

func TestCEPAndAnyOrder(t *testing.T) {
	kb, _, m := newCEPKB(t)
	err := kb.InstallRule(trigger.Rule{
		Name: "conj", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.All, Window: 5 * time.Minute,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "A0"}, Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "A1"}, Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "A2"}, Key: "NEW.k"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:A2 {k: 'a'})")
	cepExec(t, kb, "CREATE (:A0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:A0 {k: 'a'})") // duplicate: already-set bit
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("conjunction completed without all steps")
	}
	cepExec(t, kb, "CREATE (:A1 {k: 'a'})")
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if n, _ := alerts[0].Props["matches"].AsInt(); n != 3 {
		t.Fatalf("matches = %v, want 3", alerts[0].Props["matches"])
	}
}

func TestCEPCountSlidingWindow(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	err := kb.InstallRule(trigger.Rule{
		Name: "velocity", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Count, Threshold: 3, Window: 5 * time.Minute,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.account"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {account: 'acct-1'})")
	clock.Advance(time.Minute)
	cepExec(t, kb, "CREATE (:Txn {account: 'acct-1'})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("count fired below threshold")
	}
	clock.Advance(time.Minute)
	cepExec(t, kb, "CREATE (:Txn {account: 'acct-1'})")
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if n, _ := alerts[0].Props["matches"].AsInt(); n != 3 {
		t.Fatalf("matches = %v, want 3", alerts[0].Props["matches"])
	}

	// Occurrences spaced wider than the window slide past each other and
	// never accumulate to the threshold.
	clock.Advance(10 * time.Minute)
	cepExec(t, kb, "CREATE (:Txn {account: 'acct-1'})")
	clock.Advance(6 * time.Minute)
	cepExec(t, kb, "CREATE (:Txn {account: 'acct-1'})")
	if m.m.evictions.Value() == 0 {
		t.Fatal("sliding the window evicted no timestamps")
	}
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (window slid, partial kept)", m.Depth())
	}
	drain(t, m)
	if len(cepAlerts(t, kb)) != 1 {
		t.Fatal("spaced occurrences crossed the threshold")
	}
}

func TestCEPCountDrainSlidesThenEvicts(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	err := kb.InstallRule(trigger.Rule{
		Name: "velocity", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Count, Threshold: 3, Window: 5 * time.Minute,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.account"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {account: 'a'})")
	clock.Advance(4 * time.Minute)
	cepExec(t, kb, "CREATE (:Txn {account: 'a'})")
	clock.Advance(2 * time.Minute)
	// Past the first occurrence's deadline; the second is still in-window,
	// so the drain slides rather than evicts.
	if n := drain(t, m); n != 0 {
		t.Fatalf("drained %d, want 0 (slide keeps the partial)", n)
	}
	if m.Depth() != 1 {
		t.Fatalf("depth after slide = %d, want 1", m.Depth())
	}
	clock.Advance(10 * time.Minute)
	// Now every occurrence is stale: the drain evicts.
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1 eviction", n)
	}
	if m.Depth() != 0 {
		t.Fatalf("depth after eviction = %d, want 0", m.Depth())
	}
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("sliding count produced an alert below threshold")
	}
}

// absenceRule matches a Txn with no Confirmation inside the window.
func absenceRule(window time.Duration) trigger.Rule {
	return trigger.Rule{
		Name: "unconfirmed", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: window,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Confirmation"}, Key: "NEW.k", Negated: true},
			}},
	}
}

func TestCEPAbsenceDetected(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	if err := kb.InstallRule(absenceRule(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a'})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("absence fired before its window closed")
	}
	clock.Advance(6 * time.Minute)
	// The window closed without a Confirmation: that IS the composite event.
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 || alerts[0].Rule != "unconfirmed" {
		t.Fatalf("alerts = %+v, want one from unconfirmed", alerts)
	}
	// Completion is stamped at the deadline, not discovery time.
	if at, ok := alerts[0].Props["completedAt"].AsDateTime(); !ok || !at.Equal(cepT0.Add(5*time.Minute)) {
		t.Fatalf("completedAt = %v, want deadline %v", alerts[0].Props["completedAt"], cepT0.Add(5*time.Minute))
	}
}

func TestCEPAbsenceKilledByOccurrence(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	if err := kb.InstallRule(absenceRule(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a'})")
	clock.Advance(time.Minute)
	cepExec(t, kb, "CREATE (:Confirmation {k: 'a'})")
	if m.Depth() != 0 {
		t.Fatalf("depth after kill = %d, want 0", m.Depth())
	}
	if m.m.killed.Value() != 1 {
		t.Fatalf("killed = %d, want 1", m.m.killed.Value())
	}
	clock.Advance(10 * time.Minute)
	drain(t, m)
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("killed absence still produced an alert")
	}
	// A Confirmation with no armed match is inert.
	cepExec(t, kb, "CREATE (:Confirmation {k: 'b'})")
	if m.Depth() != 0 {
		t.Fatal("negated step opened a partial")
	}
}

func TestCEPAbsenceLateDiscoveryStillCompletes(t *testing.T) {
	kb, clock, m := newCEPKB(t)
	if err := kb.InstallRule(absenceRule(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a'})")
	clock.Advance(10 * time.Minute)
	// The Confirmation arrives after the window closed: too late to kill.
	cepExec(t, kb, "CREATE (:Confirmation {k: 'a'})")
	drain(t, m)
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (absence held for the full window)", len(alerts))
	}
}

func TestCEPKeyIsolation(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E0 {k: 'b'})")
	if m.Depth() != 2 {
		t.Fatalf("depth = %d, want 2 (one partial per key)", m.Depth())
	}
	cepExec(t, kb, "CREATE (:E1 {k: 'b'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	drain(t, m)
	alerts := cepAlerts(t, kb)
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2", len(alerts))
	}
	keys := map[string]int{}
	for _, a := range alerts {
		k, _ := a.Props["key"].AsString()
		keys[k]++
	}
	if keys["a"] != 1 || keys["b"] != 1 {
		t.Fatalf("alert keys = %v, want one per key", keys)
	}
}

func TestCEPGuardFilters(t *testing.T) {
	kb, _, m := newCEPKB(t)
	err := kb.InstallRule(trigger.Rule{
		Name: "big-pair", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: 5 * time.Minute,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Guard: "NEW.amount > 900", Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Guard: "NEW.amount > 900", Key: "NEW.k"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a', amount: 50})")
	if m.Depth() != 0 {
		t.Fatal("guarded step fired on a failing guard")
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a', amount: 950})")
	cepExec(t, kb, "CREATE (:Txn {k: 'a', amount: 100})")
	cepExec(t, kb, "CREATE (:Txn {k: 'a', amount: 1200})")
	drain(t, m)
	if len(cepAlerts(t, kb)) != 1 {
		t.Fatalf("alerts = %d, want 1 (only >900 transactions count)", len(cepAlerts(t, kb)))
	}
}

func TestCEPAlertQueryBindings(t *testing.T) {
	kb, _, m := newCEPKB(t)
	r := seq2("pair", 5*time.Minute)
	r.Alert = "RETURN KEY AS k, MATCHES AS hits, RULE AS r, LAST.v AS lastv"
	if err := kb.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a', v: 1})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a', v: 2})")
	drain(t, m)
	alerts := cepAlerts(t, kb)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	p := alerts[0].Props
	if k, _ := p["k"].AsString(); k != "a" {
		t.Fatalf("k = %v", p["k"])
	}
	if n, _ := p["hits"].AsInt(); n != 2 {
		t.Fatalf("hits = %v", p["hits"])
	}
	if r, _ := p["r"].AsString(); r != "pair" {
		t.Fatalf("r = %v", p["r"])
	}
	if v, _ := p["lastv"].AsInt(); v != 2 {
		t.Fatalf("lastv = %v, want the closing occurrence's NEW.v", p["lastv"])
	}
}

func TestCEPDropOrphansPartials(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	if err := kb.DropRule("pair"); err != nil {
		t.Fatal(err)
	}
	if rules := kb.Rules(); len(rules) != 0 {
		t.Fatalf("rule %s still installed after Drop", rules[0].Name)
	}
	// The stranded partial is discarded (not alerted) by the next drain.
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1 orphan", n)
	}
	if m.Depth() != 0 || m.m.orphaned.Value() != 1 {
		t.Fatalf("depth = %d orphaned = %d, want 0/1", m.Depth(), m.m.orphaned.Value())
	}
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("orphaned partial produced an alert")
	}
	if err := kb.DropRule("pair"); !errors.Is(err, trigger.ErrRuleNotFound) {
		t.Fatalf("double Drop = %v, want ErrRuleNotFound", err)
	}
}

func TestCEPInstallValidation(t *testing.T) {
	kb, _, _ := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(seq2("pair", time.Minute)); !errors.Is(err, trigger.ErrRuleExists) {
		t.Fatalf("duplicate install = %v, want ErrRuleExists", err)
	}
	step := trigger.Step{Event: trigger.Event{Kind: trigger.CreateNode, Label: "X"}}
	not := trigger.Step{Event: step.Event, Negated: true}
	term := func(op trigger.Op, window time.Duration, threshold int, steps ...trigger.Step) *trigger.Composite {
		return &trigger.Composite{Op: op, Window: window, Threshold: threshold, Steps: steps}
	}
	seq, all, count, minute := trigger.Sequence, trigger.All, trigger.Count, time.Minute
	bad := []trigger.Rule{
		{Name: "", Composite: term(seq, minute, 0, step)},
		{Name: "w", Composite: term(seq, 0, 0, step)},
		{Name: "s", Composite: term(seq, minute, 0)},
		{Name: "n", Composite: term(seq, minute, 0, not, step)}, // NOT not final
		{Name: "o", Composite: term(seq, minute, 0, not)},       // no positive step
		{Name: "a1", Composite: term(all, minute, 0, step)},
		{Name: "an", Composite: term(all, minute, 0, step, not)},
		{Name: "c2", Composite: term(count, minute, 1, step, step)},
		{Name: "c0", Composite: term(count, minute, 0, step)},
		{Name: "t", Composite: term(seq, minute, 2, step, step)},
		{Name: "g", Composite: term(seq, minute, 0, trigger.Step{Event: step.Event, Guard: "NEW.v >"})}, // bad guard
		{Name: "k", Composite: term(seq, minute, 0, trigger.Step{Event: step.Event, Key: "NEW."})},      // bad key
		{Name: "q", Composite: term(seq, minute, 0, step), Alert: "RETURN ("},                           // bad alert query
		{Name: "wg", Composite: term(seq, minute, 0, step), Guard: "true"},                              // guards belong to steps
		{Name: "wa", Composite: term(seq, minute, 0, step), Phase: trigger.AfterAsync},
		{Name: "do", Composite: term(seq, minute, 0, step), Action: "CREATE (:X)"}, // completions create alert nodes
		{Name: "nul\x00", Composite: term(seq, minute, 0, step)},
	}
	for _, r := range bad {
		if err := kb.InstallRule(r); err == nil {
			t.Errorf("Install(%+v) should fail", r)
		}
	}
}

func TestCEPEnableTwiceRefused(t *testing.T) {
	kb, _, _ := newCEPKB(t)
	if _, err := Enable(kb, Options{}); !errors.Is(err, ErrEnabled) {
		t.Fatalf("second Enable = %v, want ErrEnabled", err)
	}
}

func TestCEPFollowerRefused(t *testing.T) {
	kb := core.NewFollower(core.Config{Clock: periodic.NewManualClock(cepT0)})
	if _, err := Enable(kb, Options{}); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("Enable on follower = %v, want ErrFollower", err)
	}
}

// defineHubs declares payments (P) and merchants (M) on kb, P owning the
// given labels.
func defineHubs(t *testing.T, kb *core.KnowledgeBase, pLabels ...string) {
	t.Helper()
	if err := kb.DefineHub("P", "payments", pLabels...); err != nil {
		t.Fatal(err)
	}
	if err := kb.DefineHub("M", "merchants", "Merchant"); err != nil {
		t.Fatal(err)
	}
}

// TestCEPHubs runs a composite rule of hub P on a knowledge base with two
// hubs and enforced ownership: writes of the other hub never touch P's
// partial state, and the alert is P's.
func TestCEPHubs(t *testing.T) {
	kb := core.New(core.Config{Clock: periodic.NewManualClock(cepT0)})
	defineHubs(t, kb, "Txn", "Confirmation", "Account")
	kb.EnforceHubOwnership()
	m, err := Enable(kb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = kb.InstallRule(trigger.Rule{
		Name: "pair", Hub: "P",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: 5 * time.Minute,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.k"},
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Confirmation"}, Key: "NEW.k"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cepExec(t, kb, "CREATE (:Txn {k: 'a', hub: 'P'})")
	// Writes of the other hub never touch P's partial state.
	cepExec(t, kb, "CREATE (:Merchant {k: 'a', hub: 'M'})")
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", m.Depth())
	}
	cepExec(t, kb, "CREATE (:Confirmation {k: 'a', hub: 'P'})")
	if n := drain(t, m); n != 1 {
		t.Fatalf("drained %d, want 1", n)
	}
	res, err := kb.Query("MATCH (a:Alert {hub: 'P'}) RETURN count(a) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); func() int64 { n, _ := v.AsInt(); return n }() != 1 {
		t.Fatalf("alerts of hub P: %v, want 1", res.Rows)
	}
	if m.Depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", m.Depth())
	}
}

func TestCEPShardedFollowerRefused(t *testing.T) {
	kb, _, err := core.OpenFollowerDurable(t.TempDir(),
		core.Config{Clock: periodic.NewManualClock(cepT0)}, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	defineHubs(t, kb, "Txn")
	if _, err := Enable(kb, Options{}); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("Enable on a durable follower with hubs = %v, want ErrFollower", err)
	}
}

func TestCEPBackgroundDrainLoop(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := m.Start(10 * time.Millisecond); err == nil {
		t.Fatal("double Start should fail")
	}
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(cepAlerts(t, kb)) == 1 && m.Depth() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background drain never materialized the alert (depth %d)", m.Depth())
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
}

func TestCEPConcurrentWritersAndDrainRace(t *testing.T) {
	kb, _, m := newCEPKB(t)
	// Threshold-1 count: every occurrence is its own completed match, so
	// the expected alert total is exact even with the drain racing writers.
	err := kb.InstallRule(trigger.Rule{
		Name: "each", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Count, Threshold: 1, Window: time.Hour,
			Steps: []trigger.Step{
				{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}, Key: "NEW.k"},
			}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	const writers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := fmt.Sprintf("CREATE (:Txn {k: 'w%d-%d'})", w, i)
				if _, err := kb.Execute(q, nil); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(cepAlerts(t, kb)) == writers*per && m.Depth() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alerts = %d depth = %d, want %d/0",
				len(cepAlerts(t, kb)), m.Depth(), writers*per)
		}
		time.Sleep(time.Millisecond)
	}
	if got := m.m.alerts.Value(); got != writers*per {
		t.Fatalf("alert counter = %d, want %d", got, writers*per)
	}
}

func TestCEPRulesListingAndInstallText(t *testing.T) {
	kb, _, _ := newCEPKB(t)
	r, err := kb.InstallRuleText("CREATE TRIGGER velocity ON HUB P\n" +
		"WHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "velocity" || r.Op != trigger.Count || r.Threshold != 3 {
		t.Fatalf("parsed rule = %+v", r)
	}
	if err := kb.InstallRule(seq2("pair", time.Minute)); err != nil {
		t.Fatal(err)
	}
	infos := kb.Rules()
	if len(infos) != 2 || infos[0].Name != "velocity" || infos[1].Name != "pair" {
		t.Fatalf("Rules() = %+v, want installation order", infos)
	}
	back, err := trigger.ParseRule(infos[0].Text())
	if err != nil {
		t.Fatalf("canonical text does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("canonical text parses to %+v, want %+v", back, r)
	}
}

func TestCEPPartialsInvisibleToRules(t *testing.T) {
	kb, _, m := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// A rule watching CEPPartial creations must never fire: the automaton's
	// bookkeeping nodes are skip-labeled, invisible to rule matching.
	err := kb.InstallRule(trigger.Rule{
		Name:  "watch-partial",
		Hub:   "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: PartialLabel},
		Alert: "RETURN 1 AS one",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (partial staged)", m.Depth())
	}
	if rep.AlertNodes != 0 {
		t.Fatalf("watch-partial produced %d alerts; partials must be invisible", rep.AlertNodes)
	}
	if len(cepAlerts(t, kb)) != 0 {
		t.Fatal("partial churn reached rule matching")
	}
}
