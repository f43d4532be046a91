package core

// Behavior tests for the asynchronous alert pipeline: deferral and sync
// fallback, per-rule ordered delivery, shed and block backpressure, orphaned
// rules, cascading from async alerts, and queue invisibility to rule
// matching. Crash recovery is covered separately in async_fault_test.go.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/trigger"
	"repro/internal/value"
)

func installAsyncEcho(t *testing.T, kb *KnowledgeBase, name string) {
	t.Helper()
	err := kb.InstallRule(trigger.Rule{
		Name:  name,
		Hub:   "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Reading"},
		Alert: "RETURN NEW.v AS v",
		Phase: trigger.AfterAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func drainAsync(t *testing.T, kb *KnowledgeBase) {
	t.Helper()
	if err := kb.WaitAsyncIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncFallbackWithoutPipeline(t *testing.T) {
	ForEachVariant(t, testAsyncFallbackWithoutPipeline)
}

func testAsyncFallbackWithoutPipeline(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	rep := exec(t, kb, "CREATE (:Reading {v: 1})")
	if rep.AsyncEnqueued != 0 {
		t.Fatalf("enqueued without pipeline: %+v", rep)
	}
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != 1 {
		t.Fatalf("sync fallback alerts = %d, want 1", n)
	}
	if kb.AsyncDepth() != 0 {
		t.Fatalf("queue depth = %d, want 0", kb.AsyncDepth())
	}
}

func TestAsyncDeferralAndDrain(t *testing.T) { ForEachVariant(t, testAsyncDeferralAndDrain) }

func testAsyncDeferralAndDrain(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	// Enqueue-only: the queue freezes so the deferred state is observable.
	if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	rep := exec(t, kb, "CREATE (:Reading {v: 7})")
	if rep.AsyncEnqueued != 1 || rep.AsyncShed != 0 {
		t.Fatalf("report = %+v, want 1 enqueued", rep)
	}
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != 0 {
		t.Fatalf("alerts before drain = %d, want 0", n)
	}
	if kb.AsyncDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", kb.AsyncDepth())
	}
	if err := kb.StartAsync(AsyncOptions{}); err != ErrAsyncRunning {
		t.Fatalf("double StartAsync = %v, want ErrAsyncRunning", err)
	}

	// Restart with workers: the pending entry drains and materializes.
	kb.StopAsync()
	if err := kb.StartAsync(AsyncOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	drainAsync(t, kb)
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != 1 {
		t.Fatalf("alerts after drain = %d, want 1", n)
	}
	if kb.AsyncDepth() != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", kb.AsyncDepth())
	}
	if got := kb.asyncM.recovered.Value(); got != 1 {
		t.Fatalf("recovered counter = %d, want 1 (entry queued before restart)", got)
	}
	// The alert carries the rule's mandatory props and the echoed column.
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Rule != "echo" || alerts[0].Hub != "H" {
		t.Fatalf("alerts = %+v", alerts)
	}
	if v, _ := alerts[0].Props["v"].AsInt(); v != 7 {
		t.Fatalf("alert payload v = %v, want 7", alerts[0].Props["v"])
	}
}

func TestAsyncPerRuleOrderedDelivery(t *testing.T) {
	ForEachVariant(t, testAsyncPerRuleOrderedDelivery)
}

func testAsyncPerRuleOrderedDelivery(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echoA")
	err := kb.InstallRule(trigger.Rule{
		Name:  "echoB",
		Hub:   "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Reading"},
		Alert: "RETURN NEW.v AS v",
		Phase: trigger.AfterAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.StartAsync(AsyncOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	const n = 50
	for i := 0; i < n; i++ {
		exec(t, kb, fmt.Sprintf("CREATE (:Reading {v: %d})", i))
	}
	drainAsync(t, kb)
	// Alert node ids are assigned in creation order, so per rule the echoed
	// payloads must ascend when sorted by id — regardless of which of the 4
	// workers ran which rule.
	for _, rule := range []string{"echoA", "echoB"} {
		alerts, err := kb.AlertsAfter(0)
		if err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		seen := 0
		for _, a := range alerts {
			if a.Rule != rule {
				continue
			}
			v, _ := a.Props["v"].AsInt()
			if v <= last {
				t.Fatalf("rule %s: alert order violated: %d after %d", rule, v, last)
			}
			last = v
			seen++
		}
		if seen != n {
			t.Fatalf("rule %s: %d alerts, want %d", rule, seen, n)
		}
	}
}

func TestAsyncShedBackpressure(t *testing.T) { ForEachVariant(t, testAsyncShedBackpressure) }

func testAsyncShedBackpressure(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	err := kb.StartAsync(AsyncOptions{
		Workers: -1, QueueLimit: 3, Backpressure: ShedOnFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := 0; i < 10; i++ {
		rep := exec(t, kb, fmt.Sprintf("CREATE (:Reading {v: %d})", i))
		shed += rep.AsyncShed
	}
	if kb.AsyncDepth() != 3 {
		t.Fatalf("queue depth = %d, want 3 (the limit)", kb.AsyncDepth())
	}
	if shed != 7 {
		t.Fatalf("reported shed = %d, want 7", shed)
	}
	if got := kb.asyncM.shed.Value(); got != 7 {
		t.Fatalf("shed counter = %d, want 7", got)
	}
	if got := kb.asyncM.enqueued.Value(); got != 3 {
		t.Fatalf("enqueued counter = %d, want 3", got)
	}
}

func TestAsyncBlockBackpressure(t *testing.T) { ForEachVariant(t, testAsyncBlockBackpressure) }

func testAsyncBlockBackpressure(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	// Stage a backlog with the queue frozen.
	const backlog = 64
	if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < backlog; i++ {
		exec(t, kb, fmt.Sprintf("CREATE (:Reading {v: %d})", i))
	}
	kb.StopAsync()
	// The worker holds every entry until the writer below is seen blocked,
	// so the writer finds the queue over the limit however the two are
	// scheduled.
	gate := make(chan struct{})
	kb.asyncHooks = asyncHooks{
		beforeConsume: func() { <-gate },
		blocked:       sync.OnceFunc(func() { close(gate) }),
	}
	err := kb.StartAsync(AsyncOptions{
		Workers: 1, QueueLimit: 1, Backpressure: BlockOnFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	exec(t, kb, fmt.Sprintf("CREATE (:Reading {v: %d})", backlog))
	// The writer came back only once the workers had the queue under the
	// limit again.
	if d := kb.AsyncDepth(); d != 0 {
		t.Fatalf("writer returned with %d entries queued, limit 1", d)
	}
	if got := kb.asyncM.blockSeconds.Snapshot().Count; got != 1 {
		t.Fatalf("block histogram count = %d, want 1", got)
	}
	drainAsync(t, kb)
	// Nothing shed: every activation materialized.
	if got := kb.asyncM.shed.Value(); got != 0 {
		t.Fatalf("shed counter = %d, want 0", got)
	}
	if got := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); got != backlog+1 {
		t.Fatalf("alerts = %d, want %d", got, backlog+1)
	}
}

func TestAsyncOrphanedRuleDiscarded(t *testing.T) { ForEachVariant(t, testAsyncOrphanedRuleDiscarded) }

func testAsyncOrphanedRuleDiscarded(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:Reading {v: 1})")
	if err := kb.DropRule("echo"); err != nil {
		t.Fatal(err)
	}
	kb.StopAsync()
	if err := kb.StartAsync(AsyncOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	drainAsync(t, kb)
	if kb.AsyncDepth() != 0 {
		t.Fatalf("queue depth = %d, want 0 (orphan discarded)", kb.AsyncDepth())
	}
	if got := kb.asyncM.orphaned.Value(); got != 1 {
		t.Fatalf("orphaned counter = %d, want 1", got)
	}
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != 0 {
		t.Fatalf("alerts = %d, want 0", n)
	}
}

func TestAsyncAlertCascades(t *testing.T) { ForEachVariant(t, testAsyncAlertCascades) }

func testAsyncAlertCascades(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	// A synchronous rule reacting to the async rule's Alert nodes: the
	// worker's follow-up transaction must cascade through Process.
	err := kb.InstallRule(trigger.Rule{
		Name:   "onAlert",
		Hub:    "H",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: "Alert"},
		Action: "CREATE (:Escalation {src: 'async'})",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.StartAsync(AsyncOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	exec(t, kb, "CREATE (:Reading {v: 1})")
	drainAsync(t, kb)
	if n := queryInt(t, kb, "MATCH (e:Escalation) RETURN count(e) AS n"); n != 1 {
		t.Fatalf("escalations = %d, want 1 (cascade from async alert)", n)
	}
}

func TestAsyncQueueInvisibleToRules(t *testing.T) {
	// A wildcard create/delete observer must not see PendingAlert
	// bookkeeping nodes — neither their creation in the triggering
	// transaction nor the worker's later deletion. Its guard never passes,
	// so GuardChecks counts exactly the occurrences dispatched to it.
	wildcardChecks := func(kb *KnowledgeBase) int64 {
		var total int64
		for _, info := range kb.Rules() {
			if info.Name == "seesCreates" || info.Name == "seesDeletes" {
				total += info.Stats.GuardChecks
			}
		}
		return total
	}
	installObservers := func(kb *KnowledgeBase) {
		for name, kind := range map[string]trigger.EventKind{
			"seesCreates": trigger.CreateNode,
			"seesDeletes": trigger.DeleteNode,
		} {
			if err := kb.InstallRule(trigger.Rule{
				Name:  name,
				Hub:   "H",
				Event: trigger.Event{Kind: kind},
				Guard: "1 = 2",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	kb, _ := newSimKB(t)
	installAsyncEcho(t, kb, "echo")
	installObservers(kb)
	if err := kb.StartAsync(AsyncOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	exec(t, kb, "CREATE (:Reading {v: 1})")
	drainAsync(t, kb)
	withPipeline := wildcardChecks(kb)

	ref, _ := newSimKB(t)
	installAsyncEcho(t, ref, "echo")
	installObservers(ref)
	exec(t, ref, "CREATE (:Reading {v: 1})") // sync fallback, no queue nodes
	if withoutPipeline := wildcardChecks(ref); withPipeline != withoutPipeline {
		t.Fatalf("wildcard rules saw queue bookkeeping: %d checks with pipeline, %d without",
			withPipeline, withoutPipeline)
	}
}

func TestAsyncBindingRoundTrip(t *testing.T) {
	in := trigger.Binding{
		"NEW":  value.Node(42),
		"KEY":  value.Str("temp"),
		"WHEN": value.DateTime(sim0),
		"OLD":  value.Map(map[string]value.Value{"v": value.Int(3)}),
	}
	enc, err := trigger.EncodeBinding(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := trigger.DecodeBinding(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost keys: %v", out)
	}
	if id, ok := out["NEW"].EntityID(); !ok || id != 42 {
		t.Fatalf("NEW = %v, want node 42", out["NEW"])
	}
	if dt, _ := out["WHEN"].AsDateTime(); !dt.Equal(sim0) {
		t.Fatalf("WHEN = %v, want %v", out["WHEN"], sim0)
	}
}

func TestAsyncConcurrentWritersExactlyOnce(t *testing.T) {
	ForEachVariant(t, testAsyncConcurrentWritersExactlyOnce)
}

func testAsyncConcurrentWritersExactlyOnce(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installAsyncEcho(t, kb, "echo")
	if err := kb.StartAsync(AsyncOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer kb.StopAsync()
	const writers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := kb.Execute(
					fmt.Sprintf("CREATE (:Reading {v: %d})", w*per+i), nil); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	drainAsync(t, kb)
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != writers*per {
		t.Fatalf("alerts = %d, want %d (exactly one per activation)", n, writers*per)
	}
}
