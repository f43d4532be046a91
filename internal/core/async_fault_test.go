package core_test

// Crash-recovery tests for the asynchronous alert pipeline: the process is
// "killed" (by copying the FsyncAlways log directory — exactly what a crash
// leaves) with pending queue entries at every stage of their life cycle —
// enqueued, mid-evaluation, alert-created-but-uncommitted, and fully
// processed — and after reopening, every staged activation must materialize
// exactly one Alert node: none lost, none duplicated. Every durable row of
// the constructor table runs every stage.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
)

const asyncFaultRule = "aecho"

// openAsyncKB opens row v's durable knowledge base and re-installs the
// AfterAsync rule (rules are configuration, re-installed on every open). The
// pipeline is NOT started; tests start it in the mode each stage needs.
func openAsyncKB(t *testing.T, v core.Variant, dir string) *core.KnowledgeBase {
	t.Helper()
	kb := v.Open(t, dir, core.Config{Clock: periodic.NewManualClock(simStart)})
	err := kb.InstallRule(trigger.Rule{
		Name:  asyncFaultRule,
		Hub:   "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Reading"},
		Alert: "RETURN NEW.v AS v",
		Phase: trigger.AfterAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

// stageEnqueued writes n Reading nodes with the pipeline in enqueue-only
// mode, freezing the durable queue at depth n.
func stageEnqueued(t *testing.T, kb *core.KnowledgeBase, n int) {
	t.Helper()
	if err := kb.StartAsync(core.AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		createReading(t, kb, i)
	}
	if d := kb.AsyncDepth(); d != n {
		t.Fatalf("queue depth = %d, want %d", d, n)
	}
}

func createReading(t *testing.T, kb *core.KnowledgeBase, i int) {
	t.Helper()
	if _, err := kb.Execute(fmt.Sprintf("CREATE (:Reading {v: %d})", i), nil); err != nil {
		t.Fatal(err)
	}
}

// queueStore is the store holding the staged queue.
func queueStore(kb *core.KnowledgeBase) *graph.Store { return kb.Store() }

// assertExactlyOnce reopens dir, drains the queue and asserts each of the n
// staged activations materialized exactly one alert.
func assertExactlyOnce(t *testing.T, v core.Variant, dir string, n int) {
	t.Helper()
	kb := openAsyncKB(t, v, dir)
	if err := kb.StartAsync(core.AsyncOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := kb.WaitAsyncIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := kb.AsyncDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for _, a := range alerts {
		if a.Rule != asyncFaultRule {
			t.Fatalf("unexpected alert from rule %q", a.Rule)
		}
		v, _ := a.Props["v"].AsInt()
		got[v]++
	}
	if len(alerts) != n {
		t.Fatalf("%d alerts after recovery, want %d: %v", len(alerts), n, got)
	}
	for i := 0; i < n; i++ {
		if got[int64(i)] != 1 {
			t.Fatalf("activation v=%d materialized %d times, want exactly 1", i, got[int64(i)])
		}
	}
}

// readPending returns the queued entries (id, rule, decoded binding) of kb.
func readPending(t *testing.T, kb *core.KnowledgeBase) []struct {
	id      graph.NodeID
	rule    string
	binding trigger.Binding
} {
	t.Helper()
	var out []struct {
		id      graph.NodeID
		rule    string
		binding trigger.Binding
	}
	err := queueStore(kb).View(func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel(core.PendingAlertLabel) {
			node, ok := tx.Node(id)
			if !ok {
				continue
			}
			rule, _ := node.Props["rule"].AsString()
			raw, _ := node.Props["binding"].AsString()
			bind, err := trigger.DecodeBinding(raw)
			if err != nil {
				return err
			}
			out = append(out, struct {
				id      graph.NodeID
				rule    string
				binding trigger.Binding
			}{id, rule, bind})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAsyncCrashWhileEnqueued(t *testing.T) {
	core.ForEachDurableVariant(t, func(t *testing.T, v core.Variant) {
		dir := v.Dir(t)
		kb := openAsyncKB(t, v, dir)
		stageEnqueued(t, kb, 3)
		// Crash with all three entries enqueued, none evaluated.
		assertExactlyOnce(t, v, copyDir(t, dir), 3)
	})
}

func TestAsyncCrashMidEvaluation(t *testing.T) {
	core.ForEachDurableVariant(t, func(t *testing.T, v core.Variant) {
		dir := v.Dir(t)
		kb := openAsyncKB(t, v, dir)
		stageEnqueued(t, kb, 3)
		crash := copyDir(t, dir)

		// Reopen and crash again mid-evaluation: a worker has run the alert
		// query against its pinned snapshot but not yet committed the
		// follow-up. Evaluation is read-only, so the durable image must be
		// unchanged — the entry must still be on the queue, neither lost nor
		// half-applied.
		kb2 := openAsyncKB(t, v, crash)
		pend := readPending(t, kb2)
		if len(pend) != 3 {
			t.Fatalf("%d pending after reopen, want 3", len(pend))
		}
		ro := queueStore(kb2).Begin(graph.ReadOnly)
		_, rows, err := kb2.Engine().EvaluateAsync(ro, pend[0].rule, pend[0].binding)
		ro.Rollback()
		if err != nil || len(rows) != 1 {
			t.Fatalf("mid-flight evaluation: rows=%d err=%v", len(rows), err)
		}
		assertExactlyOnce(t, v, copyDir(t, crash), 3)
	})
}

func TestAsyncCrashAlertCreatedUncommitted(t *testing.T) {
	core.ForEachDurableVariant(t, func(t *testing.T, v core.Variant) {
		dir := v.Dir(t)
		kb := openAsyncKB(t, v, dir)
		stageEnqueued(t, kb, 3)
		crash := copyDir(t, dir)

		// Reopen and replay a worker up to the brink of its commit: pending
		// entry deleted and alert node created inside the follow-up
		// transaction — then crash (rollback). Nothing may reach the log, so
		// recovery must still see the entry queued and deliver it exactly
		// once.
		kb2 := openAsyncKB(t, v, crash)
		pend := readPending(t, kb2)
		ro := queueStore(kb2).Begin(graph.ReadOnly)
		cols, rows, err := kb2.Engine().EvaluateAsync(ro, pend[0].rule, pend[0].binding)
		ro.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		wtx := queueStore(kb2).Begin(graph.ReadWrite)
		if err := wtx.DeleteNode(pend[0].id, true); err != nil {
			t.Fatal(err)
		}
		if _, err := kb2.Engine().MaterializeAsync(wtx, pend[0].rule, pend[0].binding, cols, rows); err != nil {
			t.Fatal(err)
		}
		wtx.Rollback() // the crash: follow-up transaction never commits

		assertExactlyOnce(t, v, copyDir(t, crash), 3)
	})
}

func TestAsyncCrashAfterProcessingNoDuplicates(t *testing.T) {
	core.ForEachDurableVariant(t, func(t *testing.T, v core.Variant) {
		dir := v.Dir(t)
		kb := openAsyncKB(t, v, dir)
		if err := kb.StartAsync(core.AsyncOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			createReading(t, kb, i)
		}
		if err := kb.WaitAsyncIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Crash after the follow-up transactions committed: recovery must not
		// re-evaluate anything (the queue is empty in the log).
		assertExactlyOnce(t, v, copyDir(t, dir), 3)
	})
}
