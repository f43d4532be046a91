package core

// Tests for the bookkeeping primitive (bookkeeping.go), once, over the
// constructor table, with the PendingAlert queue as the user; internal/cep
// runs the same contract for CEPPartial. The names carry "Async" so the
// repeated -race CI steps pick them up.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trigger"
)

// stageEntries starts an enqueue-only pipeline and stages n entries, one
// write each.
func stageEntries(t *testing.T, kb *KnowledgeBase, n int) {
	t.Helper()
	installAsyncEcho(t, kb, "echo")
	if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := kb.Execute(fmt.Sprintf("CREATE (:Reading {v: %d})", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := kb.AsyncDepth(); got != n {
		t.Fatalf("staged %d entries, want %d", got, n)
	}
}

func TestAsyncBookkeepingScanOrderAndTake(t *testing.T) {
	ForEachVariant(t, func(t *testing.T, v Variant) {
		kb, _ := v.OpenSim(t)
		n := 4 * v.Hubs
		stageEntries(t, kb, n)
		defer kb.StopAsync()

		seen := 0
		all := kb.pending.Scan(func(tx *graph.Tx, id graph.NodeID) bool {
			if !tx.NodeHasLabel(id, PendingAlertLabel) {
				t.Errorf("take was handed %d, which is no queue entry in its view", id)
			}
			seen++
			return true
		})
		if seen != n || len(all) != seen {
			t.Fatalf("scan visited %d and returned %d entries, want %d", seen, len(all), n)
		}
		if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
			t.Fatalf("scan order %v is not node-id ascending", all)
		}

		refuse := map[graph.NodeID]bool{all[0]: true, all[len(all)-1]: true}
		some := kb.pending.Scan(func(_ *graph.Tx, id graph.NodeID) bool { return !refuse[id] })
		if len(some) != len(all)-2 {
			t.Fatalf("scan returned %d entries with 2 refused, want %d", len(some), len(all)-2)
		}
		for _, id := range some {
			if refuse[id] {
				t.Fatalf("scan returned %d, which take refused", id)
			}
		}
	})
}

func TestAsyncBookkeepingRacingFollowUpsExactlyOnce(t *testing.T) {
	ForEachVariant(t, func(t *testing.T, v Variant) {
		kb, _ := v.OpenSim(t)
		n := 5 * v.Hubs
		stageEntries(t, kb, n)
		defer kb.StopAsync()
		entries := kb.readPending(func(graph.NodeID) bool { return true })

		// Two drains race over the same ready entries.
		var wg sync.WaitGroup
		won := make([]int, 2)
		errs := make([]error, 2)
		for g := range won {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, en := range entries {
					ok, err := kb.consumePending(en)
					if err != nil {
						errs[g] = err
					} else if ok {
						won[g]++
					}
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("drain %d: the loser must report not-consumed, not an error: %v", g, err)
			}
		}
		if won[0]+won[1] != n {
			t.Fatalf("drains consumed %d + %d entries, want %d in total", won[0], won[1], n)
		}
		if got := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); got != int64(n) {
			t.Fatalf("%d alerts after racing drains, want exactly %d", got, n)
		}
		if d := kb.AsyncDepth(); d != 0 {
			t.Fatalf("depth after drains = %d, want 0", d)
		}
		// A late follow-up on a consumed entry is a clean no-op.
		ran := false
		ok, err := kb.pending.FollowUp(entries[0].id, func(*graph.Tx) error { ran = true; return nil })
		if ok || err != nil || ran {
			t.Fatalf("follow-up on a consumed entry: consumed=%v err=%v ran=%v", ok, err, ran)
		}
	})
}

// TestAsyncBookkeepingDiscardIsRuleFreeButLogged uses a label that is NOT
// hidden, watched by a rule: only the rule-free write path can explain the
// rule staying silent.
func TestAsyncBookkeepingDiscardIsRuleFreeButLogged(t *testing.T) {
	ForEachVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		if err := kb.InstallRule(trigger.Rule{
			Name: "onDelete", Hub: "H",
			Event: trigger.Event{Kind: trigger.DeleteNode, Label: "Scratch"},
			Alert: "RETURN 1 AS one",
		}); err != nil {
			t.Fatal(err)
		}
		scratch := kb.Bookkeeping("Scratch")
		var ids []graph.NodeID
		for s := 0; s < v.Hubs; s++ {
			if err := scratch.Update(func(tx *graph.Tx) error {
				id, err := tx.CreateNode([]string{"Scratch"}, nil)
				ids = append(ids, id)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Control: the rule does see a delete that goes through the engine.
		consumed, err := scratch.FollowUp(ids[0], func(tx *graph.Tx) error { return tx.DeleteNode(ids[0], true) })
		if !consumed || err != nil {
			t.Fatalf("follow-up delete: consumed=%v err=%v", consumed, err)
		}
		if got := kb.Rules()[0].Stats; got.GuardChecks != 1 || got.AlertNodes != 1 {
			t.Fatalf("control: rule stats after a reactive delete = %+v, want 1 check and 1 alert", got)
		}
		for _, id := range ids[1:] {
			if err := scratch.Discard(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := scratch.Discard(ids[0]); err != nil {
			t.Fatalf("discard of an entry that is already gone: %v", err)
		}
		if got := kb.Rules()[0].Stats; got.GuardChecks != 1 || got.AlertNodes != 1 {
			t.Fatalf("rule stats after %d discards = %+v: a discard fired the rule", len(ids)-1, got)
		}
		if d := scratch.Depth(); d != 0 {
			t.Fatalf("depth after discards = %d, want 0", d)
		}
		if !v.Durable {
			return
		}
		// The discards are in the log: a reopen shows the entries gone.
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		kb2 := v.Open(t, dir, Config{})
		if b := kb2.Bookkeeping("Scratch"); b.Depth() != 0 || b.Recovered() != 0 {
			t.Fatalf("after reopen: depth %d, recovered %d, want 0 and 0", b.Depth(), b.Recovered())
		}
	})
}

func TestAsyncBookkeepingRecoveredAtStart(t *testing.T) {
	ForEachDurableVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		if got := kb.pending.Recovered(); got != 0 {
			t.Fatalf("fresh directory: recovered = %d, want 0", got)
		}
		stageEntries(t, kb, 3*v.Hubs)
		kb.StopAsync()
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		kb2 := v.Open(t, dir, Config{})
		if rec, d := kb2.pending.Recovered(), kb2.AsyncDepth(); rec != 3*v.Hubs || rec != d {
			t.Fatalf("after reopen: recovered %d, depth %d, want both %d", rec, d, 3*v.Hubs)
		}
	})
}

func TestAsyncBookkeepingDriverStopWaits(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	passes := 0
	d := Drive(0, func() {
		passes++
		close(started)
		<-release
	})
	d.Kick()
	<-started
	stopped := make(chan struct{})
	go func() { d.Stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the pass finished")
	}
	d.Stop() // a second stop is a no-op
	d.Kick() // and a kick after it starts nothing
	if passes != 1 {
		t.Fatalf("%d passes, want 1", passes)
	}
	var none *Driver
	none.Kick()
	none.Stop()

	// With an interval the driver also runs without kicks.
	ticks := make(chan struct{}, 1)
	td := Drive(time.Millisecond, func() {
		select {
		case ticks <- struct{}{}:
		default:
		}
	})
	defer td.Stop()
	select {
	case <-ticks:
	case <-time.After(5 * time.Second):
		t.Fatal("interval driver never ran a pass")
	}
}
