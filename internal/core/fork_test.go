package core

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
)

func TestForkIsolatesData(t *testing.T) {
	kb, _ := newSimKB(t)
	exec(t, kb, "CREATE (:Base {v: 1})")

	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fork sees the parent's data.
	if n := queryIntOn(t, fork, "MATCH (b:Base) RETURN count(b)"); n != 1 {
		t.Fatalf("fork base count = %d", n)
	}
	// Writes diverge in both directions.
	if _, err := fork.Execute("CREATE (:OnlyFork)", nil); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:OnlyParent)")
	if n := queryIntOn(t, kb, "MATCH (f:OnlyFork) RETURN count(f)"); n != 0 {
		t.Error("fork write leaked into parent")
	}
	if n := queryIntOn(t, fork, "MATCH (p:OnlyParent) RETURN count(p)"); n != 0 {
		t.Error("parent write leaked into fork")
	}
	// Mutating a shared node in the fork must not touch the parent.
	if _, err := fork.Execute("MATCH (b:Base) SET b.v = 99", nil); err != nil {
		t.Fatal(err)
	}
	res, _ := kb.Query("MATCH (b:Base) RETURN b.v", nil)
	if v, _ := res.Value(); !value.SameValue(v, value.Int(1)) {
		t.Error("fork property update leaked into parent")
	}
}

func queryIntOn(t *testing.T, kb *KnowledgeBase, q string) int64 {
	t.Helper()
	res, err := kb.Query(q, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	v, _ := res.Value()
	n, _ := v.AsInt()
	return n
}

func TestForkCopiesRulesIndependently(t *testing.T) {
	kb, _ := newSimKB(t)
	_ = kb.InstallRule(trigger.Rule{
		Name:  "watch",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "X"},
		Alert: "RETURN 1 AS one",
	})
	_ = kb.InstallRule(trigger.Rule{
		Name:  "sleeping",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Y"},
		Alert: "RETURN 1 AS one",
	})
	_ = kb.PauseRule("sleeping")

	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	infos := fork.Rules()
	if len(infos) != 2 {
		t.Fatalf("fork rules = %d", len(infos))
	}
	for _, info := range infos {
		if info.Name == "sleeping" && !info.Paused {
			t.Error("paused state not copied")
		}
	}
	// Rules diverge after the fork.
	if err := fork.DropRule("watch"); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Execute("CREATE (:X)", nil); err != nil {
		t.Fatal(err)
	}
	forkAlerts, _ := fork.Alerts()
	if len(forkAlerts) != 0 {
		t.Error("dropped rule fired in fork")
	}
	exec(t, kb, "CREATE (:X)")
	parentAlerts, _ := kb.Alerts()
	if len(parentAlerts) != 1 {
		t.Error("parent rule should still fire")
	}
}

func TestForkCopiesIndexesAndValidators(t *testing.T) {
	kb, _ := newSimKB(t)
	if _, err := kb.ApplySchema(`CREATE GRAPH TYPE T LOOSE {
		(rt: Region {name STRING}),
		FOR (x:rt) EXCLUSIVE MANDATORY SINGLETON x.name
	}`); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:Region {name: 'Lombardy'})")
	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The exclusive key still guards the fork.
	if _, err := fork.Execute("CREATE (:Region {name: 'Lombardy'})", nil); err == nil {
		t.Error("fork lost the exclusive-key validator")
	}
	// And the index answers fast counts in the fork.
	if n := queryIntOn(t, fork, "MATCH (r:Region {name: 'Lombardy'}) RETURN count(r)"); n != 1 {
		t.Errorf("fork indexed count = %d", n)
	}
}

func TestForkWithOwnClock(t *testing.T) {
	parentClock := periodic.NewManualClock(sim0)
	kb := New(Config{Clock: parentClock})
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	_ = kb.InstallRule(trigger.Rule{
		Name:  "c",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Case"},
		Alert: "RETURN 1 AS one",
	})
	exec(t, kb, "CREATE (:Case)")

	forkClock := periodic.NewManualClock(sim0)
	fork, err := kb.Fork(forkClock)
	if err != nil {
		t.Fatal(err)
	}
	// Advancing only the fork's clock rolls only the fork's summary.
	forkClock.Advance(25 * time.Hour)
	if err := fork.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Execute("CREATE (:Case)", nil); err != nil {
		t.Fatal(err)
	}
	forkMgr, _ := fork.Summaries()
	_ = fork.Store().View(func(tx *graph.Tx) error {
		if got := len(forkMgr.Chain(tx)); got != 2 {
			t.Errorf("fork chain = %d, want 2", got)
		}
		return nil
	})
	parentMgr, _ := kb.Summaries()
	_ = kb.Store().View(func(tx *graph.Tx) error {
		if got := len(parentMgr.Chain(tx)); got != 1 {
			t.Errorf("parent chain = %d, want 1", got)
		}
		return nil
	})
}

func TestForkDivergentStrategies(t *testing.T) {
	// The §V scenario: one stream, two reaction strategies, two evolutions.
	kb, _ := newSimKB(t)
	exec(t, kb, "CREATE (:Region {name: 'r', hub: 'R'})")

	strict, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = strict.InstallRule(trigger.Rule{
		Name:   "react",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: "Case"},
		Guard:  "NEW.count > 1",
		Action: "MATCH (r:Region) SET r.restricted = true",
	})
	_ = lenient.InstallRule(trigger.Rule{
		Name:   "react",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: "Case"},
		Guard:  "NEW.count > 100",
		Action: "MATCH (r:Region) SET r.restricted = true",
	})
	for _, f := range []*KnowledgeBase{strict, lenient} {
		if _, err := f.Execute("CREATE (:Case {count: 10})", nil); err != nil {
			t.Fatal(err)
		}
	}
	restricted := func(f *KnowledgeBase) bool {
		res, _ := f.Query("MATCH (r:Region) RETURN r.restricted = true", nil)
		v, _ := res.Value()
		b, _ := v.AsBool()
		return b
	}
	if !restricted(strict) {
		t.Error("strict fork should restrict")
	}
	if restricted(lenient) {
		t.Error("lenient fork should not restrict")
	}
	if restrictedParent := restricted(kb); restrictedParent {
		t.Error("parent must be untouched")
	}
}

func TestStoreCloneDeep(t *testing.T) {
	s := graph.NewStore()
	var a, b graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ = tx.CreateNode([]string{"A"}, map[string]value.Value{"v": value.Int(1)})
		b, _ = tx.CreateNode([]string{"B"}, nil)
		_, err := tx.CreateRel(a, b, "R", map[string]value.Value{"w": value.Int(2)})
		return err
	})
	c := s.Clone()
	// Structure matches.
	if c.Stats() != s.Stats() {
		t.Errorf("clone stats %+v != %+v", c.Stats(), s.Stats())
	}
	// New ids continue from the same counter (no collisions across forks
	// that are compared by content, and deterministic within each fork).
	_ = c.Update(func(tx *graph.Tx) error {
		id, _ := tx.CreateNode([]string{"C"}, nil)
		if id <= b {
			t.Errorf("cloned store id counter regressed: %d", id)
		}
		return nil
	})
	// Deleting in the clone leaves the original intact, including adjacency.
	_ = c.Update(func(tx *graph.Tx) error { return tx.DeleteNode(a, true) })
	_ = s.View(func(tx *graph.Tx) error {
		if !tx.NodeExists(a) || tx.Degree(a, graph.Both) != 1 {
			t.Error("original store mutated by clone delete")
		}
		return nil
	})
}
