package trigger

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/value"
)

// TestGuardFamiliesGenerated drives seeded random packs of family-shaped
// guards — every comparison operator, the literal on either side, literals
// of every scalar kind and null — over random transactions whose nodes carry
// the compared property as an integer, float, string or boolean, or not at
// all; NEW is NULL on deletions. The rules are AfterAsync with a recording
// sink, so nothing writes while they fire. For every (rule, event) the
// reference is CompiledExpr.EvalBool of the rule's own guard: the engine's
// activation multiset must equal the reference's.
func TestGuardFamiliesGenerated(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	lits := []string{"1", "2", "-1", "1.5", "2.0", "'a'", "'b'", "true", "false", "null"}
	vals := []value.Value{value.Int(1), value.Int(2), value.Float(1.5), value.Float(2),
		value.Str("a"), value.Str("b"), value.Bool(true), value.Bool(false)}
	keys := []string{"p", "q"}
	var evals, checks int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		props := func() map[string]value.Value {
			m := map[string]value.Value{}
			for _, k := range keys {
				if rng.Intn(len(vals)+1) < len(vals) {
					m[k] = vals[rng.Intn(len(vals))]
				}
			}
			return m
		}
		s := graph.NewStore()
		e := newTestEngine()
		got := map[string]int{}
		e.AsyncSink = func(_ *graph.Tx, item AsyncItem) (bool, error) {
			got[activationKey(item.Rule, item.Binding)]++
			return true, nil
		}
		var rules []Rule
		for i := 0; i < 30; i++ {
			ev := Event{Kind: []EventKind{CreateNode, DeleteNode, SetProperty}[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				ev.Label = "A"
			}
			path := "NEW." + keys[rng.Intn(len(keys))]
			if ev.Kind == DeleteNode && rng.Intn(2) == 0 {
				path = "OLD." + keys[rng.Intn(len(keys))]
			}
			lit, op := lits[rng.Intn(len(lits))], ops[rng.Intn(len(ops))]
			guard := path + " " + op + " " + lit
			if rng.Intn(2) == 0 {
				guard = lit + " " + op + " " + path
			}
			rules = append(rules, Rule{Name: fmt.Sprintf("r%d", i), Event: ev, Guard: guard, Phase: AfterAsync})
		}
		for _, r := range rules {
			if err := e.Install(r); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			tx := s.Begin(graph.ReadWrite)
			nodes := tx.AllNodes()
			for op := 0; op < 12; op++ {
				var err error
				switch k := rng.Intn(4); {
				case k < 2 || len(nodes) == 0:
					var ls []string
					if rng.Intn(2) == 0 {
						ls = []string{"A"}
					}
					var id graph.NodeID
					id, err = tx.CreateNode(ls, props())
					nodes = append(nodes, id)
				case k == 2:
					err = tx.SetNodeProp(nodes[rng.Intn(len(nodes))], keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))])
				default:
					err = tx.DeleteNode(nodes[rng.Intn(len(nodes))], true)
				}
				_ = err // operations on nodes deleted earlier in the transaction fail; that is fine
			}
			for k := range got {
				delete(got, k)
			}
			rep, err := e.Process(tx, tx.ResetData())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			evals, checks = evals+rep.GuardEvals, checks+rep.GuardChecks
			want := refGuardActivations(t, tx, tx.Data(), rules)
			if !reflect.DeepEqual(got, want) {
				for k, n := range want {
					if got[k] != n {
						t.Errorf("seed %d tx %d: %s fired %d times, reference says %d", seed, round, k, got[k], n)
					}
				}
				for k, n := range got {
					if _, ok := want[k]; !ok {
						t.Errorf("seed %d tx %d: %s fired %d times, reference says 0", seed, round, k, n)
					}
				}
				t.FailNow()
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Four families (NEW.p, NEW.q, OLD.p, OLD.q) among 30 rules. Every pass
	// clears the memo, but the checks between passes share one read.
	if evals >= checks {
		t.Fatalf("GuardEvals = %d of %d checks: the families are not shared", evals, checks)
	}
}

// refGuardActivations is the reference for TestGuardFamiliesGenerated: every
// rule against every node creation, deletion and property assignment of the
// record, with the rule's whole guard evaluated by CompiledExpr.EvalBool.
// Nothing wrote during Process, so the final state is the state the rules
// fired in.
func refGuardActivations(t *testing.T, tx *graph.Tx, data *graph.TxData, rules []Rule) map[string]int {
	t.Helper()
	out := map[string]int{}
	match := func(kind EventKind, labels []string, b Binding) {
		for _, r := range rules {
			if r.Event.Kind != kind || r.Event.Label != "" && !slices.Contains(labels, r.Event.Label) {
				continue
			}
			ce, err := cypher.PrepareExpr(r.Guard)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := ce.EvalBool(tx, &cypher.Options{Bindings: b, Now: func() time.Time { return fixedNow }})
			if err != nil {
				t.Fatalf("reference %s: %v", r.Guard, err)
			}
			if ok {
				out[activationKey(r.Name, b)]++
			}
		}
	}
	for _, id := range data.CreatedNodes {
		if ls, ok := tx.NodeLabels(id); ok {
			match(CreateNode, ls, Binding{"NEW": value.Node(int64(id))})
		}
	}
	for _, n := range data.DeletedNodes {
		match(DeleteNode, n.Labels, Binding{"NEW": value.Null, "OLD": value.Map(n.Props)})
	}
	for _, pc := range data.AssignedProps {
		if ls, ok := tx.NodeLabels(pc.Node); ok {
			match(SetProperty, ls, Binding{"NEW": value.Node(int64(pc.Node)), "KEY": value.Str(pc.Key),
				"OLDVALUE": pc.Old, "NEWVALUE": pc.New})
		}
	}
	return out
}

// A passing member's DO action rewrites the family's path; a later member
// in the same round must read the new value, not the one memoized before
// the pass.
func TestGuardFamilyRereadsAfterPass(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	for _, r := range []Rule{
		{Name: "rename", Event: Event{Kind: CreateNode, Label: "Txn"},
			Guard: "NEW.account = 'a1'", Action: "SET NEW.account = 'b1'"},
		{Name: "other", Event: Event{Kind: CreateNode, Label: "Txn"},
			Guard: "NEW.account = 'zz'"},
		{Name: "renamed", Event: Event{Kind: CreateNode, Label: "Txn"},
			Guard: "'b1' = NEW.account", Alert: "RETURN NEW.account AS account"},
	} {
		if err := e.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	rep := run(t, s, e, "CREATE (:Txn {account: 'a1'})")
	if n := count(t, s, "MATCH (a:Alert {rule: 'renamed', account: 'b1'}) RETURN count(a)"); n != 1 {
		t.Fatalf("renamed fired %d times, want 1 (report %+v)", n, rep)
	}
	// One read before the pass; one after it, which the last member shares.
	if rep.GuardChecks != 3 || rep.GuardEvals != 2 {
		t.Fatalf("GuardChecks = %d, GuardEvals = %d; want 3 and 2", rep.GuardChecks, rep.GuardEvals)
	}
}

// A pass that writes nothing keeps the memo: the first member's alert finds
// no rows, so the second member compares the value the first one read.
func TestGuardFamilyKeepsMemoWithoutWrite(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	for _, r := range []Rule{
		{Name: "quiet", Event: Event{Kind: CreateNode, Label: "Txn"},
			Guard: "NEW.account = 'a1'", Alert: "MATCH (m:Missing) RETURN m"},
		{Name: "loud", Event: Event{Kind: CreateNode, Label: "Txn"},
			Guard: "NEW.account <> 'zz'", Alert: "RETURN NEW.account AS account"},
	} {
		if err := e.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	rep := run(t, s, e, "CREATE (:Txn {account: 'a1'})")
	if rep.GuardPasses != 2 || rep.AlertNodes != 1 || rep.GuardEvals != 1 {
		t.Fatalf("GuardPasses = %d, AlertNodes = %d, GuardEvals = %d; want 2, 1 and 1",
			rep.GuardPasses, rep.AlertNodes, rep.GuardEvals)
	}
}

// When a family's path fails, the error names the first rule reached and
// reads exactly as that rule's whole guard would have failed.
func TestGuardFamilyErrorNamesFirstRule(t *testing.T) {
	guards := []string{"KEY.x = 1", "2 < KEY.x", "KEY.x <> 'a'"}
	for first := range guards {
		s := graph.NewStore()
		e := newTestEngine()
		for i := range guards {
			g := guards[(first+i)%len(guards)]
			if err := e.Install(Rule{Name: fmt.Sprintf("r%d", i), Event: Event{Kind: SetProperty}, Guard: g}); err != nil {
				t.Fatal(err)
			}
		}
		run(t, s, e, "CREATE (:N)")
		_, err := runErr(s, e, "MATCH (n:N) SET n.p = 1")
		if err == nil {
			t.Fatal("KEY.x on a property event: want an error")
		}
		ce, _ := cypher.PrepareExpr(guards[first])
		var refErr error
		_ = s.View(func(tx *graph.Tx) error {
			_, refErr = ce.EvalBool(tx, &cypher.Options{Bindings: Binding{"KEY": value.Str("p")}})
			return nil
		})
		if refErr == nil {
			t.Fatal("reference guard did not fail")
		}
		if want := "trigger: rule r0 guard: " + refErr.Error(); err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	}
}

// A round that reaches several buckets — the kind's wildcard, two labels of
// one node, composite steps spread over all three — fires in installation
// order, a composite rule's steps in step order, whatever order the buckets
// were reached in.
func TestGuardFamilyMultiBucketFiringOrder(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	var fired []string
	e.AsyncSink = func(_ *graph.Tx, item AsyncItem) (bool, error) {
		fired = append(fired, item.Rule)
		return true, nil
	}
	e.StepSink = func(_ *graph.Tx, item StepItem) error {
		fired = append(fired, stepName(item.Rule.Name, item.Step))
		return nil
	}
	rules := []Rule{
		{Name: "onB", Event: Event{Kind: CreateNode, Label: "B"}, Guard: "NEW.v = 1", Phase: AfterAsync},
		{Name: "comp", Composite: &Composite{Op: All, Window: time.Hour, Steps: []Step{
			{Event: Event{Kind: CreateNode, Label: "A"}, Guard: "NEW.v = 1"},
			{Event: Event{Kind: CreateNode}, Guard: "NEW.v <= 1"},
			{Event: Event{Kind: CreateNode, Label: "B"}},
		}}},
		{Name: "any", Event: Event{Kind: CreateNode}, Guard: "NEW.v >= 1", Phase: AfterAsync},
		{Name: "onA", Event: Event{Kind: CreateNode, Label: "A"}, Guard: "1 = NEW.v", Phase: AfterAsync},
	}
	for _, r := range rules {
		if err := e.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	rep := run(t, s, e, "CREATE (:A:B {v: 1})")
	want := []string{"onB", "cep:comp#0", "cep:comp#1", "cep:comp#2", "any", "onA"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %s, want %s", strings.Join(fired, " "), strings.Join(want, " "))
	}
	if rep.RulesConsidered != len(want) {
		t.Fatalf("RulesConsidered = %d, want %d", rep.RulesConsidered, len(want))
	}
}

// Writers on separate stores fire one engine while members of their guard
// family are installed and dropped: each Process reads one index snapshot and
// keeps its memo to itself, so every writer sees exactly its own rule fire.
func TestGuardFamiliesConcurrentInstall(t *testing.T) {
	e := newTestEngine()
	for i := 0; i < 4; i++ {
		if err := e.Install(Rule{Name: fmt.Sprintf("r%d", i), Event: Event{Kind: CreateNode, Label: "N"},
			Guard: fmt.Sprintf("NEW.v = %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("extra%d", k)
			if err := e.Install(Rule{Name: name, Event: Event{Kind: CreateNode, Label: "N"},
				Guard: fmt.Sprintf("%d < NEW.v", k%4), Action: "SET NEW.seen = true"}); err != nil {
				t.Error(err)
				return
			}
			if err := e.Drop(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stores := make([]*graph.Store, 4)
	var writers sync.WaitGroup
	for w := range stores {
		stores[w] = graph.NewStore()
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				if _, err := runErr(stores[w], e, fmt.Sprintf("CREATE (:N {v: %d})", w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	for w, s := range stores {
		q := fmt.Sprintf("MATCH (a:Alert {rule: 'r%d'}) RETURN count(a)", w)
		if n := count(t, s, q); n != iters {
			t.Errorf("store %d: r%d fired %d times, want %d", w, w, n, iters)
		}
		if n := count(t, s, "MATCH (a:Alert) RETURN count(a)"); n != iters {
			t.Errorf("store %d: %d alerts, want %d", w, n, iters)
		}
	}
}
