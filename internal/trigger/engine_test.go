package trigger

import (
	"errors"
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
	"repro/internal/metrics"
	"repro/internal/value"
)

var fixedNow = time.Date(2023, 4, 1, 12, 0, 0, 0, time.UTC)

// run executes a write statement and fires the engine, committing on
// success; it returns the engine's report.
func run(t *testing.T, s *graph.Store, e *Engine, query string) *Report {
	t.Helper()
	rep, err := runErr(s, e, query)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	return rep
}

func runErr(s *graph.Store, e *Engine, query string) (*Report, error) {
	tx := s.Begin(graph.ReadWrite)
	if _, err := cypher.Run(tx, query, nil); err != nil {
		tx.Rollback()
		return nil, err
	}
	data := tx.ResetData()
	rep, err := e.Process(tx, data)
	if err != nil {
		tx.Rollback()
		return rep, err
	}
	if err := tx.Commit(); err != nil {
		return rep, err
	}
	return rep, nil
}

func count(t *testing.T, s *graph.Store, query string) int64 {
	t.Helper()
	var n int64
	err := s.View(func(tx *graph.Tx) error {
		res, err := cypher.Run(tx, query, nil)
		if err != nil {
			return err
		}
		v, ok := res.Value()
		if !ok {
			return errors.New("expected single value")
		}
		n, _ = v.AsInt()
		return nil
	})
	if err != nil {
		t.Fatalf("count %q: %v", query, err)
	}
	return n
}

func newTestEngine() *Engine {
	e := NewEngine()
	e.Clock = func() time.Time { return fixedNow }
	return e
}

func TestSimpleCreateNodeRule(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	err := e.Install(Rule{
		Name:  "R0",
		Hub:   "E",
		Event: Event{Kind: CreateNode, Label: "Mutation"},
		Guard: "NEW.severity = 'high'",
		Alert: "RETURN NEW.id AS mutation",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, s, e, "CREATE (:Mutation {id: 'M1', severity: 'high'})")
	if rep.GuardChecks != 1 || rep.GuardPasses != 1 || rep.AlertNodes != 1 {
		t.Errorf("report: %+v", rep)
	}
	if n := count(t, s, "MATCH (a:Alert) RETURN count(a)"); n != 1 {
		t.Fatalf("alerts = %d", n)
	}
	// Alert node carries mandatory props + columns.
	_ = s.View(func(tx *graph.Tx) error {
		res, _ := cypher.Run(tx, "MATCH (a:Alert) RETURN a.rule, a.hub, a.dateTime, a.mutation", nil)
		r := res.Rows[0]
		if r[0].String() != `"R0"` || r[1].String() != `"E"` || r[3].String() != `"M1"` {
			t.Errorf("alert props: %v", r)
		}
		if ts, _ := r[2].AsDateTime(); !ts.Equal(fixedNow) {
			t.Error("dateTime should use engine clock")
		}
		return nil
	})
	// A non-matching event does not fire.
	rep = run(t, s, e, "CREATE (:Mutation {id: 'M2', severity: 'low'})")
	if rep.GuardPasses != 0 || rep.AlertNodes != 0 {
		t.Errorf("low severity fired: %+v", rep)
	}
	// A different label does not even check the guard.
	rep = run(t, s, e, "CREATE (:Sequence {id: 'S1'})")
	if rep.GuardChecks != 0 {
		t.Errorf("wrong label checked: %+v", rep)
	}
}

func TestGuardlessRule(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "All",
		Event: Event{Kind: CreateNode, Label: "X"},
		Alert: "RETURN 1 AS one",
	})
	rep := run(t, s, e, "CREATE (:X), (:X), (:Y)")
	if rep.AlertNodes != 2 {
		t.Errorf("alert nodes = %d, want 2 (one per created :X node)", rep.AlertNodes)
	}
}

func TestAlertRowsProduceMultipleAlertNodes(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.CreateNode([]string{"Region"},
				map[string]value.Value{"name": value.Str(string(rune('a' + i))), "critical": value.Bool(true)}); err != nil {
				return err
			}
		}
		return nil
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "PerRegion",
		Event: Event{Kind: CreateNode, Label: "Patient"},
		Alert: "MATCH (r:Region {critical: true}) RETURN r.name AS region",
	})
	rep := run(t, s, e, "CREATE (:Patient {id: 1})")
	if rep.AlertNodes != 3 {
		t.Errorf("alert nodes = %d, want 3", rep.AlertNodes)
	}
}

func TestEmptyAlertRowsMeansNotCritical(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "NeverCritical",
		Event: Event{Kind: CreateNode, Label: "X"},
		Alert: "MATCH (z:Zilch) RETURN z",
	})
	rep := run(t, s, e, "CREATE (:X)")
	if rep.AlertRuns != 1 || rep.AlertNodes != 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestDeleteNodeEventBindsOld(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Doc"}, map[string]value.Value{"title": value.Str("T")})
		return err
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "OnDelete",
		Event: Event{Kind: DeleteNode, Label: "Doc"},
		Guard: "OLD.title IS NOT NULL",
		Alert: "RETURN OLD.title AS title",
	})
	rep := run(t, s, e, "MATCH (d:Doc) DELETE d")
	if rep.AlertNodes != 1 {
		t.Fatalf("report: %+v", rep)
	}
	_ = s.View(func(tx *graph.Tx) error {
		res, _ := cypher.Run(tx, "MATCH (a:Alert) RETURN a.title", nil)
		if res.Rows[0][0].String() != `"T"` {
			t.Errorf("OLD binding: %v", res.Rows)
		}
		return nil
	})
}

func TestRelationshipEvents(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, _ = tx.CreateNode([]string{"A"}, nil)
		_, _ = tx.CreateNode([]string{"B"}, nil)
		return nil
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "OnLink",
		Event: Event{Kind: CreateRelationship, Label: "LINKS"},
		Alert: "RETURN type(NEW) AS t",
	})
	rep := run(t, s, e, "MATCH (a:A), (b:B) CREATE (a)-[:LINKS]->(b)")
	if rep.AlertNodes != 1 {
		t.Fatalf("create rel: %+v", rep)
	}
	_ = e.Install(Rule{
		Name:  "OnUnlink",
		Event: Event{Kind: DeleteRelationship, Label: "LINKS"},
		Guard: "OLDTYPE = 'LINKS'",
		Alert: "RETURN 1 AS gone",
	})
	rep = run(t, s, e, "MATCH ()-[r:LINKS]->() DELETE r")
	if rep.AlertNodes != 1 {
		t.Fatalf("delete rel: %+v", rep)
	}
}

func TestLabelAndPropertyEvents(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Case"}, map[string]value.Value{"status": value.Str("open")})
		return err
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "OnEscalate",
		Event: Event{Kind: SetLabel, Label: "Escalated"},
		Alert: "RETURN LABEL AS label",
	})
	_ = e.Install(Rule{
		Name:  "OnStatusChange",
		Event: Event{Kind: SetProperty, Label: "Case", PropKey: "status"},
		Guard: "OLDVALUE = 'open' AND NEWVALUE = 'closed'",
		Alert: "RETURN KEY AS k",
	})
	_ = e.Install(Rule{
		Name:  "OnStatusRemoved",
		Event: Event{Kind: RemoveProperty, PropKey: "status"},
		Alert: "RETURN 1 AS removed",
	})
	rep := run(t, s, e, "MATCH (c:Case) SET c:Escalated, c.status = 'closed'")
	if rep.AlertNodes != 2 {
		t.Fatalf("set events: %+v", rep)
	}
	rep = run(t, s, e, "MATCH (c:Case) REMOVE c.status")
	if rep.AlertNodes != 1 {
		t.Fatalf("remove property: %+v", rep)
	}
}

func TestCascadingRules(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	// Seed → Derived via action; a second rule watches Derived.
	_ = e.Install(Rule{
		Name:   "Derive",
		Event:  Event{Kind: CreateNode, Label: "Seed"},
		Action: "CREATE (:Derived {from: NEW.id})",
	})
	_ = e.Install(Rule{
		Name:  "WatchDerived",
		Event: Event{Kind: CreateNode, Label: "Derived"},
		Alert: "RETURN NEW.from AS origin",
	})
	rep := run(t, s, e, "CREATE (:Seed {id: 7})")
	if rep.Rounds < 2 {
		t.Errorf("expected cascade, rounds = %d", rep.Rounds)
	}
	if n := count(t, s, "MATCH (a:Alert) RETURN count(a)"); n != 1 {
		t.Errorf("alerts = %d", n)
	}
	if n := count(t, s, "MATCH (d:Derived {from: 7}) RETURN count(d)"); n != 1 {
		t.Errorf("derived nodes = %d", n)
	}
}

func TestCascadeDepthBound(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	// Self-perpetuating rule.
	_ = e.Install(Rule{
		Name:   "Loop",
		Event:  Event{Kind: CreateNode, Label: "Ping"},
		Action: "CREATE (:Ping)",
	})
	_, err := runErr(s, e, "CREATE (:Ping)")
	if !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("expected depth error, got %v", err)
	}
	// The failed transaction must leave nothing behind.
	if got := s.Stats().Nodes; got != 0 {
		t.Errorf("store has %d nodes after aborted cascade", got)
	}
}

// TestCascadeDepthBoundExact pins the bound to the round: a chain of k rules,
// each activating in the round after the previous one, commits at k =
// MaxCascadeDepth and fails at MaxCascadeDepth+1, leaving the store as it
// was before the statement.
func TestCascadeDepthBoundExact(t *testing.T) {
	// chain installs k rules: rule i fires on :Ci and creates :C(i+1), except
	// the last, whose alert finds nothing, so its round writes nothing.
	chain := func(k int) *Engine {
		e := newTestEngine()
		for i := 0; i < k; i++ {
			r := Rule{Name: fmt.Sprintf("link%d", i), Event: Event{Kind: CreateNode, Label: fmt.Sprintf("C%d", i)}}
			if i < k-1 {
				r.Action = fmt.Sprintf("CREATE (:C%d)", i+1)
			} else {
				r.Alert = "MATCH (n:Nothing) RETURN n"
			}
			if err := e.Install(r); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	s := graph.NewStore()
	run(t, s, newTestEngine(), "CREATE (:Seed)")
	rep := run(t, s, chain(MaxCascadeDepth), "CREATE (:C0)")
	if n := len(rep.Activations); rep.Rounds != MaxCascadeDepth || n != MaxCascadeDepth ||
		rep.Activations[n-1].Round != MaxCascadeDepth-1 {
		t.Fatalf("chain of %d: %d rounds, activations %+v; want one per round", MaxCascadeDepth, rep.Rounds, rep.Activations)
	}
	if got := s.Stats().Nodes; got != 1+MaxCascadeDepth {
		t.Fatalf("chain of %d committed %d nodes, want %d", MaxCascadeDepth, got, 1+MaxCascadeDepth)
	}

	s = graph.NewStore()
	run(t, s, newTestEngine(), "CREATE (:Seed)")
	if _, err := runErr(s, chain(MaxCascadeDepth+1), "CREATE (:C0)"); !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("chain of %d: err = %v, want ErrCascadeDepth", MaxCascadeDepth+1, err)
	}
	if st := s.Stats(); st.Nodes != 1 || st.Relationships != 0 {
		t.Fatalf("aborted cascade left %d nodes, %d rels; want only the seed", st.Nodes, st.Relationships)
	}
}

func TestStrictTerminationRejectsCycle(t *testing.T) {
	e := newTestEngine()
	e.StrictTermination = true
	if err := e.Install(Rule{
		Name:   "SelfLoop",
		Event:  Event{Kind: CreateNode, Label: "Ping"},
		Action: "CREATE (:Ping)",
	}); !errors.Is(err, ErrNonTerminating) {
		t.Errorf("self-triggering rule should be rejected: %v", err)
	}
	// Alert-node rules watching the alert label also cycle.
	if err := e.Install(Rule{
		Name:  "AlertWatcher",
		Event: Event{Kind: CreateNode, Label: "Alert"},
		Alert: "RETURN 1 AS x",
	}); !errors.Is(err, ErrNonTerminating) {
		t.Errorf("alert-on-alert should be rejected: %v", err)
	}
	// A benign rule passes.
	if err := e.Install(Rule{
		Name:  "Fine",
		Event: Event{Kind: CreateNode, Label: "Patient"},
		Alert: "RETURN 1 AS x",
	}); err != nil {
		t.Errorf("benign rule rejected: %v", err)
	}
}

func TestTerminationAnalysis(t *testing.T) {
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:   "AtoB",
		Event:  Event{Kind: CreateNode, Label: "A"},
		Action: "CREATE (:B)",
	})
	_ = e.Install(Rule{
		Name:   "BtoA",
		Event:  Event{Kind: CreateNode, Label: "B"},
		Action: "CREATE (:A)",
	})
	cycles := e.CheckTermination()
	if len(cycles) == 0 {
		t.Fatal("A→B→A cycle not detected")
	}
	edges := e.TriggeringGraph()
	if len(edges) != 2 {
		t.Errorf("triggering graph edges = %d, want 2 (%+v)", len(edges), edges)
	}
}

// TestTerminationSeesUnionBranches: a write inside a UNION branch of an
// action is part of the rule's footprint, so the cycle it closes is found.
func TestTerminationSeesUnionBranches(t *testing.T) {
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:   "AtoB",
		Event:  Event{Kind: CreateNode, Label: "A"},
		Action: "MATCH (a:A) RETURN 1 AS k UNION MATCH (x:X) CREATE (:B) RETURN 2 AS k",
	})
	_ = e.Install(Rule{
		Name:   "BtoA",
		Event:  Event{Kind: CreateNode, Label: "B"},
		Action: "CREATE (:A)",
	})
	if cycles := e.CheckTermination(); len(cycles) == 0 {
		t.Fatal("A→B→A cycle through a UNION branch not detected")
	}
}

// TestInstallRejectsBadFunctionCalls: a misspelled function or a wrong
// argument count in a guard, alert or action fails Install, before any
// event could reach it.
func TestInstallRejectsBadFunctionCalls(t *testing.T) {
	e := newTestEngine()
	ev := Event{Kind: CreateNode, Label: "P"}
	for _, r := range []Rule{
		{Name: "g", Event: ev, Guard: "nosuch(NEW.v) > 1"},
		{Name: "a", Event: ev, Alert: "MATCH (n:P) RETURN size(n, 1, 2)"},
		{Name: "d", Event: ev, Action: "MATCH (n:P) SET n.s = toupper()"},
	} {
		err := e.Install(r)
		var pe *cypher.Error
		if !errors.As(err, &pe) {
			t.Errorf("rule %s installed or failed without a position: %v", r.Name, err)
		}
	}
	if len(e.Rules()) != 0 {
		t.Errorf("rules installed: %+v", e.Rules())
	}
}

func TestPauseResumeDropList(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{Name: "P", Event: Event{Kind: CreateNode, Label: "X"}, Alert: "RETURN 1 AS x"})
	if err := e.Pause("P"); err != nil {
		t.Fatal(err)
	}
	rep := run(t, s, e, "CREATE (:X)")
	if rep.AlertNodes != 0 {
		t.Error("paused rule fired")
	}
	if err := e.Resume("P"); err != nil {
		t.Fatal(err)
	}
	rep = run(t, s, e, "CREATE (:X)")
	if rep.AlertNodes != 1 {
		t.Error("resumed rule did not fire")
	}
	infos := e.Rules()
	if len(infos) != 1 || infos[0].Name != "P" || infos[0].Paused {
		t.Errorf("rules: %+v", infos)
	}
	if err := e.Drop("P"); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("P"); !errors.Is(err, ErrRuleNotFound) {
		t.Error("double drop")
	}
	if err := e.Pause("P"); !errors.Is(err, ErrRuleNotFound) {
		t.Error("pause missing")
	}
}

func TestInstallErrors(t *testing.T) {
	e := newTestEngine()
	if err := e.Install(Rule{Name: "", Alert: "RETURN 1"}); err == nil {
		t.Error("nameless rule")
	}
	if err := e.Install(Rule{Name: "Empty", Event: Event{Kind: CreateNode}}); !errors.Is(err, ErrEmptyRule) {
		t.Error("empty rule")
	}
	if err := e.Install(Rule{Name: "BadGuard", Guard: "((", Event: Event{Kind: CreateNode}}); err == nil {
		t.Error("bad guard should fail to compile")
	}
	if err := e.Install(Rule{Name: "BadAlert", Alert: "MATCHX", Event: Event{Kind: CreateNode}}); err == nil {
		t.Error("bad alert should fail to compile")
	}
	_ = e.Install(Rule{Name: "Dup", Alert: "RETURN 1 AS x", Event: Event{Kind: CreateNode}})
	if err := e.Install(Rule{Name: "Dup", Alert: "RETURN 1 AS x", Event: Event{Kind: CreateNode}}); !errors.Is(err, ErrRuleExists) {
		t.Error("duplicate install")
	}
}

func TestActionReceivesAlertColumns(t *testing.T) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Region"}, map[string]value.Value{"name": value.Str("lom")})
		return err
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:   "Tag",
		Event:  Event{Kind: CreateNode, Label: "Patient"},
		Alert:  "MATCH (r:Region) RETURN r AS region, r.name AS rname",
		Action: "SET region.flagged = rname",
	})
	run(t, s, e, "CREATE (:Patient)")
	_ = s.View(func(tx *graph.Tx) error {
		res, _ := cypher.Run(tx, "MATCH (r:Region) RETURN r.flagged", nil)
		if res.Rows[0][0].String() != `"lom"` {
			t.Errorf("action binding: %v", res.Rows)
		}
		return nil
	})
}

func TestOnAlertHook(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	var hooked []graph.NodeID
	e.OnAlert = func(tx *graph.Tx, alert graph.NodeID) error {
		hooked = append(hooked, alert)
		return nil
	}
	_ = e.Install(Rule{Name: "H", Event: Event{Kind: CreateNode, Label: "X"}, Alert: "RETURN 1 AS x"})
	run(t, s, e, "CREATE (:X)")
	if len(hooked) != 1 {
		t.Errorf("hook calls = %d", len(hooked))
	}
}

func TestEntityColumnStoredAsID(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "Ent",
		Event: Event{Kind: CreateNode, Label: "X"},
		Alert: "RETURN NEW AS theNode",
	})
	run(t, s, e, "CREATE (:X)")
	_ = s.View(func(tx *graph.Tx) error {
		res, _ := cypher.Run(tx, "MATCH (a:Alert) RETURN a.theNode", nil)
		if res.Rows[0][0].Kind() != value.KindInt {
			t.Errorf("entity column should be stored as id, got %s", res.Rows[0][0].Kind())
		}
		return nil
	})
}

func TestClassification(t *testing.T) {
	e := newTestEngine()
	e.Resolver = func(label string) (string, bool) {
		switch label {
		case "Mutation", "Effect":
			return "E", true
		case "Sequence", "Lab":
			return "A", true
		case "Region":
			return "R", true
		}
		return "", false
	}
	// R1: intra-hub, single-state (mutation + effect, both hub E).
	_ = e.Install(Rule{
		Name:  "R1",
		Hub:   "E",
		Event: Event{Kind: CreateNode, Label: "Mutation"},
		Alert: "MATCH (NEW)-[:HasEffect]->(ef:Effect {level: 'critical'}) RETURN ef",
	})
	// R2: inter-hub (lab in A, region in R), single-state.
	_ = e.Install(Rule{
		Name:  "R2",
		Hub:   "A",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: `MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
		        WHERE u.variant IS NULL
		        WITH r, count(u) AS unassigned WHERE unassigned > 100
		        RETURN r.name AS region, unassigned`,
	})
	// R4-style: multi-state (touches Summary/Current).
	_ = e.Install(Rule{
		Name:  "R4",
		Hub:   "C",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Alert: `MATCH (a:Alert {rule: 'R5'})-[:has]-(:Summary)-[:next]-(:Current)
		        RETURN a.IcuPatients AS prev`,
	})
	c1, _ := e.ClassifyRule("R1")
	if c1.Scope != IntraHub || c1.State != SingleState {
		t.Errorf("R1: %+v", c1)
	}
	c2, _ := e.ClassifyRule("R2")
	if c2.Scope != InterHub || c2.State != SingleState {
		t.Errorf("R2: %+v", c2)
	}
	if len(c2.Hubs) != 2 {
		t.Errorf("R2 hubs: %v", c2.Hubs)
	}
	c4, _ := e.ClassifyRule("R4")
	if c4.State != MultiState {
		t.Errorf("R4: %+v", c4)
	}
	if _, err := e.ClassifyRule("nope"); !errors.Is(err, ErrRuleNotFound) {
		t.Error("classify missing rule")
	}
	// String renderings.
	if IntraHub.String() != "intra-hub" || InterHub.String() != "inter-hub" ||
		SingleState.String() != "single-state" || MultiState.String() != "multi-state" {
		t.Error("enum strings")
	}
	if !strings.Contains(Event{Kind: SetProperty, Label: "Case", PropKey: "s"}.String(), "Case.s") {
		t.Error("event string")
	}
}

func TestValidatorSeesMergedChanges(t *testing.T) {
	s := graph.NewStore()
	// A validator that rejects any transaction creating more than 2 nodes
	// must also see nodes created by cascaded rules.
	boom := errors.New("too many")
	s.AddValidator(func(tx *graph.Tx) error {
		if len(tx.Data().CreatedNodes) > 2 {
			return boom
		}
		return nil
	})
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:   "Fanout",
		Event:  Event{Kind: CreateNode, Label: "Seed"},
		Action: "CREATE (:Leaf), (:Leaf)",
	})
	_, err := runErr(s, e, "CREATE (:Seed)")
	if !errors.Is(err, boom) {
		t.Fatalf("validator should see rule-created nodes: %v", err)
	}
	if s.Stats().Nodes != 0 {
		t.Error("aborted transaction left nodes behind")
	}
}

func TestPerRuleStats(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "counted",
		Event: Event{Kind: CreateNode, Label: "X"},
		Guard: "NEW.fire = true",
		Alert: "RETURN 1 AS one",
	})
	run(t, s, e, "CREATE (:X {fire: true}), (:X {fire: false}), (:X {fire: true})")
	infos := e.Rules()
	if len(infos) != 1 {
		t.Fatal("rules")
	}
	st := infos[0].Stats
	if st.GuardChecks != 3 || st.Activations != 2 || st.AlertNodes != 2 {
		t.Errorf("stats: %+v", st)
	}
	run(t, s, e, "CREATE (:X {fire: true})")
	st = e.Rules()[0].Stats
	if st.GuardChecks != 4 || st.AlertNodes != 3 {
		t.Errorf("stats accumulate: %+v", st)
	}
}

func TestEnforceIntraHubGuards(t *testing.T) {
	e := newTestEngine()
	e.EnforceIntraHubGuards = true
	e.Resolver = func(label string) (string, bool) {
		switch label {
		case "Sequence", "Lab":
			return "A", true
		case "Region":
			return "R", true
		}
		return "", false
	}
	// A guard staying inside the rule's hub installs fine.
	if err := e.Install(Rule{
		Name:  "local",
		Hub:   "A",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL AND (NEW)-[:SequencedAt]->(:Lab)",
		Alert: "RETURN 1 AS x",
	}); err != nil {
		t.Fatalf("intra-hub guard rejected: %v", err)
	}
	// A guard traversing into another hub is rejected.
	if err := e.Install(Rule{
		Name:  "leaky",
		Hub:   "A",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Guard: "(NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(:Region)",
		Alert: "RETURN 1 AS x",
	}); !errors.Is(err, ErrGuardNotIntraHub) {
		t.Fatalf("cross-hub guard accepted: %v", err)
	}
	// Unresolvable labels stay permitted (conservative).
	if err := e.Install(Rule{
		Name:  "unknownLabel",
		Hub:   "A",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Guard: "(NEW)-[:X]->(:SomethingElse)",
		Alert: "RETURN 1 AS x",
	}); err != nil {
		t.Fatalf("unresolvable label rejected: %v", err)
	}
	// The ALERT may reach anywhere — only guards are constrained.
	if err := e.Install(Rule{
		Name:  "globalAlert",
		Hub:   "A",
		Event: Event{Kind: CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: "MATCH (:Lab)-[:LocatedIn]->(r:Region) RETURN r.name AS region",
	}); err != nil {
		t.Fatalf("inter-hub alert rejected: %v", err)
	}
}

func BenchmarkGuardEvaluation(b *testing.B) {
	s := graph.NewStore()
	e := NewEngine()
	_ = e.Install(Rule{
		Name:  "bench",
		Event: Event{Kind: CreateNode, Label: "P"},
		Guard: "NEW.v > 10 AND NEW.kind = 'x'",
		Alert: "RETURN NEW.v AS v",
	})
	tx := s.Begin(graph.ReadWrite)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cypher.Run(tx, "CREATE (:P {v: 5, kind: 'x'})", nil); err != nil {
			b.Fatal(err)
		}
		data := tx.ResetData()
		if _, err := e.Process(tx, data); err != nil {
			b.Fatal(err)
		}
		// Process restores the merged change record for commit validators;
		// drain it so the next iteration only sees its own event.
		tx.ResetData()
	}
}

func BenchmarkAlertNodeProduction(b *testing.B) {
	s := graph.NewStore()
	e := NewEngine()
	_ = e.Install(Rule{
		Name:  "bench",
		Event: Event{Kind: CreateNode, Label: "P"},
		Alert: "RETURN NEW.v AS v",
	})
	tx := s.Begin(graph.ReadWrite)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cypher.Run(tx, "CREATE (:P {v: 5})", nil); err != nil {
			b.Fatal(err)
		}
		data := tx.ResetData()
		if _, err := e.Process(tx, data); err != nil {
			b.Fatal(err)
		}
		tx.ResetData()
	}
}

// Pausing a rule while another goroutine is processing events must be safe:
// the paused flag is read by Process without holding the engine lock, so it
// is atomic. Run with -race to exercise the guarantee this test documents.
func TestPauseRaceWithProcess(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "flip",
		Event: Event{Kind: CreateNode, Label: "P"},
		Alert: "RETURN 1 AS one",
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Pause("flip")
				_ = e.Resume("flip")
			}
		}
	}()
	for i := 0; i < 200; i++ {
		run(t, s, e, "CREATE (:P)")
	}
	close(stop)
	wg.Wait()
	// Every Process saw the rule either paused or active — never torn.
	fired := count(t, s, "MATCH (a:Alert) RETURN count(a) AS n")
	if fired < 0 || fired > 200 {
		t.Fatalf("alerts = %d, want within [0, 200]", fired)
	}
}

// The dispatch index must hand Process only the rules whose event kind and
// label can match the transaction, not the whole rule list.
func TestDispatchIndexSkipsIrrelevantRules(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	for i := 0; i < 100; i++ {
		_ = e.Install(Rule{
			Name:  fmt.Sprintf("other%d", i),
			Event: Event{Kind: CreateNode, Label: fmt.Sprintf("L%d", i)},
			Alert: "RETURN 1 AS one",
		})
	}
	// Row-less alert queries keep the graph free of Alert nodes, so no
	// cascade rounds muddy the dispatch counts.
	_ = e.Install(Rule{
		Name:  "hit",
		Event: Event{Kind: CreateNode, Label: "Hit"},
		Guard: "true = true",
		Alert: "MATCH (z:Zilch) RETURN z",
	})
	rep := run(t, s, e, "CREATE (:Hit)")
	if rep.RulesConsidered != 1 {
		t.Fatalf("RulesConsidered = %d, want 1 (100 irrelevant rules skipped)", rep.RulesConsidered)
	}
	if rep.GuardChecks != 1 || rep.GuardPasses != 1 {
		t.Fatalf("report = %+v, want the hit rule to fire once", rep)
	}

	// A label-less rule is a wildcard: considered for every event of its kind.
	_ = e.Install(Rule{
		Name:  "wild",
		Event: Event{Kind: CreateNode},
		Alert: "MATCH (z:Zilch) RETURN z",
	})
	rep = run(t, s, e, "CREATE (:Hit)")
	if rep.RulesConsidered != 2 {
		t.Fatalf("RulesConsidered = %d, want 2 (hit + wildcard)", rep.RulesConsidered)
	}

	// Deleting an indexed-away label still dispatches to its delete rules.
	rep = run(t, s, e, "MATCH (h:Hit) DELETE h")
	if rep.RulesConsidered != 0 {
		t.Fatalf("RulesConsidered = %d on delete, want 0", rep.RulesConsidered)
	}
}

// Candidates activated under several labels of one node are deduplicated.
func TestDispatchIndexDedupsMultiLabelMatches(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "wild",
		Event: Event{Kind: CreateNode},
		Alert: "MATCH (z:Zilch) RETURN z",
	})
	_ = e.Install(Rule{
		Name:  "labelled",
		Event: Event{Kind: CreateNode, Label: "A"},
		Alert: "MATCH (z:Zilch) RETURN z",
	})
	rep := run(t, s, e, "CREATE (:A:B)")
	if rep.RulesConsidered != 2 {
		t.Fatalf("RulesConsidered = %d, want 2 (no duplicates)", rep.RulesConsidered)
	}
	// Each rule's guard ran once; a duplicated candidate would double-check.
	if rep.GuardChecks != 2 {
		t.Fatalf("GuardChecks = %d, want 2", rep.GuardChecks)
	}
}

// Dropping a rule and re-installing it under the same name resets its
// RuleStats (the compiled rule is new) but keeps accumulating into the same
// registry counters (Prometheus counters are cumulative by design).
func TestDropReinstallStatsSemantics(t *testing.T) {
	s := graph.NewStore()
	reg := metrics.NewRegistry()
	e := newTestEngine()
	e.Metrics = EngineMetrics{
		RuleFired:     reg.CounterVec("fired", "rule", "test"),
		GuardRejected: reg.CounterVec("rejected", "rule", "test"),
	}
	install := func() {
		if err := e.Install(Rule{
			Name:  "cycle",
			Event: Event{Kind: CreateNode, Label: "X"},
			Alert: "RETURN 1 AS one",
		}); err != nil {
			t.Fatal(err)
		}
	}
	install()
	run(t, s, e, "CREATE (:X)")
	run(t, s, e, "CREATE (:X)")
	if st := e.Rules()[0].Stats; st.Activations != 2 {
		t.Fatalf("activations before drop = %d, want 2", st.Activations)
	}
	if err := e.Drop("cycle"); err != nil {
		t.Fatal(err)
	}
	install()
	run(t, s, e, "CREATE (:X)")
	if st := e.Rules()[0].Stats; st.Activations != 1 {
		t.Fatalf("RuleStats after reinstall = %d activations, want 1 (reset)", st.Activations)
	}
	if got := reg.CounterVec("fired", "rule", "test").With("cycle").Value(); got != 3 {
		t.Fatalf("registry counter after reinstall = %d, want 3 (cumulative)", got)
	}
}

// An AfterAsync rule without a sink — or whose sink reports the pipeline is
// not running — evaluates synchronously, exactly like a Before rule.
func TestAsyncPhaseSyncFallback(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	_ = e.Install(Rule{
		Name:  "deferred",
		Event: Event{Kind: CreateNode, Label: "P"},
		Alert: "RETURN NEW.v AS v",
		Phase: AfterAsync,
	})

	// No sink installed at all.
	rep := run(t, s, e, "CREATE (:P {v: 1})")
	if rep.AsyncEnqueued != 0 || rep.AlertNodes != 1 {
		t.Fatalf("no-sink report = %+v, want synchronous alert", rep)
	}

	// Sink present but answering "pipeline not running".
	e.AsyncSink = func(tx *graph.Tx, item AsyncItem) (bool, error) {
		return false, ErrAsyncFallback
	}
	rep = run(t, s, e, "CREATE (:P {v: 2})")
	if rep.AsyncEnqueued != 0 || rep.AlertNodes != 1 {
		t.Fatalf("fallback report = %+v, want synchronous alert", rep)
	}
}

// A live sink receives the activation instead of the engine evaluating it.
func TestAsyncPhaseEnqueuesToSink(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	var got []AsyncItem
	e.AsyncSink = func(tx *graph.Tx, item AsyncItem) (bool, error) {
		got = append(got, item)
		return true, nil
	}
	_ = e.Install(Rule{
		Name:  "deferred",
		Hub:   "H",
		Event: Event{Kind: CreateNode, Label: "P"},
		Guard: "NEW.v > 10",
		Alert: "RETURN NEW.v AS v",
		Phase: AfterAsync,
	})
	rep := run(t, s, e, "CREATE (:P {v: 5}), (:P {v: 50})")
	if rep.AsyncEnqueued != 1 || rep.AlertNodes != 0 {
		t.Fatalf("report = %+v, want one enqueue and no synchronous alerts", rep)
	}
	if len(got) != 1 || got[0].Rule != "deferred" || got[0].Hub != "H" {
		t.Fatalf("sink received %+v", got)
	}
	// The binding carries the guard's NEW context for later evaluation.
	if _, ok := got[0].Binding["NEW"]; !ok {
		t.Fatalf("sink binding = %v, want NEW bound", got[0].Binding)
	}
}

func BenchmarkDispatchManyIrrelevantRules(b *testing.B) {
	s := graph.NewStore()
	e := NewEngine()
	for i := 0; i < 200; i++ {
		_ = e.Install(Rule{
			Name:  fmt.Sprintf("other%d", i),
			Event: Event{Kind: CreateNode, Label: fmt.Sprintf("L%d", i)},
			Guard: "NEW.v > 10",
			Alert: "RETURN NEW.v AS v",
		})
	}
	_ = e.Install(Rule{
		Name:  "hot",
		Event: Event{Kind: CreateNode, Label: "P"},
		Guard: "NEW.v > 10",
		Alert: "RETURN NEW.v AS v",
	})
	tx := s.Begin(graph.ReadWrite)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cypher.Run(tx, "CREATE (:P {v: 5})", nil); err != nil {
			b.Fatal(err)
		}
		data := tx.ResetData()
		rep, err := e.Process(tx, data)
		if err != nil {
			b.Fatal(err)
		}
		if rep.RulesConsidered != 1 {
			b.Fatalf("RulesConsidered = %d", rep.RulesConsidered)
		}
		tx.ResetData()
	}
}

// alertTrace lists the store's alert nodes in creation order as "rule:src",
// src being the column the test rules return (the activating node's id
// property).
func alertTrace(t *testing.T, s *graph.Store) []string {
	t.Helper()
	var out []string
	err := s.View(func(tx *graph.Tx) error {
		res, err := cypher.Run(tx, "MATCH (a:Alert) RETURN a.rule, a.src ORDER BY id(a)", nil)
		if err != nil {
			return err
		}
		for _, r := range res.Rows {
			rule, _ := r[0].AsString()
			out = append(out, fmt.Sprintf("%s:%s", rule, r[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProcessSameRoundVisibility pins what a rule sees of a round whose
// earlier rules already wrote: an event reaches a rule when the entity
// carried the selecting label at round start and still exists and carries it
// when the rule fires; rules fire in installation order, each over its
// events in change-record order; SkipLabels entities reach no rule.
func TestProcessSameRoundVisibility(t *testing.T) {
	// Alert nodes have no id property, so this guard keeps wildcard rules
	// from cascading on the alerts the round produces.
	const real = "NEW.id IS NOT NULL"
	const src = "RETURN NEW.id AS src"
	hiddenRules := func() []Rule {
		var out []Rule
		for _, k := range []EventKind{CreateNode, DeleteNode, SetLabel, RemoveLabel, SetProperty, RemoveProperty} {
			out = append(out, Rule{Name: "any-" + k.String(), Event: Event{Kind: k}, Alert: "RETURN 1 AS src"})
		}
		return out
	}
	cases := []struct {
		name   string
		skip   string // a SkipLabels entry
		rules  []Rule // installed in this order
		paused string
		seed   string // committed without the engine before query runs
		query  string
		want   []string // alert trace after query
		check  func(t *testing.T, rep *Report, data *graph.TxData)
	}{
		{
			name: "earlier rule deletes the node",
			rules: []Rule{
				{Name: "kill", Event: Event{Kind: CreateNode, Label: "X"}, Action: "DETACH DELETE NEW"},
				{Name: "late", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
				{Name: "wild", Event: Event{Kind: CreateNode}, Guard: real, Alert: src},
			},
			query: "CREATE (:X {id: 1})",
			check: func(t *testing.T, rep *Report, _ *graph.TxData) {
				if rep.GuardChecks != 1 {
					t.Errorf("GuardChecks = %d, want 1 (only kill saw the node)", rep.GuardChecks)
				}
			},
		},
		{
			name: "earlier rule removes the selecting label; a wildcard still fires",
			rules: []Rule{
				{Name: "strip", Event: Event{Kind: CreateNode, Label: "X"}, Action: "REMOVE NEW:X"},
				{Name: "late", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
				{Name: "lateProp", Event: Event{Kind: SetProperty, Label: "X"}, Alert: src},
				{Name: "wild", Event: Event{Kind: CreateNode}, Guard: real, Alert: src},
			},
			query: "CREATE (n:X {id: 1}) SET n.v = 2",
			want:  []string{"wild:1"},
		},
		{
			name: "earlier rule adds a label: seen as SET LABEL next round, not as CREATE NODE",
			rules: []Rule{
				{Name: "add", Event: Event{Kind: CreateNode, Label: "X"}, Action: "SET NEW:Y"},
				{Name: "createY", Event: Event{Kind: CreateNode, Label: "Y"}, Alert: src},
				{Name: "setY", Event: Event{Kind: SetLabel, Label: "Y"}, Alert: src},
			},
			query: "CREATE (:X {id: 1})",
			want:  []string{"setY:1"},
			check: func(t *testing.T, rep *Report, _ *graph.TxData) {
				if len(rep.Activations) != 2 || rep.Activations[1].Rule != "setY" || rep.Activations[1].Round != 1 {
					t.Errorf("activations = %+v, want add in round 0 then setY in round 1", rep.Activations)
				}
			},
		},
		{
			name: "rule-major installation order, change-record order within a rule",
			rules: []Rule{
				{Name: "r1", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
				{Name: "r2", Event: Event{Kind: CreateNode}, Guard: real, Alert: src},
				{Name: "r3", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
			},
			query: "CREATE (:X {id: 1}), (:Z {id: 2}), (:X:Z {id: 3})",
			want:  []string{"r1:1", "r1:3", "r2:1", "r2:2", "r2:3", "r3:1", "r3:3"},
		},
		{
			name: "paused rule is skipped",
			rules: []Rule{
				{Name: "off", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
				{Name: "on", Event: Event{Kind: CreateNode, Label: "X"}, Alert: src},
			},
			paused: "off",
			query:  "CREATE (:X {id: 1})",
			want:   []string{"on:1"},
		},
		{
			name:  "hidden node: create reaches no rule",
			skip:  "Hidden",
			rules: hiddenRules(),
			query: "CREATE (:Hidden:X {id: 1})",
			check: func(t *testing.T, _ *Report, data *graph.TxData) {
				if len(data.CreatedNodes) != 1 {
					t.Errorf("tx.Data() after Process = %+v, want the hidden create kept", data)
				}
			},
		},
		{
			name:  "hidden node: property and label changes reach no rule",
			skip:  "Hidden",
			rules: hiddenRules(),
			seed:  "CREATE (:Hidden:X {id: 1, w: 1})",
			query: "MATCH (h:Hidden) SET h.v = 2, h:Extra REMOVE h.w, h:X",
			check: func(t *testing.T, _ *Report, data *graph.TxData) {
				if len(data.AssignedProps) != 1 || len(data.RemovedProps) != 1 ||
					len(data.AssignedLabels) != 1 || len(data.RemovedLabels) != 1 {
					t.Errorf("tx.Data() after Process = %+v, want the hidden changes kept", data)
				}
			},
		},
		{
			name:  "hidden node: delete reaches no rule",
			skip:  "Hidden",
			rules: hiddenRules(),
			seed:  "CREATE (:Hidden:X {id: 1})",
			query: "MATCH (h:Hidden) DELETE h",
			check: func(t *testing.T, _ *Report, data *graph.TxData) {
				if len(data.DeletedNodes) != 1 {
					t.Errorf("tx.Data() after Process = %+v, want the hidden delete kept", data)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := graph.NewStore()
			e := newTestEngine()
			if c.skip != "" {
				e.SkipLabels[c.skip] = true
			}
			for _, r := range c.rules {
				if err := e.Install(r); err != nil {
					t.Fatal(err)
				}
			}
			if c.paused != "" {
				if err := e.Pause(c.paused); err != nil {
					t.Fatal(err)
				}
			}
			if c.seed != "" {
				run(t, s, NewEngine(), c.seed)
			}
			tx := s.Begin(graph.ReadWrite)
			defer tx.Rollback()
			if _, err := cypher.Run(tx, c.query, nil); err != nil {
				t.Fatal(err)
			}
			rep, err := e.Process(tx, tx.ResetData())
			if err != nil {
				t.Fatal(err)
			}
			data := tx.Data()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if c.skip != "" && (rep.GuardChecks != 0 || rep.RulesConsidered != 0) {
				t.Errorf("hidden entity reached a rule: %+v", rep)
			}
			if got := alertTrace(t, s); strings.Join(got, " ") != strings.Join(c.want, " ") {
				t.Errorf("alert trace = %v, want %v", got, c.want)
			}
			if c.check != nil {
				c.check(t, rep, data)
			}
		})
	}
}

// TestEventsGeneratedAgainstReference drives seeded random transactions —
// all eight change kinds, multi-label nodes, relationships, hidden labels —
// through rules with random selectors and compares the engine's activation
// multiset with refActivations, a brute-force matcher that tests every rule
// against every change. Two leading rules write mid-round (one deletes the
// nodes it sees, one strips their label), so a rule fired without rechecking
// the entity shows up as an extra activation.
func TestEventsGeneratedAgainstReference(t *testing.T) {
	labels := []string{"A", "B", "Doomed", "Fickle", "Hidden"}
	types := []string{"R", "S"}
	keys := []string{"p", "q"}
	kindsList := []EventKind{CreateNode, DeleteNode, CreateRelationship, DeleteRelationship,
		SetLabel, RemoveLabel, SetProperty, RemoveProperty}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
		maybe := func(pool []string) string {
			if rng.Intn(3) == 0 {
				return ""
			}
			return pick(pool)
		}
		s := graph.NewStore()
		e := newTestEngine()
		e.SkipLabels["Hidden"] = true
		got := map[string]int{}
		e.AsyncSink = func(_ *graph.Tx, item AsyncItem) (bool, error) {
			got[activationKey(item.Rule, item.Binding)]++
			return true, nil
		}
		rules := []Rule{
			{Name: "reap", Event: Event{Kind: CreateNode, Label: "Doomed"}, Action: "DETACH DELETE NEW"},
			{Name: "strip", Event: Event{Kind: CreateNode, Label: "Fickle"}, Action: "REMOVE NEW:Fickle"},
		}
		for i := 0; i < 24; i++ {
			ev := Event{Kind: kindsList[rng.Intn(len(kindsList))]}
			switch ev.Kind {
			case CreateRelationship, DeleteRelationship:
				ev.Label = maybe(types)
			case SetProperty, RemoveProperty:
				ev.Label, ev.PropKey = maybe(append(labels[:len(labels):len(labels)], types...)), maybe(keys)
			default:
				ev.Label = maybe(labels)
			}
			rules = append(rules, Rule{Name: fmt.Sprintf("r%d", i), Event: ev, Guard: "true", Phase: AfterAsync})
		}
		for _, r := range rules {
			if err := e.Install(r); err != nil {
				t.Fatal(err)
			}
		}

		// Two transactions: the first populates, the second also mutates and
		// deletes what the first committed.
		uid := 0
		for round := 0; round < 2; round++ {
			tx := s.Begin(graph.ReadWrite)
			nodes, rels := tx.AllNodes(), tx.AllRels()
			for op := 0; op < 40; op++ {
				var err error
				switch k := rng.Intn(9); {
				case k < 2 || len(nodes) == 0:
					var ls []string
					for _, l := range labels {
						if rng.Intn(4) == 0 {
							ls = append(ls, l)
						}
					}
					uid++
					var id graph.NodeID
					id, err = tx.CreateNode(ls, map[string]value.Value{"uid": value.Int(int64(uid))})
					nodes = append(nodes, id)
				case k == 2:
					uid++
					var id graph.RelID
					id, err = tx.CreateRel(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))],
						pick(types), map[string]value.Value{"uid": value.Int(int64(uid))})
					if err == nil {
						rels = append(rels, id)
					}
				case k == 3:
					err = tx.SetLabel(nodes[rng.Intn(len(nodes))], pick(labels))
				case k == 4:
					err = tx.RemoveLabel(nodes[rng.Intn(len(nodes))], pick(labels))
				case k == 5:
					err = tx.SetNodeProp(nodes[rng.Intn(len(nodes))], pick(keys), value.Int(int64(op)))
				case k == 6:
					err = tx.RemoveNodeProp(nodes[rng.Intn(len(nodes))], pick(keys))
				case k == 7 && len(rels) > 0:
					if id := rels[rng.Intn(len(rels))]; rng.Intn(3) == 0 {
						err = tx.DeleteRel(id)
					} else if rng.Intn(2) == 0 {
						err = tx.SetRelProp(id, pick(keys), value.Int(int64(op)))
					} else {
						err = tx.RemoveRelProp(id, pick(keys))
					}
				case k == 8:
					err = tx.DeleteNode(nodes[rng.Intn(len(nodes))], true)
				}
				_ = err // operations on entities deleted earlier in the transaction fail; that is fine
			}
			for k := range got {
				delete(got, k)
			}
			if _, err := e.Process(tx, tx.ResetData()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want := refActivations(tx, tx.Data(), e.SkipLabels, rules[2:])
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
}

// activationKey identifies one activation: rule, entity (a live reference,
// or a deleted snapshot's uid), property key and label.
func activationKey(rule string, b Binding) string {
	ent := "old:" + b["OLD"].String()
	if id, ok := b["NEW"].EntityID(); ok {
		ent = fmt.Sprintf("%s:%d", b["NEW"].Kind(), id)
	} else if m, ok := b["OLD"].AsMap(); ok {
		ent = "old:" + m["uid"].String()
	}
	return fmt.Sprintf("%s %s key=%s label=%s", rule, ent, b["KEY"], b["LABEL"])
}

// refActivations is the reference matcher: for every rule and every change
// of the transaction's complete record, does the selector match? It runs
// after Process against the final state, which for the rules behind the two
// mid-round writers is the state they fired in; those writers only delete
// and strip, so carrying a label now implies carrying it at round start.
func refActivations(tx *graph.Tx, data *graph.TxData, skip map[string]bool, rules []Rule) map[string]int {
	out := map[string]int{}
	match := func(kind EventKind, on []string, hiddenBy []string, key string, b Binding) {
		for _, l := range hiddenBy {
			if skip[l] {
				return
			}
		}
		for _, r := range rules {
			ev := r.Event
			if ev.Kind == kind && (ev.Label == "" || slices.Contains(on, ev.Label)) &&
				(ev.PropKey == "" || ev.PropKey == key) {
				out[activationKey(r.Name, b)]++
			}
		}
	}
	for _, id := range data.CreatedNodes {
		if ls, ok := tx.NodeLabels(id); ok {
			match(CreateNode, ls, ls, "", Binding{"NEW": value.Node(int64(id))})
		}
	}
	for _, n := range data.DeletedNodes {
		match(DeleteNode, n.Labels, n.Labels, "", Binding{"OLD": value.Map(n.Props)})
	}
	for _, id := range data.CreatedRels {
		if typ, _, _, ok := tx.RelEndpoints(id); ok {
			match(CreateRelationship, []string{typ}, nil, "", Binding{"NEW": value.Relationship(int64(id))})
		}
	}
	for _, r := range data.DeletedRels {
		match(DeleteRelationship, []string{r.Type}, nil, "", Binding{"OLD": value.Map(r.Props)})
	}
	label := func(kind EventKind, changes []graph.LabelChange) {
		for _, lc := range changes {
			if ls, ok := tx.NodeLabels(lc.Node); ok {
				match(kind, []string{lc.Label}, ls, "",
					Binding{"NEW": value.Node(int64(lc.Node)), "LABEL": value.Str(lc.Label)})
			}
		}
	}
	label(SetLabel, data.AssignedLabels)
	label(RemoveLabel, data.RemovedLabels)
	prop := func(kind EventKind, changes []graph.PropChange) {
		for _, pc := range changes {
			b := Binding{"KEY": value.Str(pc.Key)}
			if ls, ok := tx.NodeLabels(pc.Node); pc.Kind == graph.NodeEntity && ok {
				b["NEW"] = value.Node(int64(pc.Node))
				match(kind, ls, ls, pc.Key, b)
			} else if typ, _, _, ok := tx.RelEndpoints(pc.Rel); pc.Kind == graph.RelEntity && ok {
				b["NEW"] = value.Relationship(int64(pc.Rel))
				match(kind, []string{typ}, nil, pc.Key, b)
			}
		}
	}
	prop(SetProperty, data.AssignedProps)
	prop(RemoveProperty, data.RemovedProps)
	return out
}
