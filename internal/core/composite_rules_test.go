package core

// A composite rule is a rule of the one registry: one namespace, managed by
// name like any other, named by the analyses, left out of forks, and fired
// through per-step dispatch entries whose metric labels are cep:<rule>#<i>.
// The composite-event runtime (internal/cep) imports this package, so these
// tests stand in a StepSink that only counts.

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trigger"
)

// compositeKB returns a knowledge base whose engine accepts composite rules;
// the returned counter tracks the step activations handed to the sink.
func compositeKB(t *testing.T) (*KnowledgeBase, *int) {
	t.Helper()
	kb := New(Config{})
	steps := new(int)
	kb.Engine().StepSink = func(*graph.Tx, trigger.StepItem) error { *steps++; return nil }
	return kb, steps
}

// seqRule is the composite SEQUENCE(CREATE NODE <labels[0]>, …) WITHIN 5m.
func seqRule(name string, labels ...string) trigger.Rule {
	c := &trigger.Composite{Op: trigger.Sequence, Window: 5 * time.Minute}
	for _, l := range labels {
		c.Steps = append(c.Steps, trigger.Step{Event: trigger.Event{Kind: trigger.CreateNode, Label: l}})
	}
	return trigger.Rule{Name: name, Hub: "H", Composite: c}
}

func watchRule(name, label string) trigger.Rule {
	return trigger.Rule{Name: name, Hub: "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: label}, Alert: "RETURN 1 AS one"}
}

func ruleNames(kb *KnowledgeBase) []string {
	var names []string
	for _, info := range kb.Rules() {
		names = append(names, info.Name)
	}
	return names
}

// TestCompositeRulesShareTheRuleNamespace: before composite rules joined
// the engine's registry, every row failed — a name could be installed twice
// (and dropped the wrong one), a composite could not be paused or
// classified, and a step's internal name collided with a user rule's.
func TestCompositeRulesShareTheRuleNamespace(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, kb *KnowledgeBase, steps *int)
	}{
		{"one name, one rule", func(t *testing.T, kb *KnowledgeBase, _ *int) {
			if err := kb.InstallRule(watchRule("pair", "E0")); err != nil {
				t.Fatal(err)
			}
			if err := kb.InstallRule(seqRule("pair", "E0", "E1")); !errors.Is(err, trigger.ErrRuleExists) {
				t.Fatalf("composite over a rule's name = %v, want ErrRuleExists", err)
			}
			if err := kb.DropRule("pair"); err != nil {
				t.Fatal(err)
			}
			if names := ruleNames(kb); len(names) != 0 {
				t.Fatalf("after one drop, rules = %v", names)
			}
		}},
		{"pause, resume and classify a composite by name", func(t *testing.T, kb *KnowledgeBase, steps *int) {
			if err := kb.InstallRule(seqRule("solo", "E0")); err != nil {
				t.Fatal(err)
			}
			if _, err := kb.ClassifyRule("solo"); err != nil {
				t.Fatal(err)
			}
			if err := kb.PauseRule("solo"); err != nil {
				t.Fatal(err)
			}
			mustExec(t, kb, "CREATE (:E0)")
			if *steps != 0 {
				t.Fatalf("paused composite advanced %d step(s)", *steps)
			}
			if err := kb.ResumeRule("solo"); err != nil {
				t.Fatal(err)
			}
			mustExec(t, kb, "CREATE (:E0)")
			if *steps != 1 {
				t.Fatalf("resumed composite advanced %d step(s), want 1", *steps)
			}
		}},
		{"step names are not rule names", func(t *testing.T, kb *KnowledgeBase, _ *int) {
			if err := kb.InstallRule(watchRule("cep:later#0", "E0")); err != nil {
				t.Fatal(err)
			}
			if err := kb.InstallRule(seqRule("later", "E0", "E1")); err != nil {
				t.Fatalf("composite beside a rule named like its step: %v", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			kb, steps := compositeKB(t)
			c.run(t, kb, steps)
		})
	}
}

// TestCompositeRulesInTheAnalyses: Rules, CheckConfluence, TriggeringGraph
// and CheckTermination name the composite rule, never its steps, and use
// its step atoms' events for overlap and triggering.
func TestCompositeRulesInTheAnalyses(t *testing.T) {
	kb, _ := compositeKB(t)
	echo := trigger.Rule{Name: "echo", Hub: "H", Composite: &trigger.Composite{
		Op: trigger.Count, Threshold: 2, Window: time.Hour,
		Steps: []trigger.Step{{Event: trigger.Event{Kind: trigger.CreateNode, Label: "Alert"}}},
	}}
	for _, r := range []trigger.Rule{
		seqRule("pair", "E0", "E1"),
		{Name: "janitor", Hub: "H", Event: trigger.Event{Kind: trigger.CreateNode, Label: "E0"},
			Action: "MATCH (e:E0) DETACH DELETE e"},
		echo,
	} {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ruleNames(kb), []string{"pair", "janitor", "echo"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Rules() = %v, want %v", got, want)
	}
	var warns []string
	for _, w := range kb.CheckConfluence() {
		warns = append(warns, w.String())
	}
	if want := []string{"pair / janitor on CREATE NODE E0: deletes entities the other may read"}; !reflect.DeepEqual(warns, want) {
		t.Fatalf("CheckConfluence() = %q, want %q", warns, want)
	}
	edges := map[string]bool{}
	for _, e := range kb.TriggeringGraph() {
		edges[e.From+" -> "+e.To] = true
		if strings.HasPrefix(e.From, "cep:") || strings.HasPrefix(e.To, "cep:") {
			t.Errorf("triggering graph names a step: %+v", e)
		}
	}
	if !edges["pair -> echo"] || !edges["echo -> echo"] || len(edges) != 2 {
		t.Fatalf("triggering graph = %v, want pair -> echo and echo -> echo", edges)
	}
	if got := kb.CheckTermination(); !reflect.DeepEqual(got, [][]string{{"echo"}}) {
		t.Fatalf("CheckTermination() = %v, want [[echo]]", got)
	}
}

// TestCompositeRuleRefusedWithoutRuntime: an engine with no StepSink (no
// composite-event runtime, as on a follower or in a fork) refuses a
// composite rule with one typed error, and Fork leaves composite rules out.
func TestCompositeRuleRefusedWithoutRuntime(t *testing.T) {
	if err := New(Config{}).InstallRule(seqRule("pair", "E0", "E1")); !errors.Is(err, trigger.ErrNoStepSink) {
		t.Fatalf("Install without a StepSink = %v, want ErrNoStepSink", err)
	}
	kb, _ := compositeKB(t)
	for _, r := range []trigger.Rule{watchRule("plain", "E0"), seqRule("pair", "E0", "E1")} {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ruleNames(fork); !reflect.DeepEqual(got, []string{"plain"}) {
		t.Fatalf("fork rules = %v, want [plain]", got)
	}
}

// TestCompositeStepMetricLabels: per-rule firing counters and RuleStats
// count a composite rule's steps under their cep:<rule>#<i> labels, and the
// composite's RuleStats sum them.
func TestCompositeStepMetricLabels(t *testing.T) {
	kb, _ := compositeKB(t)
	r := seqRule("pair", "E0", "E1")
	r.Steps[1].Guard = "NEW.v > 1"
	if err := kb.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	mustExec(t, kb, "CREATE (:E0)")
	mustExec(t, kb, "CREATE (:E1 {v: 0})")
	reg := kb.Metrics()
	for _, c := range []struct {
		metric, label string
		want          float64
	}{
		{mRuleFired, "cep:pair#0", 1},
		{mRuleFired, "cep:pair#1", 0},
		{mGuardRejected, "cep:pair#1", 1},
	} {
		if got := counterValue(reg, c.metric, c.label); got != c.want {
			t.Errorf("%s{rule=%q} = %v, want %v", c.metric, c.label, got, c.want)
		}
	}
	if got := counterValue(reg, mRuleFired, "pair"); !math.IsNaN(got) {
		t.Errorf("%s{rule=\"pair\"} = %v, want no such series", mRuleFired, got)
	}
	if st := kb.Rules()[0].Stats; st.GuardChecks != 2 || st.Activations != 1 {
		t.Errorf("RuleStats = %+v, want 2 checks and 1 activation over the steps", st)
	}
}

// TestCompositeRulesListedByValue: a listed composite rule is a copy, so
// editing it leaves the installed term, which the automata read, alone.
func TestCompositeRulesListedByValue(t *testing.T) {
	kb, _ := compositeKB(t)
	if err := kb.InstallRule(seqRule("pair", "E0", "E1")); err != nil {
		t.Fatal(err)
	}
	info := kb.Rules()[0]
	info.Window, info.Steps[0].Event.Label = time.Second, "X"
	if c := kb.Engine().CompositeRule("pair"); c.Window != 5*time.Minute || c.Steps[0].Event.Label != "E0" {
		t.Fatalf("editing a listed rule changed the installed term: %+v", *c.Composite)
	}
}

func mustExec(t *testing.T, kb *KnowledgeBase, q string) {
	t.Helper()
	if _, err := kb.Execute(q, nil); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}
