package reactive_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	reactive "repro"
)

var start = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

// TestPublicAPIQuickstart exercises the documented quick-start flow through
// the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	kb := reactive.New(reactive.Config{Clock: reactive.NewManualClock(start)})
	if err := kb.DefineHub("A", "analysis hub", "Sequence", "Lab"); err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(reactive.Rule{
		Name:  "R2",
		Hub:   "A",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: `MATCH (u:Sequence) WHERE u.variant IS NULL
		        WITH count(u) AS unassigned WHERE unassigned > 2
		        RETURN unassigned`,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := kb.Execute("CREATE (:Sequence {id: $id, hub: 'A'})",
			reactive.Params(map[string]any{"id": fmt.Sprintf("S%d", i)})); err != nil {
			t.Fatal(err)
		}
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Rule != "R2" || alerts[0].Hub != "A" {
		t.Errorf("alert: %+v", alerts[0])
	}
	if v, ok := alerts[0].Props["unassigned"].AsInt(); !ok || v != 3 {
		t.Errorf("payload: %+v", alerts[0].Props)
	}
}

func TestPublicAPISchemaAndSummaries(t *testing.T) {
	clock := reactive.NewManualClock(start)
	kb := reactive.New(reactive.Config{Clock: clock})
	if _, err := kb.ApplySchema(`CREATE GRAPH TYPE T LOOSE {
		(ct: Case {severity STRING, hub STRING})
	}`); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(reactive.Rule{
		Name:  "severe",
		Hub:   "C",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Case"},
		Guard: "NEW.severity = 'high'",
		Alert: "RETURN NEW.severity AS severity",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Execute("CREATE (:Case {severity: 'high', hub: 'C'})", nil); err != nil {
		t.Fatal(err)
	}
	// Type violation aborts.
	if _, err := kb.Execute("CREATE (:Case {severity: 5, hub: 'C'})", nil); err == nil {
		t.Error("schema violation should abort")
	}
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Execute("CREATE (:Case {severity: 'high', hub: 'C'})", nil); err != nil {
		t.Fatal(err)
	}
	mgr, err := kb.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	err = kb.Store().View(func(tx *reactive.Tx) error {
		if got := len(mgr.Chain(tx)); got != 2 {
			t.Errorf("summary chain = %d", got)
		}
		avg, ok := mgr.MovingAverage(tx, 2, reactive.WindowFilter{Rule: "severe", Prop: "dateTime"})
		_ = avg
		_ = ok // dateTime is not numeric; just ensure the call is usable
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIValueHelpers(t *testing.T) {
	v := reactive.V(42)
	if n, ok := v.AsInt(); !ok || n != 42 {
		t.Error("V helper")
	}
	if reactive.Params(nil) != nil {
		t.Error("empty params should be nil")
	}
	p := reactive.Params(map[string]any{"s": "x", "f": 1.5})
	if len(p) != 2 {
		t.Error("params size")
	}
}

func TestPublicAPIClassificationConstants(t *testing.T) {
	kb := reactive.New(reactive.Config{})
	_ = kb.DefineHub("E", "experimental", "Mutation", "Effect")
	_ = kb.InstallRule(reactive.Rule{
		Name:  "R1",
		Hub:   "E",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Mutation"},
		Alert: "MATCH (NEW)-[:HasEffect]->(e:Effect) RETURN e",
	})
	cls, err := kb.ClassifyRule("R1")
	if err != nil {
		t.Fatal(err)
	}
	if cls.Scope != reactive.IntraHub || cls.State != reactive.SingleState {
		t.Errorf("classification: %+v", cls)
	}
	infos := kb.Rules()
	if len(infos) != 1 || infos[0].Name != "R1" {
		t.Error("Rules listing")
	}
}

func TestPublicAPIParseGraphType(t *testing.T) {
	g, err := reactive.ParseGraphType(`CREATE GRAPH TYPE X STRICT { (a: L {v INT}) }`)
	if err != nil || g.Name != "X" {
		t.Errorf("ParseGraphType: %v %v", g, err)
	}
}

func ExampleNew() {
	kb := reactive.New(reactive.Config{Clock: reactive.NewManualClock(start)})
	_ = kb.InstallRule(reactive.Rule{
		Name:  "hello",
		Hub:   "demo",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Fact"},
		Alert: "RETURN NEW.text AS text",
	})
	_, _ = kb.Execute("CREATE (:Fact {text: 'knowledge changed'})", nil)
	alerts, _ := kb.Alerts()
	fmt.Println(len(alerts), alerts[0].Props["text"])
	// Output: 1 "knowledge changed"
}

func TestPublicAPIExplainAndAPOC(t *testing.T) {
	kb := reactive.New(reactive.Config{})
	_ = kb.CreateIndex("Sequence", "id")
	plan, err := kb.ExplainQuery("MATCH (s:Sequence {id: 'x'}) RETURN s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "via index (Sequence.id)") {
		t.Errorf("plan:\n%s", plan)
	}
	if _, err := kb.ExplainQuery("NOT A QUERY"); err == nil {
		t.Error("bad query should fail to explain")
	}
	if _, err := kb.InstallRuleText(`CREATE TRIGGER t
AFTER CREATE OF NODE Sequence
ALERT RETURN NEW.id AS id`); err != nil {
		t.Fatal(err)
	}
	exp := kb.TranslateRulesAPOC("neo4j", "before")
	translated, skipped := exp.Triggers, exp.Skipped
	if len(translated) != 1 || len(skipped) != 0 {
		t.Errorf("apoc export: %d/%d", len(translated), len(skipped))
	}
	if !strings.Contains(translated[0], "apoc.trigger.install") {
		t.Errorf("translation:\n%s", translated[0])
	}
}

func TestPublicAPIFork(t *testing.T) {
	kb := reactive.New(reactive.Config{})
	if _, err := kb.Execute("CREATE (:Base)", nil); err != nil {
		t.Fatal(err)
	}
	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Execute("CREATE (:ForkOnly)", nil); err != nil {
		t.Fatal(err)
	}
	if kb.GraphStats().Nodes != 1 || fork.GraphStats().Nodes != 2 {
		t.Errorf("isolation: parent=%d fork=%d", kb.GraphStats().Nodes, fork.GraphStats().Nodes)
	}
}
