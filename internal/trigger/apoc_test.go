package trigger

import (
	"fmt"
	"strings"
	"testing"
)

// fig3Rule is the paper's R2 (Fig. 3), whose APOC translation is Fig. 7.
var fig3Rule = Rule{
	Name:  "R2",
	Hub:   "A",
	Event: Event{Kind: CreateNode, Label: "Sequence"},
	Guard: "NEW.variant IS NULL",
	Alert: `MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
	        WHERE u.variant IS NULL
	        WITH r.name AS region, count(u) AS counter
	        WHERE counter > 100
	        RETURN region, counter`,
}

// translateOne renders a single-event rule: one apoc.trigger.install call.
func translateOne(r Rule, dbName, phase string) (string, error) {
	out, err := TranslateAPOC(r, dbName, phase)
	if err != nil {
		return "", err
	}
	if len(out) != 1 {
		return "", fmt.Errorf("%d statements for single-event rule %s", len(out), r.Name)
	}
	return out[0], nil
}

func TestTranslateAPOCFig7Shape(t *testing.T) {
	out, err := translateOne(fig3Rule, "neo4j", "before")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"CALL apoc.trigger.install('neo4j', 'R2'",
		"UNWIND $createdNodes AS cNode",
		"apoc.do.when",
		"'Sequence' IN labels(NEW)",
		"NEW.variant IS NULL",
		"CREATE (:Alert {rule: 'R2', hub: 'A', dateTime: datetime(), region: region, counter: counter})",
		"{phase: 'before'}",
		"YIELD value RETURN *",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("translation missing %q:\n%s", want, out)
		}
	}
	// The original RETURN must have been replaced by WITH + CREATE.
	if strings.Count(strings.ToUpper(out), "RETURN REGION") > 0 {
		t.Errorf("alert RETURN should be rewritten:\n%s", out)
	}
}

func TestTranslateAPOCDefaults(t *testing.T) {
	out, err := translateOne(fig3Rule, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'neo4j'") || !strings.Contains(out, "{phase: 'before'}") {
		t.Errorf("defaults not applied:\n%s", out)
	}
}

func TestTranslateAPOCEventKinds(t *testing.T) {
	del := Rule{
		Name:  "onDelete",
		Hub:   "C",
		Event: Event{Kind: DeleteNode, Label: "Doc"},
		Alert: "RETURN 1 AS gone",
	}
	out, err := translateOne(del, "neo4j", "after")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$deletedNodes") || !strings.Contains(out, "{phase: 'after'}") {
		t.Errorf("delete translation:\n%s", out)
	}
	rel := Rule{
		Name:  "onLink",
		Event: Event{Kind: CreateRelationship, Label: "LINKS"},
		Alert: "RETURN 1 AS linked",
	}
	out, err = translateOne(rel, "neo4j", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$createdRelationships") || !strings.Contains(out, "type(NEW) = 'LINKS'") {
		t.Errorf("rel translation:\n%s", out)
	}
	// Guard-only rule translates to an unconditional alert node.
	guardOnly := Rule{
		Name:  "g",
		Hub:   "E",
		Event: Event{Kind: CreateNode, Label: "X"},
		Guard: "NEW.v > 1",
	}
	out, err = translateOne(guardOnly, "neo4j", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CREATE (:Alert {rule: 'g', hub: 'E', dateTime: datetime()})") {
		t.Errorf("guard-only translation:\n%s", out)
	}
}

func TestTranslateAPOCUnsupported(t *testing.T) {
	if _, err := translateOne(Rule{
		Name:  "p",
		Event: Event{Kind: SetProperty, PropKey: "x"},
		Alert: "RETURN 1 AS one",
	}, "", ""); err == nil {
		t.Error("property events are outside the Fig. 6 scheme")
	}
	if _, err := translateOne(Rule{
		Name:   "a",
		Event:  Event{Kind: CreateNode},
		Action: "CREATE (:X)",
	}, "", ""); err == nil {
		t.Error("action rules are not alert-node rules")
	}
	if _, err := translateOne(Rule{
		Name:  "bad",
		Event: Event{Kind: CreateNode},
		Alert: "MATCH (n) DELETE n", // no RETURN
	}, "", ""); err == nil {
		t.Error("alert without RETURN cannot be translated")
	}
}

func TestTranslateAllAPOC(t *testing.T) {
	e := newTestEngine()
	_ = e.Install(fig3Rule)
	_ = e.Install(Rule{
		Name:  "propRule",
		Event: Event{Kind: SetProperty, PropKey: "status"},
		Alert: "RETURN 1 AS one",
	})
	exp := e.TranslateAllAPOC("neo4j", "before")
	translated, skipped := exp.Triggers, exp.Skipped
	if len(translated) != 1 || len(skipped) != 1 {
		t.Fatalf("translated=%d skipped=%d", len(translated), len(skipped))
	}
	if !strings.Contains(skipped[0], "propRule") {
		t.Errorf("skip reason: %v", skipped)
	}
}

func TestTranslateAPOCRulePhase(t *testing.T) {
	// With no explicit phase argument, the rule's own phase decides the
	// APOC trigger phase: AfterAsync rules install as {phase: 'afterAsync'}.
	async := fig3Rule
	async.Phase = AfterAsync
	out, err := translateOne(async, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{phase: 'afterAsync'}") {
		t.Errorf("AfterAsync rule not translated to afterAsync phase:\n%s", out)
	}
	// An explicit phase argument still overrides.
	out, err = translateOne(async, "", "before")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{phase: 'before'}") {
		t.Errorf("explicit phase not honored:\n%s", out)
	}
}
