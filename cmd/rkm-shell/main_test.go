package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	reactive "repro"
	"repro/internal/trigger"
)

func TestSplitStatements(t *testing.T) {
	src := `
	// a comment-only line
	CREATE (:A);

	CREATE (:B {p: 1})
	  SET b = 1;
	// trailing comment
	`
	stmts := splitStatements(src)
	if len(stmts) != 2 {
		t.Fatalf("statements = %d: %q", len(stmts), stmts)
	}
	if stmts[0] != "CREATE (:A)" {
		t.Errorf("first: %q", stmts[0])
	}
	if !strings.Contains(stmts[1], "SET b = 1") {
		t.Errorf("second: %q", stmts[1])
	}
	if got := splitStatements("// only comments\n;;\n"); len(got) != 0 {
		t.Errorf("comments only: %q", got)
	}
}

func TestMetaCommands(t *testing.T) {
	clock := reactive.NewManualClock(time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC))
	kb := reactive.New(reactive.Config{Clock: clock})
	_ = kb.DefineHub("H", "a hub", "Thing")
	_ = kb.InstallRule(reactive.Rule{
		Name:  "r",
		Hub:   "H",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Thing"},
		Alert: "RETURN 1 AS one",
	})
	if _, err := kb.Execute("CREATE (:Thing {hub: 'H'})", nil); err != nil {
		t.Fatal(err)
	}
	// Every meta command must keep the REPL alive; :quit must stop it.
	for _, cmd := range []string{":help", ":rules", ":alerts", ":stats", ":hubs", ":tick 1", ":explain rule r", ":explain rule nope", ":nonsense", ":save", ":load"} {
		if !meta(kb, clock, cmd) {
			t.Errorf("%s should keep the repl running", cmd)
		}
	}
	for _, cmd := range []string{":quit", ":q", ":exit"} {
		if meta(kb, clock, cmd) {
			t.Errorf("%s should stop the repl", cmd)
		}
	}
}

func TestMetaSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "graph.json")
	clock := reactive.NewManualClock(time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC))
	kb := reactive.New(reactive.Config{Clock: clock})
	if _, err := kb.Execute("CREATE (:Saved {v: 42})", nil); err != nil {
		t.Fatal(err)
	}
	if !meta(kb, clock, ":save "+file) {
		t.Fatal("save stopped the repl")
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("file not written: %v", err)
	}
	fresh := reactive.New(reactive.Config{Clock: clock})
	if !meta(fresh, clock, ":load "+file) {
		t.Fatal("load stopped the repl")
	}
	res, err := fresh.Query("MATCH (s:Saved) RETURN s.v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v.String() != "42" {
		t.Errorf("restored value: %s", v)
	}
}

func TestRunStatementPrintsErrorsWithoutPanic(t *testing.T) {
	kb := reactive.New(reactive.Config{})
	runStatement(kb, "BOGUS QUERY")          // must not panic
	runStatement(kb, "CREATE (:X)")          // write summary path
	runStatement(kb, "MATCH (x:X) RETURN x") // result table path
}

// TestCompositeStatementRefusedByName: the shell runs no composite-event
// runtime, so a composite declaration parses and is refused for that reason.
func TestCompositeStatementRefusedByName(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runStatement(reactive.New(reactive.Config{}),
		"CREATE TRIGGER pair\nWHEN SEQUENCE(CREATE NODE A, CREATE NODE B) WITHIN 5m")
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if !strings.Contains(string(out), trigger.ErrNoStepSink.Error()) {
		t.Fatalf("shell printed %q, want %q", out, trigger.ErrNoStepSink)
	}
}

func TestInitScriptWithTriggers(t *testing.T) {
	data, err := os.ReadFile("../../examples/scripts/monitor.rkm")
	if err != nil {
		t.Fatal(err)
	}
	clock := reactive.NewManualClock(time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC))
	kb := reactive.New(reactive.Config{Clock: clock})
	for _, stmt := range splitStatements(string(data)) {
		if reactive.IsTriggerStatement(stmt) {
			if _, err := kb.InstallRuleText(stmt); err != nil {
				t.Fatalf("trigger %q: %v", stmt, err)
			}
			continue
		}
		if _, err := kb.Execute(stmt, nil); err != nil {
			t.Fatalf("statement %q: %v", stmt, err)
		}
	}
	if got := len(kb.Rules()); got != 2 {
		t.Fatalf("rules = %d", got)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	// One high reading (37.2) + one offline transition.
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d: %+v", len(alerts), alerts)
	}
	byRule := map[string]int{}
	for _, a := range alerts {
		byRule[a.Rule]++
	}
	if byRule["highReading"] != 1 || byRule["stationOffline"] != 1 {
		t.Errorf("alerts by rule: %v", byRule)
	}
}
