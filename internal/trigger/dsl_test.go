package trigger

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestParseRuleFull(t *testing.T) {
	sequence := Event{Kind: CreateNode, Label: "Sequence"}
	cases := []struct {
		name string
		src  string
		want Rule
	}{
		{
			name: "guard and multi-line alert",
			src: `CREATE TRIGGER R2 ON HUB A
AFTER CREATE OF NODE Sequence
WHEN NEW.variant IS NULL
ALERT
  MATCH (u:Sequence) WHERE u.variant IS NULL
  WITH count(u) AS unassigned WHERE unassigned > 2
  RETURN unassigned`,
			want: Rule{Name: "R2", Hub: "A", Event: sequence, Guard: "NEW.variant IS NULL",
				Alert: "MATCH (u:Sequence) WHERE u.variant IS NULL\n  WITH count(u) AS unassigned WHERE unassigned > 2\n  RETURN unassigned"},
		},
		{
			// A WHEN that opens a line inside CASE … END is Cypher, not the
			// guard section.
			name: "CASE and WHEN broken across lines in the alert",
			src: `CREATE TRIGGER t ON HUB A
AFTER CREATE OF NODE Sequence
ALERT
  MATCH (u:Sequence) RETURN CASE
    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state`,
			want: Rule{Name: "t", Hub: "A", Event: sequence,
				Alert: "MATCH (u:Sequence) RETURN CASE\n    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state"},
		},
		{
			name: "the same beside a real WHEN section",
			src: `CREATE TRIGGER t ON HUB A
AFTER CREATE OF NODE Sequence
WHEN NEW.lab IS NOT NULL
ALERT
  MATCH (u:Sequence) RETURN CASE
    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state
DO
  CREATE (:Note {text: 'AFTER
WHEN ALERT', state: [
    state]})`,
			want: Rule{Name: "t", Hub: "A", Event: sequence, Guard: "NEW.lab IS NOT NULL",
				Alert:  "MATCH (u:Sequence) RETURN CASE\n    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state",
				Action: "CREATE (:Note {text: 'AFTER\nWHEN ALERT', state: [\n    state]})"},
		},
		{
			// An apostrophe in a comment opens no quote.
			name: "line comment in the guard",
			src: `CREATE TRIGGER t ON HUB A
AFTER CREATE OF NODE Sequence
WHEN NEW.v > 3 // don't fire on small ones
ALERT MATCH (u:Sequence) RETURN count(u) AS n`,
			want: Rule{Name: "t", Hub: "A", Event: sequence, Guard: "NEW.v > 3 // don't fire on small ones",
				Alert: "MATCH (u:Sequence) RETURN count(u) AS n"},
		},
		{
			name: "section keyword inside a block comment",
			src: `CREATE TRIGGER t ON HUB A
AFTER CREATE OF NODE Sequence
WHEN NEW.v > 3 /* it's
ALERT here is prose */
ALERT MATCH (u:Sequence) RETURN count(u) AS n`,
			want: Rule{Name: "t", Hub: "A", Event: sequence, Guard: "NEW.v > 3 /* it's\nALERT here is prose */",
				Alert: "MATCH (u:Sequence) RETURN count(u) AS n"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := ParseRule(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if r != c.want {
				t.Errorf("parsed %+v\nwant   %+v", r, c.want)
			}
		})
	}
}

func TestParseRuleEventForms(t *testing.T) {
	cases := []struct {
		clause string
		want   Event
	}{
		{"AFTER CREATE OF NODE Patient", Event{Kind: CreateNode, Label: "Patient"}},
		{"AFTER CREATE OF NODE", Event{Kind: CreateNode}},
		{"AFTER CREATE OF NODE Case", Event{Kind: CreateNode, Label: "Case"}}, // a label, not a CASE hiding the WHEN
		{"AFTER DELETE OF NODE Doc", Event{Kind: DeleteNode, Label: "Doc"}},
		{"AFTER CREATE OF RELATIONSHIP LINKS", Event{Kind: CreateRelationship, Label: "LINKS"}},
		{"AFTER DELETE OF EDGE LINKS", Event{Kind: DeleteRelationship, Label: "LINKS"}},
		{"AFTER SET OF LABEL Escalated", Event{Kind: SetLabel, Label: "Escalated"}},
		{"AFTER REMOVE OF LABEL Escalated", Event{Kind: RemoveLabel, Label: "Escalated"}},
		{"AFTER SET OF PROPERTY Case.status", Event{Kind: SetProperty, Label: "Case", PropKey: "status"}},
		{"AFTER SET OF PROPERTY status", Event{Kind: SetProperty, PropKey: "status"}},
		{"AFTER REMOVE OF PROPERTY Case.status", Event{Kind: RemoveProperty, Label: "Case", PropKey: "status"}},
	}
	for _, c := range cases {
		r, err := ParseRule("CREATE TRIGGER T\n" + c.clause + "\nWHEN true")
		if err != nil {
			t.Errorf("%s: %v", c.clause, err)
			continue
		}
		if r.Event != c.want {
			t.Errorf("%s: got %+v, want %+v", c.clause, r.Event, c.want)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"",
		"CREATE RULE x\nAFTER CREATE OF NODE\nWHEN true",
		"CREATE TRIGGER\nAFTER CREATE OF NODE\nWHEN true",
		"CREATE TRIGGER x EXTRA\nAFTER CREATE OF NODE\nWHEN true",
		"CREATE TRIGGER x",                                   // no event
		"CREATE TRIGGER x\nAFTER CREATE OF NODE",             // no body
		"CREATE TRIGGER x\nAFTER EXPLODE OF NODE\nWHEN true", // bad verb
		"CREATE TRIGGER x\nAFTER CREATE NODE\nWHEN true",     // missing OF
		"CREATE TRIGGER x\nAFTER SET OF LABEL\nWHEN true",    // label required
		"CREATE TRIGGER x\nAFTER CREATE OF NODE A B\nWHEN true",
		"CREATE TRIGGER x\nAFTER CREATE OF NODE\nWHEN true\nWHEN false",
		// A WHEN inside CASE … END is no section, so the two real ones clash.
		"CREATE TRIGGER x\nAFTER CREATE OF NODE\nWHEN CASE\nWHEN true THEN 1 END = 1\nWHEN false",
		// An open quote or CASE swallows what follows.
		"CREATE TRIGGER x\nAFTER CREATE OF NODE\nALERT RETURN 1 AS one\nWHEN 'x",
		"CREATE TRIGGER x\nAFTER CREATE OF NODE\nWHEN CASE WHEN true THEN true\nALERT RETURN 1 AS one",
	}
	for _, src := range bad {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) should fail", src)
		}
	}
}

// TestParseRuleErrorOffsets pins the error contract: parse errors name the
// offending clause and its byte offset within the declaration source.
func TestParseRuleErrorOffsets(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		msg    string // substring the error must contain
		off    int    // expected byte offset
		clause string // expected quoted clause (collapsed)
	}{
		{
			name:   "bad header",
			src:    "CREATE RULE x\nAFTER CREATE OF NODE\nWHEN true",
			msg:    "expected CREATE TRIGGER <name>",
			off:    0,
			clause: "CREATE RULE x",
		},
		{
			name:   "header junk",
			src:    "CREATE TRIGGER x EXTRA\nAFTER CREATE OF NODE\nWHEN true",
			msg:    `unexpected "EXTRA" after trigger header`,
			off:    0,
			clause: "CREATE TRIGGER x EXTRA",
		},
		{
			name:   "missing OF",
			src:    "CREATE TRIGGER x\nAFTER CREATE NODE\nWHEN true",
			msg:    "expected OF after CREATE",
			off:    17, // start of the AFTER line
			clause: "AFTER CREATE NODE",
		},
		{
			name:   "bad verb",
			src:    "CREATE TRIGGER x\nAFTER EXPLODE OF NODE\nWHEN true",
			msg:    "unsupported event EXPLODE OF NODE",
			off:    17,
			clause: "AFTER EXPLODE OF NODE",
		},
		{
			name:   "event junk",
			src:    "CREATE TRIGGER x\nAFTER CREATE OF NODE A B\nWHEN true",
			msg:    `unexpected "B" in event clause`,
			off:    17,
			clause: "AFTER CREATE OF NODE A B",
		},
		{
			name:   "label needs name",
			src:    "CREATE TRIGGER x\n  AFTER SET OF LABEL\nWHEN true",
			msg:    "SET/REMOVE OF LABEL needs a label name",
			off:    19, // indentation is not part of the clause
			clause: "AFTER SET OF LABEL",
		},
		{
			name:   "duplicate section",
			src:    "CREATE TRIGGER x\nAFTER CREATE OF NODE\nWHEN true\nWHEN false",
			msg:    "duplicate WHEN section",
			off:    48, // start of the second WHEN line
			clause: "false",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseRule(c.src)
			if err == nil {
				t.Fatalf("ParseRule(%q) should fail", c.src)
			}
			got := err.Error()
			if !strings.Contains(got, c.msg) {
				t.Fatalf("error %q does not mention %q", got, c.msg)
			}
			want := fmt.Sprintf("(byte %d: %q)", c.off, c.clause)
			if !strings.Contains(got, want) {
				t.Fatalf("error %q does not carry %q", got, want)
			}
		})
	}
}

func TestParseEventSpecShorthand(t *testing.T) {
	// The composite DSL's atoms accept the event grammar without OF; the
	// AFTER clause stays strict.
	ev, err := parseEventSpec("CREATE NODE Txn")
	if err != nil {
		t.Fatalf("ParseEventSpec: %v", err)
	}
	if ev.Kind != CreateNode || ev.Label != "Txn" {
		t.Fatalf("event = %+v", ev)
	}
	ev, err = parseEventSpec("SET OF PROPERTY Txn.amount")
	if err != nil {
		t.Fatalf("ParseEventSpec: %v", err)
	}
	if ev.Kind != SetProperty || ev.Label != "Txn" || ev.PropKey != "amount" {
		t.Fatalf("event = %+v", ev)
	}
	if _, err := parseEventSpec("EXPLODE NODE"); err == nil {
		t.Fatal("bad verb should fail")
	}
}

func TestIsTriggerStatement(t *testing.T) {
	if !IsTriggerStatement("  create trigger X\nAFTER CREATE OF NODE") {
		t.Error("case-insensitive detection")
	}
	if IsTriggerStatement("CREATE (:Trigger)") {
		t.Error("node creation is not a trigger statement")
	}
	if IsTriggerStatement("MATCH (n) RETURN n") {
		t.Error("query is not a trigger statement")
	}
}

func TestInstallTextEndToEnd(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	r, err := e.InstallText(`CREATE TRIGGER watcher ON HUB E
AFTER CREATE OF NODE Mutation
WHEN NEW.severity = 'high'
ALERT RETURN NEW.id AS mid
DO CREATE (:Escalation {mutation: mid, hub: 'E'})`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "watcher" || r.Action == "" {
		t.Errorf("parsed rule: %+v", r)
	}
	rep := run(t, s, e, "CREATE (:Mutation {id: 'M1', severity: 'high'})")
	if rep.GuardPasses != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if n := count(t, s, "MATCH (e:Escalation {mutation: 'M1'}) RETURN count(e)"); n != 1 {
		t.Errorf("action did not run: %d", n)
	}
	// A DSL rule with broken Cypher fails at install, not at fire time.
	if _, err := e.InstallText("CREATE TRIGGER broken\nAFTER CREATE OF NODE X\nWHEN ((("); err == nil {
		t.Error("broken guard should fail installation")
	}
}

func TestInstallTextSingleLineSections(t *testing.T) {
	s := graph.NewStore()
	e := newTestEngine()
	if _, err := e.InstallText(`CREATE TRIGGER oneliner
AFTER CREATE OF NODE Thing
ALERT RETURN NEW.v AS v`); err != nil {
		t.Fatal(err)
	}
	rep := run(t, s, e, "CREATE (:Thing {v: 7})")
	if rep.AlertNodes != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestParseRulePhases(t *testing.T) {
	cases := []struct {
		clause string
		want   Phase
	}{
		{"AFTER CREATE OF NODE Sequence", Before},
		{"AFTER ASYNC CREATE OF NODE Sequence", AfterAsync},
		{"AFTER ASYNC DELETE OF EDGE LINKS", AfterAsync},
		{"AFTER ASYNC SET OF PROPERTY Case.status", AfterAsync},
	}
	for _, c := range cases {
		r, err := ParseRule("CREATE TRIGGER T\n" + c.clause + "\nWHEN true")
		if err != nil {
			t.Errorf("%s: %v", c.clause, err)
			continue
		}
		if r.Phase != c.want {
			t.Errorf("%s: phase = %v, want %v", c.clause, r.Phase, c.want)
		}
	}
	// ASYNC must not swallow the operation keyword.
	if _, err := ParseRule("CREATE TRIGGER T\nAFTER ASYNC OF NODE X\nWHEN true"); err == nil {
		t.Error("AFTER ASYNC OF accepted without an operation")
	}
}

func TestParsePhase(t *testing.T) {
	cases := []struct {
		in   string
		want Phase
		ok   bool
	}{
		{"", Before, true},
		{"before", Before, true},
		{"afterAsync", AfterAsync, true},
		{"afterasync", AfterAsync, true},
		{"async", AfterAsync, true},
		{"during", Before, false},
	}
	for _, c := range cases {
		got, err := ParsePhase(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePhase(%q) err = %v", c.in, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePhase(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if Before.String() != "before" || AfterAsync.String() != "afterAsync" {
		t.Errorf("Phase.String: %q, %q", Before.String(), AfterAsync.String())
	}
}
