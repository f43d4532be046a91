package cep

// The composite form of the one rule language (internal/trigger), as
// existing composite texts use it: accepted forms, byte-offset error
// reporting, canonical-text round trips, and the APOC export.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trigger"
)

func TestCEPParseRuleForms(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want func(t *testing.T, r trigger.Rule)
	}{
		{
			name: "count with guard and key",
			src: "CREATE TRIGGER velocity ON HUB P\n" +
				"WHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Name != "velocity" || r.Hub != "P" || r.Op != trigger.Count {
					t.Fatalf("header = %+v", r)
				}
				if r.Threshold != 3 || r.Window != 5*time.Minute {
					t.Fatalf("threshold/window = %d/%v", r.Threshold, r.Window)
				}
				st := r.Steps[0]
				if st.Event.Kind != trigger.CreateNode || st.Event.Label != "Txn" {
					t.Fatalf("event = %+v", st.Event)
				}
				if st.Guard != "NEW.flagged" || st.Key != "NEW.account" {
					t.Fatalf("guard/key = %q/%q", st.Guard, st.Key)
				}
			},
		},
		{
			name: "multi-line sequence",
			src: "CREATE TRIGGER big-pair ON HUB P\n" +
				"WHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,\n" +
				"              CREATE NODE Txn IF NEW.amount > 900 BY NEW.account)\n" +
				"WITHIN 5m",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Op != trigger.Sequence || len(r.Steps) != 2 {
					t.Fatalf("rule = %+v", r)
				}
				if r.Steps[1].Guard != "NEW.amount > 900" {
					t.Fatalf("step guard = %q", r.Steps[1].Guard)
				}
			},
		},
		{
			name: "absence with alert query",
			src: "CREATE TRIGGER unconfirmed ON HUB P\n" +
				"WHEN SEQUENCE(CREATE NODE Txn BY NEW.account,\n" +
				"              NOT CREATE NODE Confirmation BY NEW.account)\n" +
				"WITHIN 30m\n" +
				"THEN ALERT\n" +
				"  RETURN KEY AS account, MATCHES AS hits",
			want: func(t *testing.T, r trigger.Rule) {
				if !r.Steps[1].Negated {
					t.Fatal("NOT atom not negated")
				}
				if r.Window != 30*time.Minute {
					t.Fatalf("window = %v", r.Window)
				}
				if r.Alert != "RETURN KEY AS account, MATCHES AS hits" {
					t.Fatalf("alert = %q", r.Alert)
				}
			},
		},
		{
			name: "AND with OF keyword and bare THEN",
			src: "CREATE TRIGGER both\n" +
				"WHEN AND(CREATE OF NODE A, DELETE OF NODE B) WITHIN 1h\n" +
				"THEN RETURN RULE AS r",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Hub != "" || r.Op != trigger.All || len(r.Steps) != 2 {
					t.Fatalf("rule = %+v", r)
				}
				if r.Steps[1].Event.Kind != trigger.DeleteNode {
					t.Fatalf("step 1 = %+v", r.Steps[1].Event)
				}
				if r.Alert != "RETURN RULE AS r" {
					t.Fatalf("alert = %q", r.Alert)
				}
			},
		},
		{
			name: "keywords inside guard parens are opaque",
			src: "CREATE TRIGGER tricky\n" +
				"WHEN COUNT(CREATE NODE Txn IF (NEW.tag = 'WITHIN THEN BY') BY NEW.k) >= 2 WITHIN 90s",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Steps[0].Guard != "(NEW.tag = 'WITHIN THEN BY')" {
					t.Fatalf("guard = %q", r.Steps[0].Guard)
				}
				if r.Window != 90*time.Second {
					t.Fatalf("window = %v", r.Window)
				}
			},
		},
		{
			// An apostrophe in a comment opens no quote; keywords in one are
			// prose.
			name: "comments in the atom list",
			src: "CREATE TRIGGER commented ON HUB P\n" +
				"WHEN COUNT(CREATE NODE Txn IF NEW.amount > 1 // don't count small ones\n" +
				"           BY NEW.account /* BY WITHIN THEN */) >= 2 WITHIN 5m\n" +
				"THEN RETURN KEY AS k",
			want: func(t *testing.T, r trigger.Rule) {
				st := r.Steps[0]
				if st.Guard != "NEW.amount > 1 // don't count small ones" {
					t.Fatalf("guard = %q", st.Guard)
				}
				if st.Key != "NEW.account /* BY WITHIN THEN */" {
					t.Fatalf("key = %q", st.Key)
				}
				if r.Threshold != 2 || r.Window != 5*time.Minute || r.Alert != "RETURN KEY AS k" {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
		// Which form a declaration is: WHEN opening with an operator is a
		// composite term unless an AFTER clause makes WHEN the guard.
		{
			name: "lower case keywords",
			src:  "  create trigger x\nwhen count(CREATE NODE A) >= 2 within 5m",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Composite == nil || r.Op != trigger.Count || r.Threshold != 2 {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
		{
			name: "AND of two atoms",
			src:  "CREATE TRIGGER x\nWHEN AND(CREATE NODE A, CREATE NODE B) WITHIN 5m",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Composite == nil || r.Op != trigger.All {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
		{
			name: "term on the header's line",
			src:  "CREATE TRIGGER x ON HUB P WHEN SEQUENCE(CREATE NODE A, CREATE NODE B) WITHIN 5m THEN RETURN KEY AS k",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Name != "x" || r.Hub != "P" || r.Composite == nil || len(r.Steps) != 2 ||
					r.Window != 5*time.Minute || r.Alert != "RETURN KEY AS k" {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
		{
			name: "single-event WHEN is a guard",
			src:  "CREATE TRIGGER x\nAFTER CREATE OF NODE A\nWHEN true",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Composite != nil || r.Guard != "true" {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
		{
			name: "AND as a guard conjunction",
			src:  "CREATE TRIGGER x\nAFTER CREATE OF NODE A\nWHEN NEW.a AND NEW.b",
			want: func(t *testing.T, r trigger.Rule) {
				if r.Composite != nil || r.Guard != "NEW.a AND NEW.b" {
					t.Fatalf("rule = %+v", r)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := trigger.ParseRule(c.src)
			if err != nil {
				t.Fatalf("ParseRule: %v", err)
			}
			c.want(t, r)
			e := trigger.NewEngine()
			e.StepSink = func(*graph.Tx, trigger.StepItem) error { return nil }
			if err := e.Install(r); err != nil {
				t.Fatalf("parsed rule does not compile: %v", err)
			}
		})
	}
}

func TestCEPParseRuleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring the error must contain
	}{
		{"no when", "CREATE TRIGGER x", "missing AFTER or WHEN clause"},
		{"bad header", "WHEN SEQUENCE(CREATE NODE A) WITHIN 5m", "expected CREATE TRIGGER"},
		{"header junk", "CREATE TRIGGER x y z\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m", `unexpected "y z"`},
		{"bad op", "CREATE TRIGGER x\nWHEN MERGE(CREATE NODE A) WITHIN 5m", "expected SEQUENCE(, AND( or COUNT("},
		{"no paren", "CREATE TRIGGER x\nWHEN SEQUENCE CREATE NODE A WITHIN 5m", "expected ( after SEQUENCE"},
		{"unclosed", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A WITHIN 5m", "unclosed ( in SEQUENCE"},
		{"empty atoms", "CREATE TRIGGER x\nWHEN SEQUENCE() WITHIN 5m", "at least one atom"},
		{"bad event", "CREATE TRIGGER x\nWHEN SEQUENCE(EXPLODE NODE A) WITHIN 5m", "EXPLODE"},
		{"empty atom event", "CREATE TRIGGER x\nWHEN SEQUENCE(IF NEW.v > 1) WITHIN 5m", "atom needs an event"},
		{"empty if", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A IF ) WITHIN 5m", "IF needs a predicate"},
		{"empty by", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A BY ) WITHIN 5m", "BY needs a key expression"},
		{"by before if", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A BY NEW.k IF NEW.v) WITHIN 5m", "BY must follow IF"},
		{"count no threshold", "CREATE TRIGGER x\nWHEN COUNT(CREATE NODE A) WITHIN 5m", "COUNT needs >="},
		{"count bad threshold", "CREATE TRIGGER x\nWHEN COUNT(CREATE NODE A) >= zero WITHIN 5m", `bad COUNT threshold "zero"`},
		{"count zero threshold", "CREATE TRIGGER x\nWHEN COUNT(CREATE NODE A) >= 0 WITHIN 5m", `bad COUNT threshold "0"`},
		{"no within", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A)", "expected WITHIN"},
		{"within no duration", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN", "WITHIN needs a duration"},
		{"bad duration", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN fortnight", `bad WITHIN duration "fortnight"`},
		{"negative duration", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN -5m", `bad WITHIN duration "-5m"`},
		{"trailing junk", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m junk", `unexpected "junk"`},
		{"empty then", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m\nTHEN ALERT", "THEN needs an alert query"},
		{"two alerts", "CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m THEN RETURN 1 AS a\nALERT RETURN 2 AS b", "THEN and ALERT both"},
		{"two terms", "CREATE TRIGGER x WHEN SEQUENCE(CREATE NODE A) WITHIN 5m\nWHEN SEQUENCE(CREATE NODE B) WITHIN 5m", "duplicate WHEN section"},
		// COUNTER is not COUNT at a word boundary; and neither a query nor a
		// node creation is a declaration.
		{"no operator", "CREATE TRIGGER x\nWHEN COUNTER(1) WITHIN 5m", "expected SEQUENCE(, AND( or COUNT("},
		{"query", "MATCH (n) RETURN n", "expected CREATE TRIGGER"},
		{"node creation", "CREATE (:Trigger)", "expected CREATE TRIGGER"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := trigger.ParseRule(c.src)
			if err == nil {
				t.Fatalf("ParseRule(%q) should fail", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), "byte ") {
				t.Fatalf("error %q carries no byte offset", err)
			}
		})
	}
}

func TestCEPParseErrorOffsets(t *testing.T) {
	// The reported offset must point into the offending clause, not at 0.
	src := "CREATE TRIGGER x\nWHEN COUNT(CREATE NODE A) >= 3 WITHIN fortnight"
	_, err := trigger.ParseRule(src)
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	i := strings.Index(msg, "byte ")
	if i < 0 {
		t.Fatalf("no byte offset in %q", msg)
	}
	var off int
	if _, scanErr := fmt.Sscanf(msg[i:], "byte %d", &off); scanErr != nil {
		t.Fatalf("unparsable offset in %q: %v", msg, scanErr)
	}
	within := strings.Index(src, "WITHIN")
	if off != within {
		t.Fatalf("offset = %d, want %d (start of the WITHIN tail)", off, within)
	}
}

func TestCEPTextRoundTrip(t *testing.T) {
	srcs := []string{
		"CREATE TRIGGER velocity ON HUB P\n" +
			"WHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m",
		"CREATE TRIGGER unconfirmed ON HUB P\n" +
			"WHEN SEQUENCE(CREATE NODE Txn BY NEW.account, NOT CREATE NODE Confirmation BY NEW.account) WITHIN 30m\n" +
			"THEN ALERT\n  RETURN KEY AS account",
		"CREATE TRIGGER both\nWHEN AND(CREATE NODE A, DELETE NODE B) WITHIN 1h30m",
		"CREATE TRIGGER x WHEN SEQUENCE(CREATE NODE A) WITHIN 5m",
	}
	for _, src := range srcs {
		r1, err := trigger.ParseRule(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		text := r1.Text()
		r2, err := trigger.ParseRule(text)
		if err != nil {
			t.Fatalf("re-parse %q: %v", text, err)
		}
		if r2.Name != r1.Name || r2.Hub != r1.Hub || r2.Op != r1.Op ||
			r2.Threshold != r1.Threshold || r2.Window != r1.Window ||
			r2.Alert != r1.Alert || len(r2.Steps) != len(r1.Steps) {
			t.Fatalf("round trip drifted:\n%+v\n%+v", r1, r2)
		}
		for i := range r1.Steps {
			if r1.Steps[i] != r2.Steps[i] {
				t.Fatalf("step %d drifted: %+v vs %+v", i, r1.Steps[i], r2.Steps[i])
			}
		}
	}
}

// atomEvent parses spec as the one atom of a composite rule.
func atomEvent(spec string) (trigger.Event, error) {
	r, err := trigger.ParseRule("CREATE TRIGGER r\nWHEN SEQUENCE(" + spec + ") WITHIN 5m")
	if err != nil {
		return trigger.Event{}, err
	}
	return r.Steps[0].Event, nil
}

// TestCEPEventSpecRoundTrip: for every event kind and selector shape, the
// canonical spec (Event.String), its OF form and the EDGE alias all parse
// back to the event, and a composite rule over it survives Text → ParseRule.
func TestCEPEventSpecRoundTrip(t *testing.T) {
	kinds := []trigger.EventKind{
		trigger.CreateNode, trigger.DeleteNode, trigger.CreateRelationship, trigger.DeleteRelationship,
		trigger.SetLabel, trigger.RemoveLabel, trigger.SetProperty, trigger.RemoveProperty,
	}
	for _, kind := range kinds {
		for _, sel := range []trigger.Event{{}, {Label: "Case"}, {Label: "Case", PropKey: "status"}, {PropKey: "status"}} {
			ev := trigger.Event{Kind: kind, Label: sel.Label, PropKey: sel.PropKey}
			verb, target, _ := strings.Cut(kind.String(), " ")
			switch {
			case target == "LABEL" && ev.Label == "":
				if _, err := atomEvent(ev.String()); err == nil {
					t.Errorf("%q parsed; a label event needs a label", ev.String())
				}
				continue
			case target != "PROPERTY" && ev.PropKey != "":
				continue // only property events select on a key
			}
			spec := ev.String()
			forms := []string{spec, verb + " OF" + strings.TrimPrefix(spec, verb)}
			if target == "RELATIONSHIP" {
				forms = append(forms, strings.Replace(spec, "RELATIONSHIP", "EDGE", 1),
					strings.Replace(forms[1], "RELATIONSHIP", "edge", 1))
			}
			for _, form := range forms {
				got, err := atomEvent(form)
				if err != nil || got != ev {
					t.Errorf("atom %q = %+v, %v; want %+v", form, got, err, ev)
				}
			}
			rule := trigger.Rule{
				Name: "r",
				Composite: &trigger.Composite{Op: trigger.Sequence, Window: 5 * time.Minute,
					Steps: []trigger.Step{{Event: ev, Guard: "NEW.x > 1", Key: "NEW.k"}}},
			}
			back, err := trigger.ParseRule(rule.Text())
			if err != nil || !reflect.DeepEqual(back, rule) {
				t.Errorf("ParseRule(Text()) = %+v, %v\ntext: %s\nwant %+v", back, err, rule.Text(), rule)
			}
		}
	}
}

func TestCEPFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:             "1m30s",
		5 * time.Minute:              "5m",
		time.Hour:                    "1h",
		time.Hour + 30*time.Minute:   "1h30m",
		2*time.Hour + 15*time.Second: "2h0m15s",
		30 * time.Minute:             "30m",
	}
	for d, want := range cases {
		r := seq2("r", d)
		if got := r.Text(); !strings.HasSuffix(got, ") WITHIN "+want) {
			t.Errorf("window %v renders as %q, want WITHIN %s", d, got, want)
		}
	}
}

func TestCEPTranslateAPOC(t *testing.T) {
	r, err := trigger.ParseRule("CREATE TRIGGER unconfirmed ON HUB P\n" +
		"WHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,\n" +
		"              NOT CREATE NODE Confirmation BY NEW.account)\n" +
		"WITHIN 30m")
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := trigger.TranslateAPOC(r, "neo4j", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 { // one per step + the drain job
		t.Fatalf("statements = %d, want 3", len(stmts))
	}
	for i := 0; i < 2; i++ {
		if !strings.Contains(stmts[i], "apoc.trigger.install") {
			t.Fatalf("statement %d is not a trigger install:\n%s", i, stmts[i])
		}
		if !strings.Contains(stmts[i], fmt.Sprintf("'cep:unconfirmed#%d'", i)) {
			t.Fatalf("statement %d misses its step name:\n%s", i, stmts[i])
		}
		if !strings.Contains(stmts[i], "CEPPartial") {
			t.Fatalf("statement %d does not maintain CEPPartial:\n%s", i, stmts[i])
		}
	}
	if !strings.Contains(stmts[0], "MERGE") || !strings.Contains(stmts[1], "DETACH DELETE") {
		t.Fatalf("opener/killer shapes wrong:\n%s\n%s", stmts[0], stmts[1])
	}
	if !strings.Contains(stmts[2], "apoc.periodic.repeat") {
		t.Fatalf("last statement is not the drain job:\n%s", stmts[2])
	}

	// COUNT renders the sliding-window list comprehension.
	cnt, err := trigger.ParseRule("CREATE TRIGGER velocity\n" +
		"WHEN COUNT(CREATE NODE Txn BY NEW.account) >= 3 WITHIN 5m")
	if err != nil {
		t.Fatal(err)
	}
	stmts, err = trigger.TranslateAPOC(cnt, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 || !strings.Contains(stmts[0], "p.times") {
		t.Fatalf("COUNT translation wrong:\n%v", stmts)
	}

	// Property events are outside the Fig. 6 scheme.
	bad := trigger.Rule{
		Name: "x",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: time.Minute,
			Steps: []trigger.Step{{Event: trigger.Event{Kind: trigger.SetProperty, PropKey: "v"}}}},
	}
	if _, err := trigger.TranslateAPOC(bad, "", ""); err == nil {
		t.Fatal("property-event step should not translate")
	}

	// The drain job creates alert nodes; an action has no translation, as
	// for a Fig. 6 rule.
	cnt.Action = "CREATE (:X)"
	if _, err := trigger.TranslateAPOC(cnt, "", ""); err == nil || !strings.Contains(err.Error(), "custom action") {
		t.Fatalf("composite rule with an action: %v, want a custom-action refusal", err)
	}
}

func TestCEPManagerTranslateAllAPOC(t *testing.T) {
	kb, _, _ := newCEPKB(t)
	if err := kb.InstallRule(seq2("pair", 5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	err := kb.InstallRule(trigger.Rule{
		Name: "props", Hub: "H",
		Composite: &trigger.Composite{Op: trigger.Sequence, Window: time.Minute,
			Steps: []trigger.Step{{Event: trigger.Event{Kind: trigger.SetProperty, PropKey: "v"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := kb.TranslateRulesAPOC("neo4j", "")
	translated, skipped := exp.Composite, exp.CompositeSkipped
	if len(translated) != 3 { // pair's two steps + drain
		t.Fatalf("translated = %d statements, want 3", len(translated))
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "props") {
		t.Fatalf("skipped = %v, want the property-event rule", skipped)
	}
}
