package trigger

// A native fuzzer for the rule language, seeded from the declarations of the
// TestParseRule* tables and of internal/cep's TestCEPParseRule* tables, both
// forms. No input may panic, and whatever parses must survive the canonical
// rendering: ParseRule(r.Text()) == r. Run it with:
//
//	go test ./internal/trigger -run '^$' -fuzz '^FuzzParseRule$' -fuzztime 60s

import (
	"reflect"
	"testing"
)

var ruleSeeds = []string{
	// TestParseRuleFull
	"CREATE TRIGGER R2 ON HUB A\nAFTER CREATE OF NODE Sequence\nWHEN NEW.variant IS NULL\nALERT\n  MATCH (u:Sequence) WHERE u.variant IS NULL\n  WITH count(u) AS unassigned WHERE unassigned > 2\n  RETURN unassigned",
	"CREATE TRIGGER t ON HUB A\nAFTER CREATE OF NODE Sequence\nALERT\n  MATCH (u:Sequence) RETURN CASE\n    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state",
	"CREATE TRIGGER t ON HUB A\nAFTER CREATE OF NODE Sequence\nWHEN NEW.lab IS NOT NULL\nALERT\n  MATCH (u:Sequence) RETURN CASE\n    WHEN u.variant IS NULL THEN 'unassigned' ELSE 'ok' END AS state\nDO\n  CREATE (:Note {text: 'AFTER\nWHEN ALERT', state: [\n    state]})",
	"CREATE TRIGGER t ON HUB A\nAFTER CREATE OF NODE Sequence\nWHEN NEW.v > 3 // don't fire on small ones\nALERT MATCH (u:Sequence) RETURN count(u) AS n",
	"CREATE TRIGGER t ON HUB A\nAFTER CREATE OF NODE Sequence\nWHEN NEW.v > 3 /* it's\nALERT here is prose */\nALERT MATCH (u:Sequence) RETURN count(u) AS n",
	// TestParseRuleEventForms and TestParseRulePhases
	"CREATE TRIGGER T\nAFTER CREATE OF NODE Case\nWHEN true",
	"CREATE TRIGGER T\nAFTER DELETE OF EDGE LINKS\nWHEN true",
	"CREATE TRIGGER T\nAFTER SET OF LABEL Escalated\nWHEN true",
	"CREATE TRIGGER T\nAFTER REMOVE OF PROPERTY Case.status\nWHEN true",
	"CREATE TRIGGER T\nAFTER ASYNC SET OF PROPERTY status\nWHEN true",
	// TestParseRuleErrors
	"CREATE TRIGGER x EXTRA\nAFTER CREATE OF NODE\nWHEN true",
	"CREATE TRIGGER x\nAFTER CREATE OF NODE\nWHEN CASE\nWHEN true THEN 1 END = 1\nWHEN false",
	// TestCEPParseRuleForms
	"CREATE TRIGGER velocity ON HUB P\nWHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m",
	"CREATE TRIGGER big-pair ON HUB P\nWHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,\n              CREATE NODE Txn IF NEW.amount > 900 BY NEW.account)\nWITHIN 5m",
	"CREATE TRIGGER unconfirmed ON HUB P\nWHEN SEQUENCE(CREATE NODE Txn BY NEW.account,\n              NOT CREATE NODE Confirmation BY NEW.account)\nWITHIN 30m\nTHEN ALERT\n  RETURN KEY AS account, MATCHES AS hits",
	"CREATE TRIGGER both\nWHEN AND(CREATE OF NODE A, DELETE OF NODE B) WITHIN 1h\nTHEN RETURN RULE AS r",
	"CREATE TRIGGER tricky\nWHEN COUNT(CREATE NODE Txn IF (NEW.tag = 'WITHIN THEN BY') BY NEW.k) >= 2 WITHIN 90s",
	"CREATE TRIGGER commented ON HUB P\nWHEN COUNT(CREATE NODE Txn IF NEW.amount > 1 // don't count small ones\n           BY NEW.account /* BY WITHIN THEN */) >= 2 WITHIN 5m\nTHEN RETURN KEY AS k",
	"  create trigger x\nwhen count(CREATE NODE A) >= 2 within 5m",
	// TestCEPParseRuleErrors
	"CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A BY NEW.k IF NEW.v) WITHIN 5m",
	"CREATE TRIGGER x\nWHEN COUNT(CREATE NODE A) >= 0 WITHIN 5m",
	"CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m\nTHEN ALERT",
	// A composite alert that reads like the keyword.
	"CREATE TRIGGER x\nWHEN SEQUENCE(CREATE NODE A) WITHIN 5m\nALERT ALERT",
	// An open quote in the last section, which Text would not render last.
	"CREATE TRIGGER 0\nAFTER CREATE OF NODE \nALERT 0\nWHEN\"",
}

func FuzzParseRule(f *testing.F) {
	for _, src := range ruleSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := ParseRule(src)
		if err != nil {
			return
		}
		text := r.Text()
		back, err := ParseRule(text)
		if err != nil {
			t.Fatalf("%q parses, but its text %q does not: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("%q parses to\n%+v\nbut its text %q to\n%+v", src, r, text, back)
		}
	})
}
