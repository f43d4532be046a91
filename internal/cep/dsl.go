package cep

// The composite extension of the PG-Triggers-style DSL. Where a
// single-event trigger declares AFTER <event>, a composite rule declares a
// WHEN operator over event atoms and a window:
//
//	CREATE TRIGGER velocity ON HUB P
//	WHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m
//	THEN ALERT
//	  MATCH (a:Account {id: KEY}) RETURN a.id AS account, MATCHES AS hits
//
//	CREATE TRIGGER big-pair ON HUB P
//	WHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,
//	              CREATE NODE Txn IF NEW.amount > 900 BY NEW.account)
//	WITHIN 5m
//
//	CREATE TRIGGER unconfirmed ON HUB P
//	WHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,
//	              NOT CREATE NODE Confirmation BY NEW.account)
//	WITHIN 30m
//
// Atoms are `[NOT] <verb> [OF] <target> [selector] [IF <predicate>] [BY
// <key-expr>]` — the event grammar of the trigger DSL, plus an optional
// synchronous guard (IF) and correlation key (BY). COUNT takes one atom
// and `>= <threshold>`. The THEN clause is optional; `THEN ALERT <query>`
// (or bare `THEN <query>`) supplies the completion alert query, run with
// KEY, RULE, MATCHES, WINDOW, STARTEDAT, DONEAT, FIRST and LAST bound.
//
// Keywords are case insensitive and recognized only outside parentheses,
// brackets, quotes and CASE … END (the trigger package's scanner), so guards
// and alert queries may use them freely. Parse errors carry the byte offset
// and text of the offending clause.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/trigger"
)

// dsl labels the parse errors of this package's declarations "cep dsl:".
const dsl trigger.Dialect = "cep"

// IsCompositeStatement reports whether src looks like a composite CREATE
// TRIGGER declaration — one whose WHEN clause opens with a composite
// operator — so servers and shells can route it to a Manager instead of
// the single-event trigger DSL.
func IsCompositeStatement(src string) bool {
	if !trigger.IsTriggerStatement(src) {
		return false
	}
	wi := trigger.FindKeyword(src, 0, "WHEN")
	if wi < 0 {
		return false
	}
	rest := strings.TrimSpace(src[wi+len("WHEN"):])
	for _, op := range []string{"SEQUENCE", "AND", "COUNT"} {
		if len(rest) > len(op) && strings.EqualFold(rest[:len(op)], op) &&
			strings.HasPrefix(strings.TrimSpace(rest[len(op):]), "(") {
			return true
		}
	}
	return false
}

// ParseRule parses one composite CREATE TRIGGER declaration. The result
// still needs Manager.Install (which compiles the embedded Cypher).
func ParseRule(src string) (Rule, error) {
	var r Rule
	wi := trigger.FindKeyword(src, 0, "WHEN")
	if wi < 0 {
		return r, dsl.Errorf(0, src, "missing WHEN clause")
	}
	var err error
	if r.Name, r.Hub, err = dsl.ParseHeader(src[:wi], 0); err != nil {
		return r, err
	}
	whenEnd := len(src)
	ti := trigger.FindKeyword(src, wi+len("WHEN"), "THEN")
	if ti >= 0 {
		whenEnd = ti
	}
	if err := parseWhen(src, wi+len("WHEN"), whenEnd, &r); err != nil {
		return r, err
	}
	if ti >= 0 {
		alert := strings.TrimSpace(src[ti+len("THEN"):])
		if rest, ok := cutKeyword(alert, "ALERT"); ok {
			alert = rest
		}
		if alert == "" {
			return r, dsl.Errorf(ti, src[ti:], "THEN needs an alert query")
		}
		r.Alert = alert
	}
	return r, nil
}

// parseWhen parses src[start:end): `<OP>(atom, …) [>= k] WITHIN <dur>`.
func parseWhen(src string, start, end int, r *Rule) error {
	clause := src[start:end]
	lead := len(clause) - len(strings.TrimLeft(clause, " \t\r\n"))
	opStart := start + lead
	rest := src[opStart:end]
	var op Op
	var opWord string
	switch {
	case trigger.WordAt(rest, 0, "SEQUENCE"):
		op, opWord = Sequence, "SEQUENCE"
	case trigger.WordAt(rest, 0, "AND"):
		op, opWord = All, "AND"
	case trigger.WordAt(rest, 0, "COUNT"):
		op, opWord = Count, "COUNT"
	default:
		return dsl.Errorf(opStart, rest, "expected SEQUENCE(, AND( or COUNT( after WHEN")
	}
	r.Op = op
	parenRel := strings.Index(rest, "(")
	if parenRel < 0 || strings.TrimSpace(rest[len(opWord):parenRel]) != "" {
		return dsl.Errorf(opStart, rest, "expected ( after %s", opWord)
	}
	openAbs := opStart + parenRel
	closeAbs := trigger.MatchParen(src, openAbs, end)
	if closeAbs < 0 {
		return dsl.Errorf(openAbs, src[openAbs:end], "unclosed ( in %s", opWord)
	}
	atoms, offs := trigger.SplitTopLevel(src, openAbs+1, closeAbs)
	if len(atoms) == 0 {
		return dsl.Errorf(openAbs, src[openAbs:closeAbs+1], "%s needs at least one atom", opWord)
	}
	for i, atom := range atoms {
		st, err := parseAtom(atom, offs[i])
		if err != nil {
			return err
		}
		r.Steps = append(r.Steps, st)
	}

	tail := src[closeAbs+1 : end]
	tailOff := closeAbs + 1
	lead = len(tail) - len(strings.TrimLeft(tail, " \t\r\n"))
	tail, tailOff = tail[lead:], tailOff+lead
	if op == Count {
		if !strings.HasPrefix(tail, ">=") {
			return dsl.Errorf(tailOff, tail, "COUNT needs >= <threshold> after the atom")
		}
		numStr := tail[2:]
		lead = len(numStr) - len(strings.TrimLeft(numStr, " \t\r\n"))
		numStr = numStr[lead:]
		fields := strings.Fields(numStr)
		if len(fields) == 0 {
			return dsl.Errorf(tailOff, tail, "COUNT needs >= <threshold>")
		}
		k, err := strconv.Atoi(fields[0])
		if err != nil || k < 1 {
			return dsl.Errorf(tailOff, tail, "bad COUNT threshold %q", fields[0])
		}
		r.Threshold = k
		cut := strings.Index(numStr, fields[0]) + len(fields[0])
		tailOff += 2 + lead + cut
		tail = numStr[cut:]
		lead = len(tail) - len(strings.TrimLeft(tail, " \t\r\n"))
		tail, tailOff = tail[lead:], tailOff+lead
	}
	if !trigger.WordAt(tail, 0, "WITHIN") {
		return dsl.Errorf(tailOff, tail, "expected WITHIN <duration> after the atom list")
	}
	fields := strings.Fields(tail[len("WITHIN"):])
	if len(fields) == 0 {
		return dsl.Errorf(tailOff, tail, "WITHIN needs a duration (e.g. 5m, 90s, 1h)")
	}
	d, err := time.ParseDuration(fields[0])
	if err != nil || d <= 0 {
		return dsl.Errorf(tailOff, tail, "bad WITHIN duration %q", fields[0])
	}
	r.Window = d
	if len(fields) > 1 {
		return dsl.Errorf(tailOff, tail, "unexpected %q after WITHIN duration",
			strings.Join(fields[1:], " "))
	}
	return nil
}

// parseAtom parses `[NOT] <event spec> [IF <expr>] [BY <expr>]`.
func parseAtom(atom string, off int) (Step, error) {
	var st Step
	text := atom
	lead := len(text) - len(strings.TrimLeft(text, " \t\r\n"))
	text, off = strings.TrimSpace(text), off+lead
	if rest, ok := cutKeyword(text, "NOT"); ok {
		st.Negated = true
		text = rest
	}
	ifIdx := trigger.FindKeyword(text, 0, "IF")
	byIdx := trigger.FindKeyword(text, 0, "BY")
	specEnd := len(text)
	if ifIdx >= 0 {
		specEnd = ifIdx
	}
	if byIdx >= 0 && byIdx < specEnd {
		specEnd = byIdx
	}
	spec := strings.TrimSpace(text[:specEnd])
	if spec == "" {
		return st, dsl.Errorf(off, atom, "atom needs an event (e.g. CREATE NODE Txn)")
	}
	ev, err := trigger.ParseEventSpec(spec)
	if err != nil {
		return st, dsl.Errorf(off, atom, "%s", err)
	}
	st.Event = ev
	if ifIdx >= 0 {
		guardEnd := len(text)
		if byIdx > ifIdx {
			guardEnd = byIdx
		}
		st.Guard = strings.TrimSpace(text[ifIdx+len("IF") : guardEnd])
		if st.Guard == "" {
			return st, dsl.Errorf(off+ifIdx, atom, "IF needs a predicate")
		}
	}
	if byIdx >= 0 {
		if byIdx < ifIdx {
			return st, dsl.Errorf(off+byIdx, atom, "BY must follow IF")
		}
		st.Key = strings.TrimSpace(text[byIdx+len("BY"):])
		if st.Key == "" {
			return st, dsl.Errorf(off+byIdx, atom, "BY needs a key expression")
		}
	}
	return st, nil
}

// ---- canonical rendering ----

// Text renders the rule in canonical DSL form (the inverse of ParseRule).
func (r Rule) Text() string {
	var b strings.Builder
	b.WriteString("CREATE TRIGGER ")
	b.WriteString(r.Name)
	if r.Hub != "" {
		b.WriteString(" ON HUB ")
		b.WriteString(r.Hub)
	}
	b.WriteString("\nWHEN ")
	b.WriteString(r.Op.String())
	b.WriteString("(")
	for i, st := range r.Steps {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(atomText(st))
	}
	b.WriteString(")")
	if r.Op == Count {
		fmt.Fprintf(&b, " >= %d", r.Threshold)
	}
	b.WriteString(" WITHIN ")
	b.WriteString(FormatDuration(r.Window))
	if r.Alert != "" {
		b.WriteString("\nTHEN ALERT\n  ")
		b.WriteString(r.Alert)
	}
	return b.String()
}

func atomText(st Step) string {
	var b strings.Builder
	if st.Negated {
		b.WriteString("NOT ")
	}
	b.WriteString(st.Event.String())
	if st.Guard != "" {
		b.WriteString(" IF ")
		b.WriteString(st.Guard)
	}
	if st.Key != "" {
		b.WriteString(" BY ")
		b.WriteString(st.Key)
	}
	return b.String()
}

// FormatDuration renders a duration the way the DSL reads it: "5m" rather
// than time.Duration's "5m0s".
func FormatDuration(d time.Duration) string {
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}

// cutKeyword strips a leading keyword (and following space) from s.
func cutKeyword(s, word string) (string, bool) {
	if trigger.WordAt(s, 0, word) {
		return strings.TrimSpace(s[len(word):]), true
	}
	return s, false
}
