package trigger

// A PG-Triggers-style textual syntax for reactive rules. The paper (§II)
// positions its rules as an application of the authors' PG-Triggers
// proposal for standard triggers on property graphs; this file implements
// a declaration syntax in that spirit so rules can be shipped as text
// (shell scripts, HTTP payloads, config files) rather than Go structs:
//
//	CREATE TRIGGER R2 ON HUB A
//	AFTER CREATE OF NODE Sequence
//	WHEN NEW.variant IS NULL
//	ALERT
//	  MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
//	  WHERE u.variant IS NULL
//	  WITH r.name AS region, count(u) AS counter WHERE counter > 100
//	  RETURN region, counter
//
// Sections are introduced by keywords at the start of a line (case
// insensitive): the header (CREATE TRIGGER … [ON HUB …]), the event
// (AFTER …), then optionally WHEN, ALERT (alert query) and DO (action
// statement). A section ends where the next one begins, so multi-line
// guards and alerts need no delimiters. A keyword inside quotes, comments,
// brackets or CASE … END is Cypher, not a section: a guard or alert may
// break CASE and WHEN across lines.
//
// The event position holds one of two forms. A single-event rule names its
// event in the AFTER section, and WHEN is its guard:
//
//	AFTER CREATE OF NODE [Label]
//	AFTER DELETE OF NODE [Label]
//	AFTER CREATE OF RELATIONSHIP [Type]
//	AFTER DELETE OF RELATIONSHIP [Type]
//	AFTER SET OF LABEL Label
//	AFTER REMOVE OF LABEL Label
//	AFTER SET OF PROPERTY [Label.][key]
//	AFTER REMOVE OF PROPERTY [Label.][key]
//
// Inserting ASYNC after AFTER (e.g. AFTER ASYNC CREATE OF NODE Sequence)
// installs the rule with Phase AfterAsync: the guard still runs in the
// writing transaction, but the alert query is evaluated asynchronously.
//
// A composite rule has no AFTER section and no DO: its WHEN section, which
// may also follow the header on its line, holds a composite event term, and
// its alert query may follow THEN [ALERT] instead of an ALERT section:
//
//	CREATE TRIGGER velocity ON HUB P
//	WHEN COUNT(CREATE NODE Txn IF NEW.flagged BY NEW.account) >= 3 WITHIN 5m
//	THEN ALERT
//	  MATCH (a:Account {id: KEY}) RETURN a.id AS account, MATCHES AS hits
//
//	CREATE TRIGGER unconfirmed ON HUB P
//	WHEN SEQUENCE(CREATE NODE Txn IF NEW.amount > 900 BY NEW.account,
//	              NOT CREATE NODE Confirmation BY NEW.account)
//	WITHIN 30m
//
// The term is SEQUENCE(…), AND(…) or COUNT(…) >= k over comma-separated
// atoms, then WITHIN <duration>. An atom is `[NOT] <verb> [OF] <target>
// [selector] [IF <predicate>] [BY <key-expr>]`: the event grammar above with
// OF optional, plus a synchronous guard (IF) and a correlation key (BY). The
// alert query runs with KEY, RULE, MATCHES, WINDOW, STARTEDAT, DONEAT, FIRST
// and LAST bound.
//
// Parse errors carry the byte offset of the offending clause within the
// declaration plus the clause text itself, so multi-rule scripts can point
// at the exact spot.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// errorf builds a parse error that names the offending clause and its byte
// offset within the declaration source.
func errorf(off int, clause, format string, args ...any) error {
	c := collapseSpace(clause)
	if len(c) > 60 {
		c = c[:57] + "..."
	}
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("trigger dsl: %s (byte %d: %q)", msg, off, c)
}

// ParseRule parses one CREATE TRIGGER declaration into a Rule, single-event
// or composite. The result still needs Engine.Install (which compiles the
// embedded Cypher).
func ParseRule(src string) (Rule, error) {
	var r Rule
	sections, err := splitSections(src)
	if err != nil {
		return r, err
	}
	if r.Name, r.Hub, err = parseHeader(sections.header); err != nil {
		return r, err
	}
	r.Alert, r.Action = sections.alert.text, sections.do.text
	switch {
	case sections.event.text != "":
		if r.Event, r.Phase, err = parseEventClause(sections.event); err != nil {
			return r, err
		}
		r.Guard = sections.when.text
		if r.Guard == "" && r.Alert == "" && r.Action == "" {
			return r, fmt.Errorf("trigger dsl: trigger %s needs WHEN, ALERT or DO", r.Name)
		}
	case sections.when.text != "":
		if r.Composite, r.Alert, err = parseComposite(sections.when, r.Alert); err != nil {
			return r, err
		}
	default:
		return r, errorf(0, src, "missing AFTER or WHEN clause")
	}
	// What an unclosed section swallowed would not survive Text's
	// canonical section order.
	if u := sections.unclosed; u != nil {
		return r, errorf(u.off, u.text, "unterminated quote, comment, bracket or CASE")
	}
	return r, nil
}

// IsTriggerStatement reports whether src looks like a CREATE TRIGGER
// declaration (so shells and servers can route it away from the query
// engine).
func IsTriggerStatement(src string) bool {
	fields := strings.Fields(src)
	return len(fields) >= 2 &&
		strings.EqualFold(fields[0], "CREATE") &&
		strings.EqualFold(fields[1], "TRIGGER")
}

// section is one keyword-introduced part of a declaration, trimmed,
// remembering where its text begins in the source so errors can point at it.
type section struct {
	text string
	off  int // byte offset of the section's text within the source
}

type ruleSections struct {
	header section
	event  section
	when   section
	alert  section
	do     section
	// unclosed is the last section when an unterminated quote, block
	// comment, bracket or CASE swallowed the rest of the declaration.
	unclosed *section
}

// splitSections cuts the source at the section keywords that open a line
// outside quotes, comments, brackets and CASE … END. The event section keeps
// its AFTER; the others start behind their keyword.
func splitSections(src string) (ruleSections, error) {
	var out ruleSections
	var err error
	cur, start := &out.header, 0
	keywords := []struct {
		word string
		sec  *section
	}{{"AFTER", &out.event}, {"WHEN", &out.when}, {"ALERT", &out.alert}, {"DO", &out.do}}
	seen := map[*section]bool{}
	_, closed := topLevel(src, 0, len(src), func(i int) bool {
		for _, kw := range keywords {
			if !wordAt(src, i, kw.word) {
				continue
			}
			line := strings.LastIndexByte(src[:i], '\n') + 1
			if strings.TrimSpace(src[line:i]) != "" {
				return false
			}
			if seen[kw.sec] {
				rest, _, _ := strings.Cut(src[i+len(kw.word):], "\n")
				err = errorf(i, rest, "duplicate %s section", kw.word)
				return true
			}
			seen[kw.sec] = true
			*cur = trimmed(src, start, i)
			cur, start = kw.sec, i
			if kw.sec != &out.event {
				start += len(kw.word)
			}
			return false
		}
		return false
	})
	*cur = trimmed(src, start, len(src))
	if !closed {
		out.unclosed = cur
	}
	// A composite term may follow the header on its line:
	// CREATE TRIGGER x WHEN SEQUENCE(…) WITHIN 5m.
	h := out.header
	if w := findKeyword(src[:h.off+len(h.text)], h.off, "WHEN"); w >= 0 && err == nil &&
		opensTerm(src[skipSpace(src, w+len("WHEN")):]) {
		if seen[&out.when] {
			return out, errorf(w, src[w:h.off+len(h.text)], "duplicate WHEN section")
		}
		out.header, out.when = trimmed(src, h.off, w), trimmed(src, w+len("WHEN"), h.off+len(h.text))
		if out.unclosed == &out.header {
			out.unclosed = &out.when
		}
	}
	return out, err
}

// opensTerm reports whether s opens with a composite operator and its (.
func opensTerm(s string) bool {
	for _, name := range opNames {
		if wordAt(s, 0, name) && strings.HasPrefix(s[skipSpace(s, len(name)):], "(") {
			return true
		}
	}
	return false
}

// trimmed returns src[from:to) as a section without surrounding space.
func trimmed(src string, from, to int) section {
	from += skipSpace(src[from:to], 0)
	return section{text: strings.TrimRightFunc(src[from:to], unicode.IsSpace), off: from}
}

// skipSpace returns the index of the first non-space byte of s at or after i.
func skipSpace(s string, i int) int {
	return len(s) - len(strings.TrimLeftFunc(s[i:], unicode.IsSpace))
}

// parseHeader parses `CREATE TRIGGER <name> [ON HUB <hub>]`.
func parseHeader(h section) (name, hub string, err error) {
	fields := strings.Fields(h.text)
	if len(fields) < 3 || !strings.EqualFold(fields[0], "CREATE") ||
		!strings.EqualFold(fields[1], "TRIGGER") {
		return "", "", errorf(h.off, h.text, "expected CREATE TRIGGER <name>")
	}
	name = fields[2]
	rest := fields[3:]
	if len(rest) >= 3 && strings.EqualFold(rest[0], "ON") && strings.EqualFold(rest[1], "HUB") {
		hub = rest[2]
		rest = rest[3:]
	}
	if len(rest) != 0 {
		return "", "", errorf(h.off, h.text,
			"unexpected %q after trigger header", strings.Join(rest, " "))
	}
	return name, hub, nil
}

func parseEventClause(clause section) (Event, Phase, error) {
	fields := strings.Fields(clause.text)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "AFTER") {
		return Event{}, Before, errorf(clause.off, clause.text,
			"expected AFTER <verb> OF <target>")
	}
	phase := Before
	if strings.EqualFold(fields[1], "ASYNC") {
		phase = AfterAsync
		fields = append(fields[:1], fields[2:]...)
	}
	ev, err := parseEventFields(fields[1:], true)
	if err != nil {
		return Event{}, phase, errorf(clause.off, clause.text, "%s", err)
	}
	return ev, phase, nil
}

// parseComposite parses a composite rule's WHEN section, `<op>(atom, …)
// [>= k] WITHIN <duration> [THEN [ALERT] <query>]`. It returns the term and
// the rule's alert query: the one after THEN, else alert (the ALERT
// section's).
func parseComposite(when section, alert string) (*Composite, string, error) {
	text, off := when.text, when.off
	c := &Composite{}
	word := ""
	for op, name := range opNames {
		if wordAt(text, 0, name) {
			c.Op, word = Op(op), name
		}
	}
	if word == "" {
		return nil, "", errorf(off, text, "expected SEQUENCE(, AND( or COUNT( after WHEN, or an AFTER event clause")
	}
	open := strings.IndexByte(text, '(')
	if open < 0 || strings.TrimSpace(text[len(word):open]) != "" {
		return nil, "", errorf(off, text, "expected ( after %s", word)
	}
	end := matchParen(text, open, len(text))
	if end < 0 {
		return nil, "", errorf(off+open, text[open:], "unclosed ( in %s", word)
	}
	atoms, offs := splitTopLevel(text, open+1, end)
	if len(atoms) == 0 {
		return nil, "", errorf(off+open, text[open:end+1], "%s needs at least one atom", word)
	}
	for i, atom := range atoms {
		st, err := parseAtom(atom, off+offs[i])
		if err != nil {
			return nil, "", err
		}
		c.Steps = append(c.Steps, st)
	}

	then := findKeyword(text, end+1, "THEN")
	tail := text
	if then >= 0 {
		tail = text[:then]
	}
	i := skipSpace(tail, end+1)
	if c.Op == Count {
		if !strings.HasPrefix(tail[i:], ">=") {
			return nil, "", errorf(off+i, tail[i:], "COUNT needs >= <threshold> after the atom")
		}
		num := tail[skipSpace(tail, i+2):]
		if f := strings.Fields(num); len(f) > 0 {
			num = f[0]
		}
		k, err := strconv.Atoi(num)
		if err != nil || k < 1 {
			return nil, "", errorf(off+i, tail[i:], "bad COUNT threshold %q", num)
		}
		c.Threshold = k
		i = skipSpace(tail, skipSpace(tail, i+2)+len(num))
	}
	if !wordAt(tail, i, "WITHIN") {
		return nil, "", errorf(off+i, tail[i:], "expected WITHIN <duration> after the atom list")
	}
	fields := strings.Fields(tail[i+len("WITHIN"):])
	if len(fields) == 0 {
		return nil, "", errorf(off+i, tail[i:], "WITHIN needs a duration (e.g. 5m, 90s, 1h)")
	}
	d, err := time.ParseDuration(fields[0])
	if err != nil || d <= 0 {
		return nil, "", errorf(off+i, tail[i:], "bad WITHIN duration %q", fields[0])
	}
	if len(fields) > 1 {
		return nil, "", errorf(off+i, tail[i:], "unexpected %q after WITHIN duration",
			strings.Join(fields[1:], " "))
	}
	c.Window = d

	if then >= 0 {
		q := strings.TrimSpace(text[then+len("THEN"):])
		if wordAt(q, 0, "ALERT") {
			q = strings.TrimSpace(q[len("ALERT"):])
		}
		switch {
		case q != "" && alert != "":
			return nil, "", errorf(off+then, text[then:], "THEN and ALERT both give an alert query")
		case q == "" && alert == "":
			return nil, "", errorf(off+then, text[then:], "THEN needs an alert query")
		case q != "":
			alert = q
		}
	}
	return c, alert, nil
}

// parseAtom parses `[NOT] <event spec> [IF <expr>] [BY <expr>]`; off is
// where atom begins in the declaration.
func parseAtom(atom string, off int) (Step, error) {
	var st Step
	lead := skipSpace(atom, 0)
	text, off := strings.TrimSpace(atom), off+lead
	if wordAt(text, 0, "NOT") {
		st.Negated = true
		text = strings.TrimSpace(text[len("NOT"):])
	}
	ifIdx := findKeyword(text, 0, "IF")
	byIdx := findKeyword(text, 0, "BY")
	specEnd := len(text)
	if ifIdx >= 0 {
		specEnd = ifIdx
	}
	if byIdx >= 0 && byIdx < specEnd {
		specEnd = byIdx
	}
	spec := strings.TrimSpace(text[:specEnd])
	if spec == "" {
		return st, errorf(off, atom, "atom needs an event (e.g. CREATE NODE Txn)")
	}
	ev, err := parseEventSpec(spec)
	if err != nil {
		return st, errorf(off, atom, "%s", err)
	}
	st.Event = ev
	if ifIdx >= 0 {
		guardEnd := len(text)
		if byIdx > ifIdx {
			guardEnd = byIdx
		}
		st.Guard = strings.TrimSpace(text[ifIdx+len("IF") : guardEnd])
		if st.Guard == "" {
			return st, errorf(off+ifIdx, atom, "IF needs a predicate")
		}
	}
	if byIdx >= 0 {
		if byIdx < ifIdx {
			return st, errorf(off+byIdx, atom, "BY must follow IF")
		}
		st.Key = strings.TrimSpace(text[byIdx+len("BY"):])
		if st.Key == "" {
			return st, errorf(off+byIdx, atom, "BY needs a key expression")
		}
	}
	return st, nil
}

// InstallText parses a CREATE TRIGGER declaration and installs it.
func (e *Engine) InstallText(src string) (Rule, error) {
	r, err := ParseRule(src)
	if err != nil {
		return r, err
	}
	return r, e.Install(r)
}

// ---- canonical rendering ----

// Text renders the rule in canonical DSL form, the inverse of ParseRule:
// ParseRule(r.Text()) returns r for every r that ParseRule returns.
func (r Rule) Text() string {
	var b strings.Builder
	b.WriteString("CREATE TRIGGER " + r.Name)
	if r.Hub != "" {
		b.WriteString(" ON HUB " + r.Hub)
	}
	section := func(keyword, text string) {
		if text != "" {
			b.WriteString("\n" + keyword + " " + text)
		}
	}
	if r.Composite != nil {
		section("WHEN", r.Composite.text())
	} else {
		verb, target, _ := strings.Cut(r.Event.String(), " ")
		if r.Phase == AfterAsync {
			verb = "ASYNC " + verb
		}
		section("AFTER", verb+" OF "+target)
		section("WHEN", r.Guard)
	}
	section("ALERT", r.Alert)
	section("DO", r.Action)
	return b.String()
}

// text renders the term as a WHEN section spells it.
func (c *Composite) text() string {
	var b strings.Builder
	// Embedded Cypher ending in a // comment needs a line break before the
	// next token.
	cypher := func(s string) string {
		if strings.Contains(s, "//") {
			return s + "\n"
		}
		return s
	}
	b.WriteString(c.Op.String() + "(")
	for i, st := range c.Steps {
		if i > 0 {
			b.WriteString(", ")
		}
		if st.Negated {
			b.WriteString("NOT ")
		}
		b.WriteString(st.Event.String())
		if st.Guard != "" {
			b.WriteString(" IF " + cypher(st.Guard))
		}
		if st.Key != "" {
			b.WriteString(" BY " + cypher(st.Key))
		}
	}
	b.WriteString(")")
	if c.Op == Count {
		fmt.Fprintf(&b, " >= %d", c.Threshold)
	}
	b.WriteString(" WITHIN " + formatDuration(c.Window))
	return b.String()
}

// formatDuration renders a duration the way the DSL reads it: "5m" rather
// than time.Duration's "5m0s".
func formatDuration(d time.Duration) string {
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}

// ---- keyword scanning ----

// topLevel calls visit(i) for each byte of src[from:end) that is outside
// quotes and Cypher comments (// to end of line, /* … */) and not nested
// inside (…), […], {…} or CASE … END, until visit returns true; it returns
// that i, or -1. The brackets and the words CASE and END themselves count as
// outside when nothing else encloses them. closed reports whether the scan
// ended outside every quote, block comment, bracket and CASE.
func topLevel(src string, from, end int, visit func(i int) bool) (hit int, closed bool) {
	var open []byte // the enclosing brackets, 'C' for a CASE
	var quote byte
	for i := from; i < end && i < len(src); i++ {
		c := src[i]
		if quote != 0 {
			if c == '\\' {
				i++
			} else if c == quote {
				quote = 0
			}
			continue
		}
		switch {
		case c == '\'' || c == '"' || c == '`':
			quote = c
			continue
		case strings.HasPrefix(src[i:], "//"):
			if n := strings.IndexByte(src[i:], '\n'); n >= 0 {
				i += n - 1 // the newline itself is visited
			} else {
				i = len(src)
			}
			continue
		case strings.HasPrefix(src[i:], "/*"):
			if n := strings.Index(src[i+2:], "*/"); n >= 0 {
				i += n + 3
			} else {
				return -1, false
			}
			continue
		case c == ')' || c == ']' || c == '}':
			// Close through any CASE left open inside the bracket (a label
			// or map key spelled "case").
			for len(open) > 0 {
				top := open[len(open)-1]
				open = open[:len(open)-1]
				if top != 'C' {
					break
				}
			}
		case len(open) > 0 && open[len(open)-1] == 'C' && wordAt(src, i, "END"):
			open = open[:len(open)-1]
		}
		if len(open) == 0 && visit(i) {
			return i, true
		}
		switch {
		case c == '(' || c == '[' || c == '{':
			open = append(open, c)
		case wordAt(src, i, "CASE") && !isName(src, i):
			open = append(open, 'C')
		}
	}
	return -1, quote == 0 && len(open) == 0
}

// isName reports whether the word at src[i:] is a name the DSL asks for — a
// trigger's, a hub's, or an event selector — rather than Cypher: it follows
// one of the words that introduce a name, which no Cypher expression can
// follow. A label spelled Case opens no CASE.
func isName(src string, i int) bool {
	prev := strings.TrimRight(src[:i], " \t\r\n")
	for _, w := range []string{"TRIGGER", "HUB", "NODE", "RELATIONSHIP", "EDGE", "LABEL", "PROPERTY"} {
		if len(prev) >= len(w) && wordAt(prev, len(prev)-len(w), w) {
			return true
		}
	}
	return false
}

// wordAt reports whether word stands at src[i:] as a whole word, case
// insensitive. Letters, digits, '_' and '.' continue a word, so a property
// access like x.end is not the word END.
func wordAt(src string, i int, word string) bool {
	return len(src)-i >= len(word) && strings.EqualFold(src[i:i+len(word)], word) &&
		wordBoundary(src, i-1) && wordBoundary(src, i+len(word))
}

func wordBoundary(src string, i int) bool {
	if i < 0 || i >= len(src) {
		return true
	}
	c := src[i]
	return !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.')
}

// findKeyword returns the byte index of the first top-level occurrence of
// word at or after from, or -1.
func findKeyword(src string, from int, word string) int {
	i, _ := topLevel(src, from, len(src), func(i int) bool { return wordAt(src, i, word) })
	return i
}

// matchParen returns the index of the ) matching the ( at open, scanning no
// further than end; -1 if unbalanced.
func matchParen(src string, open, end int) int {
	i, _ := topLevel(src, open, end, func(i int) bool { return src[i] == ')' })
	return i
}

// splitTopLevel splits src[start:end) on top-level commas, returning the
// non-blank pieces and their byte offsets.
func splitTopLevel(src string, start, end int) (parts []string, offs []int) {
	last := start
	flush := func(to int) {
		if strings.TrimSpace(src[last:to]) != "" {
			parts = append(parts, src[last:to])
			offs = append(offs, last)
		}
		last = to + 1
	}
	topLevel(src, start, end, func(i int) bool {
		if src[i] == ',' {
			flush(i)
		}
		return false
	})
	flush(end)
	return parts, offs
}
