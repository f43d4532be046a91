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
// (AFTER …), then optionally WHEN (guard), ALERT (alert query) and DO
// (action statement). The guard ends where the next section begins, so
// multi-line guards and alerts need no delimiters. A keyword inside quotes,
// brackets or CASE … END is Cypher, not a section: a guard or alert may
// break CASE and WHEN across lines.
//
// Event forms:
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
// Parse errors carry the byte offset of the offending clause within the
// declaration plus the clause text itself, so multi-rule scripts can point
// at the exact spot.

import (
	"fmt"
	"strings"
)

// Dialect names the DSL a declaration is written in — this package's
// "trigger", or internal/cep's "cep" — in the parse errors of what the two
// share.
type Dialect string

const dsl Dialect = "trigger"

// Errorf builds a parse error that names the offending clause and its byte
// offset within the declaration source.
func (d Dialect) Errorf(off int, clause, format string, args ...any) error {
	c := CollapseSpace(clause)
	if len(c) > 60 {
		c = c[:57] + "..."
	}
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("%s dsl: %s (byte %d: %q)", d, msg, off, c)
}

// ParseRule parses one CREATE TRIGGER declaration into a Rule. The result
// still needs Engine.Install (which compiles the embedded Cypher).
func ParseRule(src string) (Rule, error) {
	var r Rule
	sections, err := splitSections(src)
	if err != nil {
		return r, err
	}
	if r.Name, r.Hub, err = dsl.ParseHeader(sections.header.text, sections.header.off); err != nil {
		return r, err
	}
	if sections.event.text == "" {
		return r, fmt.Errorf("trigger dsl: missing AFTER event clause")
	}
	ev, phase, err := parseEventClause(sections.event)
	if err != nil {
		return r, err
	}
	r.Event = ev
	r.Phase = phase
	r.Guard = strings.TrimSpace(sections.when.text)
	r.Alert = strings.TrimSpace(sections.alert.text)
	r.Action = strings.TrimSpace(sections.do.text)
	if r.Guard == "" && r.Alert == "" && r.Action == "" {
		return r, fmt.Errorf("trigger dsl: trigger %s needs WHEN, ALERT or DO", r.Name)
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

// section is one keyword-introduced part of a declaration, remembering
// where its text begins in the source so errors can point at it.
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
}

// splitSections cuts the source at the section keywords that open a line
// outside quotes, brackets and CASE … END. The event section keeps its AFTER;
// the others start behind their keyword.
func splitSections(src string) (ruleSections, error) {
	var out ruleSections
	var err error
	cur := &out.header
	keywords := []struct {
		word string
		sec  *section
	}{{"AFTER", &out.event}, {"WHEN", &out.when}, {"ALERT", &out.alert}, {"DO", &out.do}}
	seen := map[*section]bool{}
	topLevel(src, 0, len(src), func(i int) bool {
		line := strings.LastIndexByte(src[:i], '\n') + 1
		if strings.TrimSpace(src[line:i]) != "" {
			return false
		}
		for _, kw := range keywords {
			if !WordAt(src, i, kw.word) {
				continue
			}
			start := i
			if kw.sec != &out.event {
				start += len(kw.word)
				start += len(src[start:]) - len(strings.TrimLeft(src[start:], " \t"))
			}
			if seen[kw.sec] {
				rest, _, _ := strings.Cut(src[start:], "\n")
				err = dsl.Errorf(i, rest, "duplicate %s section", kw.word)
				return true
			}
			seen[kw.sec] = true
			cur.text = strings.TrimSpace(src[cur.off:i])
			cur = kw.sec
			cur.off = start
			return false
		}
		return false
	})
	cur.text = strings.TrimSpace(src[cur.off:])
	return out, err
}

// ParseHeader parses `CREATE TRIGGER <name> [ON HUB <hub>]`, the header both
// DSLs open with; off is where header starts in the declaration source.
func (d Dialect) ParseHeader(header string, off int) (name, hub string, err error) {
	fields := strings.Fields(header)
	if len(fields) < 3 || !strings.EqualFold(fields[0], "CREATE") ||
		!strings.EqualFold(fields[1], "TRIGGER") {
		return "", "", d.Errorf(off, header, "expected CREATE TRIGGER <name>")
	}
	name = fields[2]
	rest := fields[3:]
	if len(rest) >= 3 && strings.EqualFold(rest[0], "ON") && strings.EqualFold(rest[1], "HUB") {
		hub = rest[2]
		rest = rest[3:]
	}
	if len(rest) != 0 {
		return "", "", d.Errorf(off, header,
			"unexpected %q after trigger header", strings.Join(rest, " "))
	}
	return name, hub, nil
}

func parseEventClause(clause section) (Event, Phase, error) {
	fields := strings.Fields(clause.text)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "AFTER") {
		return Event{}, Before, dsl.Errorf(clause.off, clause.text,
			"expected AFTER <verb> OF <target>")
	}
	phase := Before
	if strings.EqualFold(fields[1], "ASYNC") {
		phase = AfterAsync
		fields = append(fields[:1], fields[2:]...)
	}
	ev, err := parseEventFields(fields[1:], true)
	if err != nil {
		return Event{}, phase, dsl.Errorf(clause.off, clause.text, "%s", err)
	}
	return ev, phase, nil
}

// InstallText parses a CREATE TRIGGER declaration and installs it.
func (e *Engine) InstallText(src string) (Rule, error) {
	r, err := ParseRule(src)
	if err != nil {
		return r, err
	}
	return r, e.Install(r)
}

// ---- keyword scanning, shared with the composite DSL (internal/cep) ----

// topLevel calls visit(i) for each byte of src[from:end) that is outside
// quotes and Cypher comments (// to end of line, /* … */) and not nested
// inside (…), […], {…} or CASE … END, until visit returns true; it returns
// that i, or -1. The brackets and the words CASE and END themselves count as
// outside when nothing else encloses them.
func topLevel(src string, from, end int, visit func(i int) bool) int {
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
				i = len(src)
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
		case len(open) > 0 && open[len(open)-1] == 'C' && WordAt(src, i, "END"):
			open = open[:len(open)-1]
		}
		if len(open) == 0 && visit(i) {
			return i
		}
		switch {
		case c == '(' || c == '[' || c == '{':
			open = append(open, c)
		case WordAt(src, i, "CASE") && !isName(src, i):
			open = append(open, 'C')
		}
	}
	return -1
}

// isName reports whether the word at src[i:] is a name the DSL asks for — a
// trigger's, a hub's, or an event selector — rather than Cypher: it follows
// one of the words that introduce a name, which no Cypher expression can
// follow. A label spelled Case opens no CASE.
func isName(src string, i int) bool {
	prev := strings.TrimRight(src[:i], " \t\r\n")
	for _, w := range []string{"TRIGGER", "HUB", "NODE", "RELATIONSHIP", "EDGE", "LABEL", "PROPERTY"} {
		if len(prev) >= len(w) && WordAt(prev, len(prev)-len(w), w) {
			return true
		}
	}
	return false
}

// WordAt reports whether word stands at src[i:] as a whole word, case
// insensitive. Letters, digits, '_' and '.' continue a word, so a property
// access like x.end is not the word END.
func WordAt(src string, i int, word string) bool {
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

// FindKeyword returns the byte index of the first top-level occurrence of
// word at or after from, or -1.
func FindKeyword(src string, from int, word string) int {
	return topLevel(src, from, len(src), func(i int) bool { return WordAt(src, i, word) })
}

// MatchParen returns the index of the ) matching the ( at open, scanning no
// further than end; -1 if unbalanced.
func MatchParen(src string, open, end int) int {
	return topLevel(src, open, end, func(i int) bool { return src[i] == ')' })
}

// SplitTopLevel splits src[start:end) on top-level commas, returning the
// non-blank pieces and their absolute byte offsets.
func SplitTopLevel(src string, start, end int) (parts []string, offs []int) {
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
