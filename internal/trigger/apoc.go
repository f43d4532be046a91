package trigger

// The paper's §IV-B defines a syntax-directed translation from reactive
// knowledge rules into Neo4j APOC triggers (Figs. 6 and 7): the trigger
// statement UNWINDs the transaction's created nodes into the cNode
// transition variable, applies the guard, and uses apoc.do.when to run the
// alert and create the Alert node. TranslateAPOC implements that
// translation, so rules authored against this library can be exported to a
// real Neo4j + APOC deployment.
//
// A composite rule gets the same partial-match design internal/cep runs
// natively, rendered as Neo4j triggers: each step atom becomes one
// apoc.trigger.install statement that maintains :CEPPartial nodes with
// MERGE/CASE logic, and a final apoc.periodic.repeat job plays the drain: it
// materializes alerts from completed partials and deletes expired ones. The
// emitted statements are a porting aid for the operator semantics
// documented in DESIGN.md §14 — review window arithmetic and alert payloads
// before production use, as the paper advises for its own Fig. 6/7
// translation.

import (
	"fmt"
	"strings"

	"repro/internal/cypher"
)

// TranslateAPOC renders the rule as APOC statements: one CALL
// apoc.trigger.install following the paper's syntax-directed translation
// for a single-event rule; one per step atom plus an apoc.periodic.repeat
// drain job for a composite rule. dbName is the target database ("neo4j"
// by convention); phase is the APOC action time of a single-event rule
// ("before", "after" or "afterAsync"; empty means the rule's own Phase, so
// AfterAsync rules emit {phase: 'afterAsync'}).
func TranslateAPOC(r Rule, dbName, phase string) ([]string, error) {
	if dbName == "" {
		dbName = "neo4j"
	}
	if r.Action != "" {
		return nil, fmt.Errorf("trigger: APOC translation covers alert-node rules; rule %s has a custom action", r.Name)
	}
	if r.Composite != nil {
		return translateComposite(r, dbName)
	}
	if phase == "" {
		phase = r.Phase.String()
	}
	// The do.when condition: the changed entity carries the selected label,
	// plus the rule's guard.
	source, condition, ok := r.Event.APOC(r.Guard)
	if !ok {
		return nil, fmt.Errorf("trigger: APOC translation covers creation and deletion events, not %s",
			r.Event.Kind)
	}
	if condition == "" {
		condition = "true"
	}

	// The do.when action: the alert query extended with the Alert-node
	// creation carrying the mandatory properties and the alert columns.
	action, err := buildAPOCAction(r)
	if err != nil {
		return nil, err
	}

	statement := fmt.Sprintf(
		"UNWIND %s AS cNode\nWITH cNode AS NEW\nCALL apoc.do.when(\n  %s,\n  %s,\n  '',\n  {NEW: NEW}\n) YIELD value RETURN *",
		source, condition, apocQuote(action))

	return []string{fmt.Sprintf("CALL apoc.trigger.install(%s, %s,\n%s,\n{phase: '%s'});",
		"'"+dbName+"'", "'"+r.Name+"'", apocQuote(statement), phase)}, nil
}

// buildAPOCAction assembles the alert query plus alert-node creation. The
// alert's result columns become both the WITH projection and the Alert
// node's payload properties, mirroring Fig. 7.
func buildAPOCAction(r Rule) (string, error) {
	if r.Alert == "" {
		// Guard-only rule: the passing guard is itself critical.
		return fmt.Sprintf("CREATE (:%s {%s})", AlertLabel, apocAlertProps(r)), nil
	}
	stmt, err := cypher.Parse(r.Alert)
	if err != nil {
		return "", fmt.Errorf("trigger: rule %s alert: %w", r.Name, err)
	}
	cols := cypher.ResultColumns(stmt)
	if len(cols) == 0 {
		return "", fmt.Errorf("trigger: rule %s alert must end in RETURN with named columns for APOC translation", r.Name)
	}
	// Strip the final RETURN and replace it with WITH + CREATE, as the
	// Fig. 7 trigger does.
	alertText := collapseSpace(r.Alert)
	idx := strings.LastIndex(strings.ToUpper(alertText), "RETURN ")
	if idx < 0 {
		return "", fmt.Errorf("trigger: rule %s alert has no RETURN clause", r.Name)
	}
	body := strings.TrimSpace(alertText[:idx])
	projection := strings.TrimSpace(alertText[idx+len("RETURN "):])

	props := []string{apocAlertProps(r)}
	for _, c := range cols {
		props = append(props, fmt.Sprintf("%s: %s", c, c))
	}
	return fmt.Sprintf("%s WITH %s CREATE (:%s {%s})",
		body, projection, AlertLabel, strings.Join(props, ", ")), nil
}

// apocAlertProps renders the mandatory alert properties of r's alert nodes
// as a Cypher map body.
func apocAlertProps(r Rule) string {
	return fmt.Sprintf("%s: '%s', %s: '%s', %s: datetime()",
		AlertRuleProp, r.Name, AlertHubProp, r.Hub, AlertDateTimeProp)
}

// translateComposite renders a composite rule's step triggers and drain job.
func translateComposite(r Rule, dbName string) ([]string, error) {
	if err := r.Composite.validate(); err != nil {
		return nil, fmt.Errorf("trigger: rule %s: %w", r.Name, err)
	}
	out := make([]string, 0, len(r.Steps)+1)
	for i, st := range r.Steps {
		stmt, err := apocStep(r, i, st)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf(
			"CALL apoc.trigger.install('%s', '%s',\n%s,\n{phase: 'before'});",
			dbName, stepName(r.Name, i), apocQuote(stmt)))
	}
	// The drain: materialize alerts from completed partials, evict expired
	// ones. armed is the state at which an absence rule waits for its
	// deadline; other rules record completion in their step triggers, so
	// any sentinel works.
	armed, final := -1, len(r.Steps)-1
	if r.Op == Sequence && r.Steps[final].Negated {
		armed = final
	}
	drain := fmt.Sprintf(
		"MATCH (p:CEPPartial {rule: '%s'})\nWITH p, p.done OR (p.state = %d AND timestamp() >= p.deadline) AS completed\nFOREACH (_ IN CASE WHEN completed THEN [1] ELSE [] END |\n  CREATE (:%s {%s, key: p.key}))\nWITH p, completed\nWHERE completed OR timestamp() >= p.deadline\nDETACH DELETE p",
		r.Name, armed, AlertLabel, apocAlertProps(r))
	return append(out, fmt.Sprintf("CALL apoc.periodic.repeat('%s', %s, 1);",
		"cep-drain:"+r.Name, apocQuote(drain))), nil
}

// apocStep renders the trigger statement of one step atom.
func apocStep(r Rule, i int, st Step) (string, error) {
	source, where, ok := st.Event.APOC(st.Guard)
	if !ok {
		return "", fmt.Errorf("trigger: rule %s step %d: APOC export covers creation and deletion events, not %s",
			r.Name, i, st.Event.Kind)
	}
	if where != "" {
		where = "\nWHERE " + where
	}
	key := "''"
	if st.Key != "" {
		key = "toString(" + collapseSpace(st.Key) + ")"
	}
	winMs := r.Window.Milliseconds()

	var body string
	final := len(r.Steps) - 1
	switch {
	case r.Op == Sequence && st.Negated:
		// Absence atom: an occurrence kills an armed partial in-window.
		body = fmt.Sprintf(
			"MATCH (p:CEPPartial {rule: '%s', key: ck})\nWHERE p.state = %d AND NOT p.done AND timestamp() < p.deadline\nDETACH DELETE p",
			r.Name, final)
	case r.Op == Sequence && i == 0 && final == 0:
		// Degenerate single-step sequence completes on open.
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = 1, p.done = true, p.startedAt = timestamp(), p.doneAt = timestamp(), p.deadline = timestamp() + %d",
			r.Name, winMs)
	case r.Op == Sequence && i == 0:
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = 1, p.done = false, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET p.updatedAt = timestamp()",
			r.Name, winMs)
	case r.Op == Sequence:
		set := fmt.Sprintf("p.state = %d, p.updatedAt = timestamp()", i+1)
		if i == final {
			set += ", p.done = true, p.doneAt = timestamp()"
		}
		body = fmt.Sprintf(
			"MATCH (p:CEPPartial {rule: '%s', key: ck})\nWHERE p.state = %d AND NOT p.done AND timestamp() < p.deadline\nSET %s",
			r.Name, i, set)
	case r.Op == All:
		bit := int64(1) << i
		full := int64(1)<<len(r.Steps) - 1
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = %d, p.done = %t, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET p.state = CASE WHEN NOT p.done AND timestamp() < p.deadline AND p.state / %d %% 2 = 0 THEN p.state + %d ELSE p.state END,\n  p.done = p.done OR p.state = %d, p.doneAt = CASE WHEN p.state = %d AND p.doneAt IS NULL THEN timestamp() ELSE p.doneAt END",
			r.Name, bit, bit == full, winMs, bit, bit, full, full)
	default: // Count
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.times = [timestamp()], p.done = %t, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET p.times = [t IN coalesce(p.times, []) WHERE t >= timestamp() - %d] + timestamp(),\n  p.done = p.done OR size([t IN coalesce(p.times, []) WHERE t >= timestamp() - %d]) + 1 >= %d,\n  p.doneAt = CASE WHEN p.done AND p.doneAt IS NULL THEN timestamp() ELSE p.doneAt END",
			r.Name, r.Threshold <= 1, winMs, winMs, winMs, r.Threshold)
	}

	return fmt.Sprintf("UNWIND %s AS cNode\nWITH cNode AS NEW%s\nWITH NEW, %s AS ck\n%s",
		source, where, key, body), nil
}

// apocQuote renders s as a double-quoted Cypher string literal.
func apocQuote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}

// collapseSpace normalizes the whitespace of embedded Cypher so the emitted
// trigger stays on few lines, like the paper's Fig. 7 listing.
func collapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// APOCExport is the APOC rendering of an engine's rule set: single-event
// rules as Fig. 6 triggers, composite rules as step triggers plus drain
// jobs, and per scheme the rules it does not cover, with the reason.
type APOCExport struct {
	Triggers, Skipped           []string
	Composite, CompositeSkipped []string
}

// TranslateAllAPOC renders every installed rule (see TranslateAPOC).
func (e *Engine) TranslateAllAPOC(dbName, phase string) APOCExport {
	var out APOCExport
	for _, info := range e.Rules() {
		done, skipped := &out.Triggers, &out.Skipped
		if info.Composite != nil {
			done, skipped = &out.Composite, &out.CompositeSkipped
		}
		stmts, err := TranslateAPOC(info.Rule, dbName, phase)
		if err != nil {
			*skipped = append(*skipped, fmt.Sprintf("%s: %v", info.Name, err))
			continue
		}
		*done = append(*done, stmts...)
	}
	return out
}
