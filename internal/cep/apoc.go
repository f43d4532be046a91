package cep

// APOC export of composite rules: the same partial-match design this
// package runs natively, rendered as Neo4j triggers. Each step atom
// becomes one CALL apoc.trigger.install statement that maintains
// :CEPPartial nodes with MERGE/CASE logic, and a final
// apoc.periodic.repeat job plays the drain: it materializes alerts from
// completed partials and deletes expired ones. The emitted statements are
// a faithful porting aid for the operator semantics documented in
// DESIGN.md §14 — review window arithmetic and alert payloads before
// production use, as the paper advises for its own Fig. 6/7 translation.

import (
	"fmt"

	"repro/internal/trigger"
)

// TranslateAPOC renders a composite rule as apoc.trigger.install
// statements — one per step atom — plus an apoc.periodic.repeat drain job.
// dbName is the target database ("neo4j" by convention).
func TranslateAPOC(r Rule, dbName string) ([]string, error) {
	cr, err := compile(r)
	if err != nil {
		return nil, err
	}
	if dbName == "" {
		dbName = "neo4j"
	}
	out := make([]string, 0, len(cr.Steps)+1)
	for i, st := range cr.Steps {
		stmt, err := apocStep(cr, i, st)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf(
			"CALL apoc.trigger.install('%s', '%s',\n%s,\n{phase: 'before'});",
			dbName, stepRuleName(cr.Name, i), trigger.APOCQuote(stmt)))
	}
	out = append(out, apocDrain(cr))
	return out, nil
}

// apocStep renders the trigger statement of one step atom.
func apocStep(cr *compiledRule, i int, st Step) (string, error) {
	source, where, ok := st.Event.APOC(st.Guard)
	if !ok {
		return "", fmt.Errorf("cep: rule %s step %d: APOC export covers creation and deletion events, not %s",
			cr.Name, i, st.Event.Kind)
	}
	if where != "" {
		where = "\nWHERE " + where
	}
	key := "''"
	if st.Key != "" {
		key = "toString(" + trigger.CollapseSpace(st.Key) + ")"
	}
	winMs := cr.Window.Milliseconds()

	var body string
	final := len(cr.Steps) - 1
	switch {
	case cr.Op == Sequence && st.Negated:
		// Absence atom: an occurrence kills an armed partial in-window.
		body = fmt.Sprintf(
			"MATCH (p:CEPPartial {rule: '%s', key: ck})\nWHERE p.state = %d AND NOT p.done AND timestamp() < p.deadline\nDETACH DELETE p",
			cr.Name, final)
	case cr.Op == Sequence && i == 0:
		onMatch := "p.updatedAt = timestamp()"
		if final == 0 {
			// Degenerate single-step sequence completes on open.
			body = fmt.Sprintf(
				"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = 1, p.done = true, p.startedAt = timestamp(), p.doneAt = timestamp(), p.deadline = timestamp() + %d",
				cr.Name, winMs)
			break
		}
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = 1, p.done = false, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET %s",
			cr.Name, winMs, onMatch)
	case cr.Op == Sequence:
		set := fmt.Sprintf("p.state = %d, p.updatedAt = timestamp()", i+1)
		if i == final && !cr.Steps[final].Negated {
			set += ", p.done = true, p.doneAt = timestamp()"
		}
		body = fmt.Sprintf(
			"MATCH (p:CEPPartial {rule: '%s', key: ck})\nWHERE p.state = %d AND NOT p.done AND timestamp() < p.deadline\nSET %s",
			cr.Name, i, set)
	case cr.Op == All:
		bit := int64(1) << i
		full := int64(1)<<len(cr.Steps) - 1
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.state = %d, p.done = %t, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET p.state = CASE WHEN NOT p.done AND timestamp() < p.deadline AND p.state / %d %% 2 = 0 THEN p.state + %d ELSE p.state END,\n  p.done = p.done OR p.state = %d, p.doneAt = CASE WHEN p.state = %d AND p.doneAt IS NULL THEN timestamp() ELSE p.doneAt END",
			cr.Name, bit, bit == full, winMs, bit, bit, full, full)
	default: // Count
		body = fmt.Sprintf(
			"MERGE (p:CEPPartial {rule: '%s', key: ck})\nON CREATE SET p.times = [timestamp()], p.done = %t, p.startedAt = timestamp(), p.deadline = timestamp() + %d\nON MATCH SET p.times = [t IN coalesce(p.times, []) WHERE t >= timestamp() - %d] + timestamp(),\n  p.done = p.done OR size([t IN coalesce(p.times, []) WHERE t >= timestamp() - %d]) + 1 >= %d,\n  p.doneAt = CASE WHEN p.done AND p.doneAt IS NULL THEN timestamp() ELSE p.doneAt END",
			cr.Name, cr.Threshold <= 1, winMs, winMs, winMs, cr.Threshold)
	}

	return fmt.Sprintf("UNWIND %s AS cNode\nWITH cNode AS NEW%s\nWITH NEW, %s AS ck\n%s",
		source, where, key, body), nil
}

// apocDrain renders the periodic drain: materialize alerts from completed
// partials, evict expired ones.
func apocDrain(cr *compiledRule) string {
	alertLabel := cr.AlertLabel
	if alertLabel == "" {
		alertLabel = trigger.DefaultAlertLabel
	}
	stmt := fmt.Sprintf(
		"MATCH (p:CEPPartial {rule: '%s'})\nWITH p, p.done OR (p.state = %d AND timestamp() >= p.deadline) AS completed\nFOREACH (_ IN CASE WHEN completed THEN [1] ELSE [] END |\n  CREATE (:%s {rule: '%s', hub: '%s', dateTime: datetime(), key: p.key}))\nWITH p, completed\nWHERE completed OR timestamp() >= p.deadline\nDETACH DELETE p",
		cr.Name, armedState(cr), alertLabel, cr.Name, cr.Hub)
	return fmt.Sprintf("CALL apoc.periodic.repeat('%s', %s, 1);",
		"cep-drain:"+cr.Name, trigger.APOCQuote(stmt))
}

// armedState is the state value at which an absence rule waits for its
// deadline; rules without a final NOT never reach it via the drain
// (completion is recorded by the step triggers), so any sentinel works.
func armedState(cr *compiledRule) int {
	if cr.Op == Sequence && cr.Steps[len(cr.Steps)-1].Negated {
		return len(cr.Steps) - 1
	}
	return -1
}

// TranslateAllAPOC renders every installed composite rule; rules whose
// steps the Fig. 6 scheme cannot cover are skipped and reported.
func (m *Manager) TranslateAllAPOC(dbName string) (translated []string, skipped []string) {
	for _, info := range m.Rules() {
		out, err := TranslateAPOC(info.Rule, dbName)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", info.Name, err))
			continue
		}
		translated = append(translated, out...)
	}
	return translated, skipped
}
