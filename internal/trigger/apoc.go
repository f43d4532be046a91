package trigger

// The paper's §IV-B defines a syntax-directed translation from reactive
// knowledge rules into Neo4j APOC triggers (Figs. 6 and 7): the trigger
// statement UNWINDs the transaction's created nodes into the cNode
// transition variable, applies the guard, and uses apoc.do.when to run the
// alert and create the Alert node. TranslateAPOC implements that
// translation, so rules authored against this library can be exported to a
// real Neo4j + APOC deployment.

import (
	"fmt"
	"strings"

	"repro/internal/cypher"
)

// TranslateAPOC renders the rule as a CALL apoc.trigger.install statement
// following the paper's syntax-directed translation. dbName is the target
// database ("neo4j" by convention); phase is the APOC action time
// ("before", "after" or "afterAsync"; empty means the rule's own Phase, so
// AfterAsync rules emit {phase: 'afterAsync'}).
func TranslateAPOC(r Rule, dbName, phase string) (string, error) {
	if dbName == "" {
		dbName = "neo4j"
	}
	if phase == "" {
		phase = r.Phase.String()
	}
	// The do.when condition: the changed entity carries the selected label,
	// plus the rule's guard.
	source, condition, ok := r.Event.APOC(r.Guard)
	if !ok {
		return "", fmt.Errorf("trigger: APOC translation covers creation and deletion events, not %s",
			r.Event.Kind)
	}
	if condition == "" {
		condition = "true"
	}
	if r.Action != "" {
		return "", fmt.Errorf("trigger: APOC translation covers alert-node rules; rule %s has a custom action", r.Name)
	}
	if r.Composite != "" {
		return "", fmt.Errorf("trigger: rule %s is a step of composite rule %s; composite rules are exported by the cep manager", r.Name, r.Composite)
	}
	alertLabel := r.AlertLabel
	if alertLabel == "" {
		alertLabel = DefaultAlertLabel
	}

	// The do.when action: the alert query extended with the Alert-node
	// creation carrying the mandatory properties and the alert columns.
	action, err := buildAPOCAction(r, alertLabel)
	if err != nil {
		return "", err
	}

	statement := fmt.Sprintf(
		"UNWIND %s AS cNode\nWITH cNode AS NEW\nCALL apoc.do.when(\n  %s,\n  %s,\n  '',\n  {NEW: NEW}\n) YIELD value RETURN *",
		source, condition, APOCQuote(action))

	return fmt.Sprintf("CALL apoc.trigger.install(%s, %s,\n%s,\n{phase: '%s'});",
		"'"+dbName+"'", "'"+r.Name+"'", APOCQuote(statement), phase), nil
}

// buildAPOCAction assembles the alert query plus alert-node creation. The
// alert's result columns become both the WITH projection and the Alert
// node's payload properties, mirroring Fig. 7.
func buildAPOCAction(r Rule, alertLabel string) (string, error) {
	if r.Alert == "" {
		// Guard-only rule: the passing guard is itself critical.
		return fmt.Sprintf("CREATE (:%s {rule: '%s', hub: '%s', dateTime: datetime()})",
			alertLabel, r.Name, r.Hub), nil
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
	alertText := CollapseSpace(r.Alert)
	idx := strings.LastIndex(strings.ToUpper(alertText), "RETURN ")
	if idx < 0 {
		return "", fmt.Errorf("trigger: rule %s alert has no RETURN clause", r.Name)
	}
	body := strings.TrimSpace(alertText[:idx])
	projection := strings.TrimSpace(alertText[idx+len("RETURN "):])

	props := []string{
		fmt.Sprintf("rule: '%s'", r.Name),
		fmt.Sprintf("hub: '%s'", r.Hub),
		"dateTime: datetime()",
	}
	for _, c := range cols {
		props = append(props, fmt.Sprintf("%s: %s", c, c))
	}
	return fmt.Sprintf("%s WITH %s CREATE (:%s {%s})",
		body, projection, alertLabel, strings.Join(props, ", ")), nil
}

// APOCQuote renders s as a double-quoted Cypher string literal.
func APOCQuote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}

// CollapseSpace normalizes the whitespace of embedded Cypher so the emitted
// trigger stays on few lines, like the paper's Fig. 7 listing.
func CollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// TranslateAllAPOC renders every installed rule that the Fig. 6 scheme
// covers; rules with unsupported event kinds are skipped and reported in
// the second return value. The steps of a composite rule are not rules of
// their own and are not listed (the cep manager exports the composite).
func (e *Engine) TranslateAllAPOC(dbName, phase string) (translated []string, skipped []string) {
	for _, info := range e.Rules() {
		if info.Composite != "" {
			continue
		}
		out, err := TranslateAPOC(info.Rule, dbName, phase)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", info.Name, err))
			continue
		}
		translated = append(translated, out)
	}
	return translated, skipped
}
