// Package cep layers composite events over the single-event trigger
// engine: sequences, conjunctions, absence (NOT … WITHIN), and sliding
// count windows, in the spirit of the ECA-LP / Reaction RuleML
// composite-event algebra the paper's reaction rules descend from.
//
// A composite rule compiles down to ordinary trigger rules — one per step
// atom, marked with Rule.Composite — whose passing activations feed a
// partial-match automaton via the engine's StepSink. Partial-match state
// lives in durable, skip-labeled CEPPartial graph nodes created inside the
// triggering transaction, so it rides the WAL, snapshots, crash recovery,
// per-shard queues and replication exactly as the async pipeline's
// PendingAlert nodes do. Completed or expired partials are resolved by a
// drain (Manager.DrainOnce) whose follow-up transaction deletes the
// partial node and materializes the composite alert atomically —
// exactly-once across crashes.
package cep

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cypher"
	"repro/internal/trigger"
)

// Errors reported by composite-rule validation and the manager.
var (
	ErrRuleExists   = errors.New("cep: composite rule already installed")
	ErrRuleNotFound = errors.New("cep: composite rule not found")
)

// Op is a composite-event operator.
type Op int

// Composite-event operators.
const (
	// Sequence matches its steps in order, all within Window of the first
	// match. A final negated step (NOT …) turns the rule into absence
	// detection: the match completes when the window closes without the
	// negated event occurring, and is killed if it does occur.
	Sequence Op = iota
	// All matches when every step has occurred, in any order, within
	// Window of the first match (conjunction).
	All
	// Count matches when Threshold occurrences of its single step fall
	// within a sliding Window; on completion the window resets.
	Count
)

// String returns the DSL operator name.
func (o Op) String() string {
	switch o {
	case All:
		return "AND"
	case Count:
		return "COUNT"
	default:
		return "SEQUENCE"
	}
}

// Step is one atom of a composite rule.
type Step struct {
	// Event selects the graph changes that constitute this atom.
	Event trigger.Event
	// Guard is an optional Cypher predicate over the transition variables
	// (IF clause); it runs synchronously in the triggering transaction.
	Guard string
	// Key is an optional Cypher expression (BY clause) whose value
	// correlates occurrences: each distinct key tracks its own partial
	// match. Steps of one rule should agree on the key expression's
	// meaning (e.g. all keyed by account id).
	Key string
	// Negated marks the step as an absence atom (NOT …). Only valid as
	// the final step of a Sequence.
	Negated bool
}

// Rule is a composite-event rule: operator, step atoms, window, and the
// alert to materialize on completion.
type Rule struct {
	// Name identifies the rule (unique within a manager, and distinct
	// from single-event trigger rules' names).
	Name string
	// Hub is the knowledge hub that owns the rule; recorded on alerts.
	Hub string
	// Op is the composite operator.
	Op Op
	// Steps are the atoms. Count takes exactly one.
	Steps []Step
	// Threshold is the occurrence count for Count (≥ 1).
	Threshold int
	// Window bounds the time span of a match, measured on the knowledge
	// base's clock at the commit that carries each occurrence (event time
	// = tx commit order).
	Window time.Duration
	// Alert is an optional Cypher query run on completion with the
	// bindings KEY, RULE, MATCHES, WINDOW, STARTEDAT, DONEAT, FIRST and
	// LAST visible; each row becomes one alert node. Empty produces a
	// single alert node carrying the match summary.
	Alert string
	// AlertLabel overrides the label of produced alert nodes ("Alert").
	AlertLabel string
}

type compiledRule struct {
	Rule
	keys  []*cypher.CompiledExpr // prepared BY expressions, index-aligned with Steps
	alert *trigger.Compiled      // the completion reaction, compiled by the engine at Install
	seq   int
}

// stepRuleName is the engine name of a composite rule's i-th step rule.
func stepRuleName(rule string, i int) string {
	return fmt.Sprintf("cep:%s#%d", rule, i)
}

func compile(r Rule) (*compiledRule, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("cep: rule needs a name")
	}
	if strings.ContainsAny(r.Name, "\x00") {
		return nil, fmt.Errorf("cep: rule %s: name must not contain NUL", r.Name)
	}
	if r.Window <= 0 {
		return nil, fmt.Errorf("cep: rule %s: needs WITHIN window > 0", r.Name)
	}
	if len(r.Steps) == 0 {
		return nil, fmt.Errorf("cep: rule %s: needs at least one step", r.Name)
	}
	switch r.Op {
	case Sequence:
		positive := 0
		for i, st := range r.Steps {
			if st.Negated && i != len(r.Steps)-1 {
				return nil, fmt.Errorf("cep: rule %s: NOT is only valid as the final SEQUENCE step", r.Name)
			}
			if !st.Negated {
				positive++
			}
		}
		if positive == 0 {
			return nil, fmt.Errorf("cep: rule %s: SEQUENCE needs a positive step before NOT", r.Name)
		}
	case All:
		if len(r.Steps) < 2 {
			return nil, fmt.Errorf("cep: rule %s: AND needs at least two steps", r.Name)
		}
		if len(r.Steps) > 62 {
			return nil, fmt.Errorf("cep: rule %s: AND supports at most 62 steps", r.Name)
		}
		for _, st := range r.Steps {
			if st.Negated {
				return nil, fmt.Errorf("cep: rule %s: NOT is not supported under AND", r.Name)
			}
		}
	case Count:
		if len(r.Steps) != 1 {
			return nil, fmt.Errorf("cep: rule %s: COUNT takes exactly one step", r.Name)
		}
		if r.Steps[0].Negated {
			return nil, fmt.Errorf("cep: rule %s: NOT is not supported under COUNT", r.Name)
		}
		if r.Threshold < 1 {
			return nil, fmt.Errorf("cep: rule %s: COUNT needs a threshold ≥ 1", r.Name)
		}
	default:
		return nil, fmt.Errorf("cep: rule %s: unknown operator %d", r.Name, r.Op)
	}
	if r.Op != Count && r.Threshold != 0 {
		return nil, fmt.Errorf("cep: rule %s: threshold is only valid with COUNT", r.Name)
	}
	cr := &compiledRule{Rule: r, keys: make([]*cypher.CompiledExpr, len(r.Steps))}
	for i, st := range r.Steps {
		if st.Guard != "" {
			if _, err := cypher.ParseExpr(st.Guard); err != nil {
				return nil, fmt.Errorf("cep: rule %s step %d IF: %w", r.Name, i, err)
			}
		}
		if st.Key != "" {
			ke, err := cypher.PrepareExpr(st.Key)
			if err != nil {
				return nil, fmt.Errorf("cep: rule %s step %d BY: %w", r.Name, i, err)
			}
			cr.keys[i] = ke
		}
	}
	return cr, nil
}

// stepRules returns the trigger rules a composite rule compiles to.
func (cr *compiledRule) stepRules() []trigger.Rule {
	out := make([]trigger.Rule, len(cr.Steps))
	for i, st := range cr.Steps {
		out[i] = trigger.Rule{
			Name:      stepRuleName(cr.Name, i),
			Hub:       cr.Hub,
			Event:     st.Event,
			Guard:     st.Guard,
			Composite: cr.Name,
			StepIndex: i,
		}
	}
	return out
}
