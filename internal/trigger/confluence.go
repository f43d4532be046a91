package trigger

// Confluence analysis, the second classic property of reactive computations
// the paper cites alongside termination (§III-B, [11]): when several rules
// are activated by the same event, the final state should not depend on the
// order in which the engine fires them. This file implements a conservative
// static check: two rules are reported as potentially non-confluent when
// the same event can activate both and their write footprints conflict
// (one writes what the other reads or writes).

import "strings"

// ConfluenceWarning reports one potentially order-dependent rule pair.
type ConfluenceWarning struct {
	RuleA string
	RuleB string
	Event string // the shared activating event
	Why   string
}

// eventOverlap reports whether some single graph change can activate both
// selectors.
func eventOverlap(a, b Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Label != "" && b.Label != "" && a.Label != b.Label {
		return false
	}
	if a.Kind == SetProperty || a.Kind == RemoveProperty {
		if a.PropKey != "" && b.PropKey != "" && a.PropKey != b.PropKey {
			return false
		}
	}
	return true
}

// sharedEvent returns a selector of a (one of its step atoms', for a
// composite rule) that some single graph change can activate together with
// one of b's.
func sharedEvent(a, b *Compiled) (Event, bool) {
	for _, da := range a.dispatched() {
		for _, db := range b.dispatched() {
			if eventOverlap(da.Event, db.Event) {
				return da.Event, true
			}
		}
	}
	return Event{}, false
}

// writesConflict reports whether the write footprint of a conflicts with
// the read or write footprint of b, with an explanation.
func writesConflict(a, b footprint) (bool, string) {
	if a.deletes && (len(b.readLabels) > 0 || len(b.readRelTypes) > 0 || b.deletes) {
		return true, "deletes entities the other may read"
	}
	// Writer/reader label overlap.
	for _, wl := range a.created {
		for _, rl := range b.readLabels {
			if wl == rl {
				return true, "creates :" + wl + " which the other reads"
			}
		}
	}
	for _, wt := range a.createdRels {
		for _, rt := range b.readRelTypes {
			if wt == rt {
				return true, "creates relationship :" + wt + " which the other reads"
			}
		}
	}
	// Property writes vs. property writes or reads are conservative: any
	// shared key (or a wildcard) conflicts.
	for _, ka := range a.setsProps {
		for _, kb := range b.setsProps {
			if ka == "*" || kb == "*" || ka == kb {
				return true, "both set property ." + nonWildcard(ka, kb)
			}
		}
		for _, kb := range b.removesProps {
			if ka == "*" || ka == kb {
				return true, "one sets and one removes property ." + nonWildcard(ka, kb)
			}
		}
	}
	for _, la := range a.setsLabels {
		for _, lb := range b.setsLabels {
			if la == lb {
				return true, "both set label :" + la
			}
		}
	}
	return false, ""
}

func nonWildcard(a, b string) string {
	if a != "*" {
		return a
	}
	return b
}

// alertOnly reports whether the rule's only write effect is alert-node
// creation: alert nodes carry fresh identity and are append-only, so two
// alert-only rules commute even when they read the same data.
func alertOnly(fp footprint) bool {
	if fp.deletes || len(fp.setsProps) > 0 || len(fp.setsLabels) > 0 ||
		len(fp.removesProps) > 0 || len(fp.createdRels) > 0 {
		return false
	}
	for _, l := range fp.created {
		if l != AlertLabel {
			return false
		}
	}
	return true
}

// readsLabel reports whether the footprint's read set contains the label.
func readsLabel(fp footprint, label string) bool {
	for _, l := range fp.readLabels {
		if l == label {
			return true
		}
	}
	return false
}

// CheckConfluence conservatively reports rule pairs whose outcome may
// depend on firing order. Pairs of alert-node-only rules are confluent by
// construction and never reported.
func (e *Engine) CheckConfluence() []ConfluenceWarning {
	e.mu.RLock()
	rules := e.ruleListLocked()
	e.mu.RUnlock()

	var out []ConfluenceWarning
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			a, b := rules[i], rules[j]
			ev, ok := sharedEvent(a, b)
			if !ok {
				continue
			}
			fa, fb := a.footprint(), b.footprint()
			if alertOnly(fa) && alertOnly(fb) &&
				!readsLabel(fa, AlertLabel) && !readsLabel(fb, AlertLabel) {
				// Two append-only alert producers commute — unless one of
				// them reads the other's alerts, in which case the firing
				// order within a round is observable.
				continue
			}
			if conflict, why := writesConflict(fa, fb); conflict {
				out = append(out, ConfluenceWarning{
					RuleA: a.Name, RuleB: b.Name,
					Event: ev.String(), Why: why,
				})
				continue
			}
			if conflict, why := writesConflict(fb, fa); conflict {
				out = append(out, ConfluenceWarning{
					RuleA: a.Name, RuleB: b.Name,
					Event: ev.String(), Why: why,
				})
			}
		}
	}
	return out
}

// String renders a warning.
func (w ConfluenceWarning) String() string {
	var sb strings.Builder
	sb.WriteString(w.RuleA)
	sb.WriteString(" / ")
	sb.WriteString(w.RuleB)
	sb.WriteString(" on ")
	sb.WriteString(w.Event)
	sb.WriteString(": ")
	sb.WriteString(w.Why)
	return sb.String()
}
