package trigger

// Termination analysis in the Baralis–Ceri–Widom tradition the paper cites:
// build the triggering graph — rule A has an edge to rule B when an action
// of A can generate an event that activates B — and look for cycles. A
// cycle-free triggering graph guarantees termination of any cascade; cycles
// are conservative warnings (they may still terminate at runtime, which is
// why the engine additionally enforces a cascade depth bound).

import "sort"

// TriggeringEdge is one edge of the triggering graph.
type TriggeringEdge struct {
	From string
	To   string
	Why  string
}

// canTrigger reports whether the actions of a can generate an event that
// activates b (one of b's step atoms, for a composite rule), with an
// explanation.
func canTrigger(a, b *Compiled) (bool, string) {
	fa := a.footprint()
	for _, d := range b.dispatched() {
		if ok, why := fa.raises(d.Event); ok {
			return true, why
		}
	}
	return false, ""
}

// raises reports whether writes of footprint fa can generate an event ev
// selects, with an explanation.
func (fa footprint) raises(ev Event) (bool, string) {
	switch ev.Kind {
	case CreateNode:
		for _, l := range fa.created {
			if ev.Label == "" || ev.Label == l {
				return true, "creates node :" + l
			}
		}
	case CreateRelationship:
		for _, t := range fa.createdRels {
			if ev.Label == "" || ev.Label == t {
				return true, "creates relationship :" + t
			}
		}
	case SetLabel:
		for _, l := range fa.setsLabels {
			if ev.Label == "" || ev.Label == l {
				return true, "sets label :" + l
			}
		}
	case RemoveLabel:
		// REMOVE clauses are folded into setsLabels' complement; be
		// conservative: any rule that deletes or rewrites labels may fire
		// label-removal rules.
		if fa.deletes {
			return true, "deletes entities"
		}
	case SetProperty:
		for _, k := range fa.setsProps {
			if ev.PropKey == "" || k == "*" || ev.PropKey == k {
				return true, "sets property ." + k
			}
		}
		// Creating a node with the selected label also implies its
		// properties appear, but creation events are distinct from
		// property-set events in our model, as in Neo4j.
	case RemoveProperty:
		for _, k := range fa.removesProps {
			if ev.PropKey == "" || ev.PropKey == k {
				return true, "removes property ." + k
			}
		}
		if fa.deletes {
			return true, "deletes entities"
		}
	case DeleteNode, DeleteRelationship:
		if fa.deletes {
			return true, "deletes entities"
		}
	}
	return false, ""
}

// TriggeringGraph computes all edges among the given rules.
func triggeringGraph(rules []*Compiled) []TriggeringEdge {
	var edges []TriggeringEdge
	for _, a := range rules {
		for _, b := range rules {
			if ok, why := canTrigger(a, b); ok {
				edges = append(edges, TriggeringEdge{From: a.Name, To: b.Name, Why: why})
			}
		}
	}
	return edges
}

// findCycles returns the elementary cycles (as rule-name paths) reachable
// in the triggering graph of the rules; an empty result certifies
// termination.
func findCycles(rules []*Compiled) [][]string {
	adj := make(map[string][]string)
	for _, e := range triggeringGraph(rules) {
		adj[e.From] = append(adj[e.From], e.To)
	}
	var cycles [][]string
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string

	var dfs func(n string)
	dfs = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch state[m] {
			case 0:
				dfs(m)
			case 1:
				// Found a cycle: slice the stack from m's position.
				for i, s := range stack {
					if s == m {
						cycle := append([]string(nil), stack[i:]...)
						cycles = append(cycles, cycle)
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		if state[n] == 0 {
			dfs(n)
		}
	}
	return cycles
}

// TriggeringGraph exposes the triggering graph of the installed rules.
func (e *Engine) TriggeringGraph() []TriggeringEdge {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return triggeringGraph(e.ruleListLocked())
}

// CheckTermination returns the triggering-graph cycles among the installed
// rules; an empty result certifies that every cascade terminates.
func (e *Engine) CheckTermination() [][]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return findCycles(e.ruleListLocked())
}
