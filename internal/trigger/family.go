package trigger

// This file is the guard-family layer. A guard (or composite step IF) of the
// form <var>.<key> <cmp> <literal>, the literal on either side, splits at
// compile time into its path <var>.<key> and its comparison. The dispatch
// index groups entries whose paths agree into families, across rules and
// composite steps; a round reads a family's path once per event, and each
// member applies its own comparison to that value. Per-rule attribution
// (GuardChecks, RuleStats, the guard-rejected counter) stays with the
// members: only the reads are shared.

import (
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/value"
)

// cmpGuard is a guard of the form <var>.<key> <cmp> <literal>.
type cmpGuard struct {
	varName, key string
	// path is <var>.<key>, compiled against the guard's own source, so its
	// errors read as the whole guard's would.
	path    *cypher.CompiledExpr
	op      cypher.BinaryOpKind
	lit     value.Value
	litLeft bool // the literal is the left operand
}

// splitGuard recognises a family-shaped guard; nil for any other.
func splitGuard(guard *cypher.CompiledExpr, src string) *cmpGuard {
	if guard == nil {
		return nil
	}
	bin, ok := guard.Expr().(*cypher.BinaryOp)
	if !ok {
		return nil
	}
	switch bin.Op {
	case cypher.OpEq, cypher.OpNeq, cypher.OpLt, cypher.OpGt, cypher.OpLte, cypher.OpGte:
	default:
		return nil
	}
	g := &cmpGuard{op: bin.Op}
	pathExpr, litExpr := bin.L, bin.R
	if _, ok := bin.L.(*cypher.Literal); ok {
		pathExpr, litExpr, g.litLeft = bin.R, bin.L, true
	}
	lit, ok := litExpr.(*cypher.Literal)
	if !ok {
		return nil
	}
	pa, ok := pathExpr.(*cypher.PropAccess)
	if !ok {
		return nil
	}
	v, ok := pa.X.(*cypher.Variable)
	if !ok {
		return nil
	}
	g.varName, g.key, g.lit = v.Name, pa.Key, lit.Val
	g.path = cypher.NewCompiledExpr(pa, src)
	return g
}

// holds applies the member's comparison to the family's path value, under
// the guard's ternary semantics: only an exactly-TRUE result holds.
func (g *cmpGuard) holds(v value.Value) bool {
	l, r := v, g.lit
	if g.litLeft {
		l, r = r, l
	}
	b, known := cypher.Compare(g.op, l, r).Truthy()
	return known && b
}

// familyKey identifies a family: the path its members read.
type familyKey struct{ varName, key string }

// numberFamilies assigns a family number to every family-shaped entry whose
// path at least one other entry shares; -1 marks the rest, whose guards are
// evaluated whole (a family of one has nothing to share). It returns the
// numbering and the number of families.
func numberFamilies(rules map[string]*Compiled) (map[*Compiled]int, int) {
	members := make(map[familyKey][]*Compiled)
	for _, r := range rules {
		for _, cr := range r.dispatched() {
			if cr.cmp != nil {
				k := familyKey{cr.cmp.varName, cr.cmp.key}
				members[k] = append(members[k], cr)
			}
		}
	}
	fam := make(map[*Compiled]int)
	n := 0
	for _, crs := range members {
		if len(crs) < 2 {
			continue
		}
		for _, cr := range crs {
			fam[cr] = n
		}
		n++
	}
	return fam, n
}

// guardMemo holds, for one round, each family's path value per event. What
// follows a passing guard (alert, action, step or async sink) may write, so a
// value read before the transaction's write count moved is read again.
type guardMemo struct {
	families, events int
	slots            [][]memoSlot // [family][event], allocated when first reached
}

type memoSlot struct {
	stamp uint64 // tx.Writes()+1 when read; 0 = not read
	v     value.Value
}

func newGuardMemo(families, events int) guardMemo {
	return guardMemo{families: families, events: events}
}

func (m *guardMemo) slot(fam, i int) *memoSlot {
	if m.slots == nil {
		m.slots = make([][]memoSlot, m.families)
	}
	if m.slots[fam] == nil {
		m.slots[fam] = make([]memoSlot, m.events)
	}
	return &m.slots[fam][i]
}

// check decides d's guard for the round's i-th event: a family member
// applies its comparison to the family's path value, read at most once per
// event between writes; any other guard is evaluated whole. Every read of an
// expression counts in report.GuardEvals.
func (m *guardMemo) check(tx *graph.Tx, d dispatchEntry, i int, bind Binding, now time.Time,
	report *Report) (bool, error) {
	cr := d.cr
	if cr.guard == nil {
		return true, nil
	}
	opts := func() *cypher.Options {
		return &cypher.Options{Bindings: bind, Now: func() time.Time { return now }}
	}
	if d.fam < 0 {
		report.GuardEvals++
		return cr.guard.EvalBool(tx, opts())
	}
	s := m.slot(d.fam, i)
	if stamp := tx.Writes() + 1; s.stamp != stamp {
		report.GuardEvals++
		v, err := cr.cmp.path.Eval(tx, opts())
		if err != nil {
			return false, err
		}
		*s = memoSlot{stamp: stamp, v: v}
	}
	return cr.cmp.holds(s.v), nil
}
