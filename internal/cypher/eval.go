package cypher

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// evalCtx carries everything compiled-expression evaluation needs: the
// transaction, query parameters, the clock, and (during aggregation
// finalization) the computed values of aggregate sub-expressions.
type evalCtx struct {
	tx         *graph.Tx
	params     map[string]value.Value
	now        func() time.Time
	query      string
	aggSub     map[*FuncCall]value.Value // aggregate results during finalize
	regexCache map[string]*regexp.Regexp // compiled =~ patterns
}

func (c *evalCtx) timeNow() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// env maps variable names to row slots. Environments are immutable once
// built; clauses derive new environments when they change the projection.
type env struct {
	names []string
	index map[string]int
}

func newEnv() *env {
	return &env{index: make(map[string]int)}
}

func (e *env) clone() *env {
	ne := &env{names: append([]string(nil), e.names...), index: make(map[string]int, len(e.index))}
	for k, v := range e.index {
		ne.index[k] = v
	}
	return ne
}

// add binds name to a new slot and returns its index. Adding an existing
// name returns the existing slot.
func (e *env) add(name string) int {
	if i, ok := e.index[name]; ok {
		return i
	}
	i := len(e.names)
	e.names = append(e.names, name)
	e.index[name] = i
	return i
}

func (e *env) lookup(name string) (int, bool) {
	i, ok := e.index[name]
	return i, ok
}

type row = []value.Value

// propOf resolves entity, map and temporal property access.
func propOf(ctx *evalCtx, base value.Value, key string) (value.Value, error) {
	switch base.Kind() {
	case value.KindNull:
		return value.Null, nil
	case value.KindNode:
		id, _ := base.EntityID()
		v, ok := ctx.tx.NodeProp(graph.NodeID(id), key)
		if !ok {
			return value.Null, nil
		}
		return v, nil
	case value.KindRelationship:
		id, _ := base.EntityID()
		v, ok := ctx.tx.RelProp(graph.RelID(id), key)
		if !ok {
			return value.Null, nil
		}
		return v, nil
	case value.KindMap:
		m, _ := base.AsMap()
		if v, ok := m[key]; ok {
			return v, nil
		}
		return value.Null, nil
	case value.KindDateTime:
		t, _ := base.AsDateTime()
		switch key {
		case "year":
			return value.Int(int64(t.Year())), nil
		case "month":
			return value.Int(int64(t.Month())), nil
		case "day":
			return value.Int(int64(t.Day())), nil
		case "hour":
			return value.Int(int64(t.Hour())), nil
		case "minute":
			return value.Int(int64(t.Minute())), nil
		case "second":
			return value.Int(int64(t.Second())), nil
		case "epochSeconds":
			return value.Int(t.Unix()), nil
		case "epochMillis":
			return value.Int(t.UnixMilli()), nil
		}
		return value.Null, fmt.Errorf("cypher: unknown datetime field .%s", key)
	default:
		return value.Null, fmt.Errorf("cypher: cannot access .%s on %s", key, base.Kind())
	}
}

// indexValue applies the [] operator to already evaluated operands.
func indexValue(ctx *evalCtx, base, idx value.Value) (value.Value, error) {
	if base.IsNull() || idx.IsNull() {
		return value.Null, nil
	}
	switch base.Kind() {
	case value.KindList:
		list, _ := base.AsList()
		i, ok := idx.AsInt()
		if !ok {
			return value.Null, fmt.Errorf("cypher: list index must be an integer, got %s", idx.Kind())
		}
		if i < 0 {
			i += int64(len(list))
		}
		if i < 0 || i >= int64(len(list)) {
			return value.Null, nil
		}
		return list[i], nil
	case value.KindMap, value.KindNode, value.KindRelationship:
		key, ok := idx.AsString()
		if !ok {
			return value.Null, fmt.Errorf("cypher: map key must be a string, got %s", idx.Kind())
		}
		return propOf(ctx, base, key)
	default:
		return value.Null, fmt.Errorf("cypher: cannot index %s", base.Kind())
	}
}

// sliceValue applies [from..to] to an evaluated list with evaluated bounds.
func sliceValue(list []value.Value, from, to int64) value.Value {
	n := int64(len(list))
	if from < 0 {
		from += n
	}
	if to < 0 {
		to += n
	}
	from = clamp(from, 0, n)
	to = clamp(to, 0, n)
	if from >= to {
		return value.List()
	}
	return value.ListOf(append([]value.Value(nil), list[from:to]...))
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func evalIn(l, list value.Value) (value.Value, error) {
	if list.IsNull() {
		return value.Null, nil
	}
	elems, ok := list.AsList()
	if !ok {
		return value.Null, fmt.Errorf("cypher: IN requires a list, got %s", list.Kind())
	}
	sawUnknown := l.IsNull()
	for _, e := range elems {
		eq, known := value.Equal(l, e)
		if !known {
			sawUnknown = true
			continue
		}
		if eq {
			return value.Bool(true), nil
		}
	}
	if sawUnknown {
		return value.Null, nil
	}
	return value.Bool(false), nil
}

func evalStringPredicate(op BinaryOpKind, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	ls, ok1 := l.AsString()
	rs, ok2 := r.AsString()
	if !ok1 || !ok2 {
		return value.Null, nil
	}
	switch op {
	case OpStartsWith:
		return value.Bool(strings.HasPrefix(ls, rs)), nil
	case OpEndsWith:
		return value.Bool(strings.HasSuffix(ls, rs)), nil
	default:
		return value.Bool(strings.Contains(ls, rs)), nil
	}
}

// evalRegex implements the =~ operator; compiled patterns are cached per
// evaluation context.
func evalRegex(ctx *evalCtx, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	s, ok1 := l.AsString()
	pat, ok2 := r.AsString()
	if !ok1 || !ok2 {
		return value.Null, nil
	}
	re, ok := ctx.regexCache[pat]
	if !ok {
		// Cypher's =~ requires the whole string to match, so the pattern
		// is compiled with implicit anchors.
		var err error
		re, err = regexp.Compile("^(?:" + pat + ")$")
		if err != nil {
			return value.Null, fmt.Errorf("cypher: bad regular expression %q: %v", pat, err)
		}
		if ctx.regexCache == nil {
			ctx.regexCache = make(map[string]*regexp.Regexp)
		}
		ctx.regexCache[pat] = re
	}
	return value.Bool(re.MatchString(s)), nil
}

// Compare applies one of the six comparison operators (=, <>, <, >, <=, >=)
// under ternary semantics: NULL when either operand is NULL or the operands
// are incomparable, otherwise a BOOLEAN. Any other operator yields NULL. The
// evaluator's comparisons and the trigger engine's shared guards both come
// through here.
func Compare(op BinaryOpKind, l, r value.Value) value.Value {
	var res, known bool
	switch op {
	case OpEq:
		res, known = value.Equal(l, r)
	case OpNeq:
		res, known = value.Equal(l, r)
		res = !res
	case OpLt:
		res, known = value.Less3(l, r)
	case OpGt:
		res, known = value.Less3(r, l)
	case OpLte:
		res, known = value.Less3(r, l)
		res = !res
	case OpGte:
		res, known = value.Less3(l, r)
		res = !res
	}
	if !known {
		return value.Null
	}
	return value.Bool(res)
}
