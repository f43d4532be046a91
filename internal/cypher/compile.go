package cypher

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/value"
)

// exprFn is a compiled expression: evaluation against a row with no AST
// interpretation. Compilation resolves variables to row slots, fixes the
// dispatch per node, and pre-builds inner environments, so the hot path is a
// chain of direct closure calls.
type exprFn func(ctx *evalCtx, r row) (value.Value, error)

// compileCtx carries what compilation needs: the query text for positioned
// errors and the statistics snapshot access-path planning draws from (and
// records its reads into, for later staleness checks).
type compileCtx struct {
	query string
	tx    *graph.Tx      // statistics source during compilation
	snap  *statsSnapshot // records every statistic consulted
}

// compileExpr lowers an expression AST to a closure. Variable resolution
// happens here, so a reference to an undefined variable is reported at
// compile time with its byte offset.
func compileExpr(cc *compileCtx, en *env, e Expr) (exprFn, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*evalCtx, row) (value.Value, error) { return v, nil }, nil

	case *Variable:
		i, ok := en.lookup(x.Name)
		if !ok {
			return nil, errAt(cc.query, x.pos, "variable `%s` not defined", x.Name)
		}
		return func(_ *evalCtx, r row) (value.Value, error) { return r[i], nil }, nil

	case *Param:
		name := x.Name
		return func(ctx *evalCtx, _ row) (value.Value, error) {
			v, ok := ctx.params[name]
			if !ok {
				return value.Null, fmt.Errorf("cypher: parameter $%s not supplied", name)
			}
			return v, nil
		}, nil

	case *PropAccess:
		xf, err := compileExpr(cc, en, x.X)
		if err != nil {
			return nil, err
		}
		key := x.Key
		return func(ctx *evalCtx, r row) (value.Value, error) {
			base, err := xf(ctx, r)
			if err != nil {
				return value.Null, err
			}
			return propOf(ctx, base, key)
		}, nil

	case *IndexExpr:
		xf, err := compileExpr(cc, en, x.X)
		if err != nil {
			return nil, err
		}
		idxf, err := compileExpr(cc, en, x.Idx)
		if err != nil {
			return nil, err
		}
		return func(ctx *evalCtx, r row) (value.Value, error) {
			base, err := xf(ctx, r)
			if err != nil {
				return value.Null, err
			}
			idx, err := idxf(ctx, r)
			if err != nil {
				return value.Null, err
			}
			return indexValue(ctx, base, idx)
		}, nil

	case *SliceExpr:
		xf, err := compileExpr(cc, en, x.X)
		if err != nil {
			return nil, err
		}
		var fromF, toF exprFn
		if x.From != nil {
			if fromF, err = compileExpr(cc, en, x.From); err != nil {
				return nil, err
			}
		}
		if x.To != nil {
			if toF, err = compileExpr(cc, en, x.To); err != nil {
				return nil, err
			}
		}
		return func(ctx *evalCtx, r row) (value.Value, error) {
			base, err := xf(ctx, r)
			if err != nil {
				return value.Null, err
			}
			if base.IsNull() {
				return value.Null, nil
			}
			list, ok := base.AsList()
			if !ok {
				return value.Null, fmt.Errorf("cypher: cannot slice %s", base.Kind())
			}
			from, to := int64(0), int64(len(list))
			if fromF != nil {
				v, err := fromF(ctx, r)
				if err != nil {
					return value.Null, err
				}
				if v.IsNull() {
					return value.Null, nil
				}
				if from, ok = v.AsInt(); !ok {
					return value.Null, fmt.Errorf("cypher: slice bound must be an integer")
				}
			}
			if toF != nil {
				v, err := toF(ctx, r)
				if err != nil {
					return value.Null, err
				}
				if v.IsNull() {
					return value.Null, nil
				}
				if to, ok = v.AsInt(); !ok {
					return value.Null, fmt.Errorf("cypher: slice bound must be an integer")
				}
			}
			return sliceValue(list, from, to), nil
		}, nil

	case *UnaryOp:
		xf, err := compileExpr(cc, en, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpNeg:
			return func(ctx *evalCtx, r row) (value.Value, error) {
				v, err := xf(ctx, r)
				if err != nil {
					return value.Null, err
				}
				return value.Neg(v)
			}, nil
		case OpNot:
			return func(ctx *evalCtx, r row) (value.Value, error) {
				v, err := xf(ctx, r)
				if err != nil {
					return value.Null, err
				}
				b, known := v.Truthy()
				if !known {
					return value.Null, nil
				}
				return value.Bool(!b), nil
			}, nil
		case OpIsNull:
			return func(ctx *evalCtx, r row) (value.Value, error) {
				v, err := xf(ctx, r)
				if err != nil {
					return value.Null, err
				}
				return value.Bool(v.IsNull()), nil
			}, nil
		case OpIsNotNull:
			return func(ctx *evalCtx, r row) (value.Value, error) {
				v, err := xf(ctx, r)
				if err != nil {
					return value.Null, err
				}
				return value.Bool(!v.IsNull()), nil
			}, nil
		default:
			return nil, fmt.Errorf("cypher: unknown unary op")
		}

	case *BinaryOp:
		return compileBinary(cc, en, x)

	case *FuncCall:
		return compileFuncCall(cc, en, x)

	case *CaseExpr:
		return compileCase(cc, en, x)

	case *ListLit:
		fns := make([]exprFn, len(x.Elems))
		for i, el := range x.Elems {
			f, err := compileExpr(cc, en, el)
			if err != nil {
				return nil, err
			}
			fns[i] = f
		}
		return func(ctx *evalCtx, r row) (value.Value, error) {
			out := make([]value.Value, len(fns))
			for i, f := range fns {
				v, err := f(ctx, r)
				if err != nil {
					return value.Null, err
				}
				out[i] = v
			}
			return value.ListOf(out), nil
		}, nil

	case *MapLit:
		fns := make([]exprFn, len(x.Vals))
		for i, ve := range x.Vals {
			f, err := compileExpr(cc, en, ve)
			if err != nil {
				return nil, err
			}
			fns[i] = f
		}
		keys := x.Keys
		return func(ctx *evalCtx, r row) (value.Value, error) {
			m := make(map[string]value.Value, len(keys))
			for i, k := range keys {
				v, err := fns[i](ctx, r)
				if err != nil {
					return value.Null, err
				}
				m[k] = v
			}
			return value.Map(m), nil
		}, nil

	case *ListComp:
		return compileListComp(cc, en, x)

	case *ListPredicate:
		return compileListPredicate(cc, en, x)

	case *ReduceExpr:
		return compileReduce(cc, en, x)

	case *PatternExpr:
		return compilePatternExpr(cc, en, x)

	default:
		return nil, fmt.Errorf("cypher: unhandled expression %T", e)
	}
}

func compileBinary(cc *compileCtx, en *env, x *BinaryOp) (exprFn, error) {
	if x.Op == OpAnd || x.Op == OpOr || x.Op == OpXor {
		return compileLogic(cc, en, x)
	}
	lf, err := compileExpr(cc, en, x.L)
	if err != nil {
		return nil, err
	}
	rf, err := compileExpr(cc, en, x.R)
	if err != nil {
		return nil, err
	}
	// Fix the operator implementation at compile time.
	var apply func(ctx *evalCtx, l, rv value.Value) (value.Value, error)
	switch x.Op {
	case OpAdd:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Add(l, rv) }
	case OpSub:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Sub(l, rv) }
	case OpMul:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Mul(l, rv) }
	case OpDiv:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Div(l, rv) }
	case OpMod:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Mod(l, rv) }
	case OpPow:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return value.Pow(l, rv) }
	case OpEq, OpNeq, OpLt, OpGt, OpLte, OpGte:
		op := x.Op
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return Compare(op, l, rv), nil }
	case OpIn:
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) { return evalIn(l, rv) }
	case OpStartsWith, OpEndsWith, OpContains:
		op := x.Op
		apply = func(_ *evalCtx, l, rv value.Value) (value.Value, error) {
			return evalStringPredicate(op, l, rv)
		}
	case OpRegex:
		apply = func(ctx *evalCtx, l, rv value.Value) (value.Value, error) {
			return evalRegex(ctx, l, rv)
		}
	default:
		return nil, fmt.Errorf("cypher: unknown binary op")
	}
	return func(ctx *evalCtx, r row) (value.Value, error) {
		l, err := lf(ctx, r)
		if err != nil {
			return value.Null, err
		}
		rv, err := rf(ctx, r)
		if err != nil {
			return value.Null, err
		}
		return apply(ctx, l, rv)
	}, nil
}

// compileLogic builds AND/OR/XOR with ternary short-circuit semantics.
func compileLogic(cc *compileCtx, en *env, x *BinaryOp) (exprFn, error) {
	lf, err := compileExpr(cc, en, x.L)
	if err != nil {
		return nil, err
	}
	rf, err := compileExpr(cc, en, x.R)
	if err != nil {
		return nil, err
	}
	op, pos, query := x.Op, x.pos, cc.query
	return func(ctx *evalCtx, r row) (value.Value, error) {
		l, err := lf(ctx, r)
		if err != nil {
			return value.Null, err
		}
		lb, lk := l.Truthy()
		if !lk && !l.IsNull() {
			return value.Null, errAt(query, pos, "boolean operator on non-boolean value %s", l.Kind())
		}
		switch op {
		case OpAnd:
			if lk && !lb {
				return value.Bool(false), nil
			}
		case OpOr:
			if lk && lb {
				return value.Bool(true), nil
			}
		}
		rv, err := rf(ctx, r)
		if err != nil {
			return value.Null, err
		}
		rb, rk := rv.Truthy()
		if !rk && !rv.IsNull() {
			return value.Null, errAt(query, pos, "boolean operator on non-boolean value %s", rv.Kind())
		}
		switch op {
		case OpAnd:
			switch {
			case rk && !rb:
				return value.Bool(false), nil
			case lk && rk:
				return value.Bool(true), nil
			default:
				return value.Null, nil
			}
		case OpOr:
			switch {
			case rk && rb:
				return value.Bool(true), nil
			case lk && rk:
				return value.Bool(false), nil
			default:
				return value.Null, nil
			}
		default: // XOR
			if !lk || !rk {
				return value.Null, nil
			}
			return value.Bool(lb != rb), nil
		}
	}, nil
}

// compileFuncCall compiles function invocation against the function-table
// row the parser resolved. Aggregate calls compile to a lookup of the
// pre-computed group value (set by the projection machinery during
// finalization); anywhere else they are an evaluation error.
func compileFuncCall(cc *compileCtx, en *env, x *FuncCall) (exprFn, error) {
	if x.def.agg != nil {
		call, pos, name, query := x, x.pos, x.Name, cc.query
		return func(ctx *evalCtx, _ row) (value.Value, error) {
			if ctx.aggSub != nil {
				if v, ok := ctx.aggSub[call]; ok {
					return v, nil
				}
			}
			return value.Null, errAt(query, pos, "aggregate function %s() not allowed here", name)
		}, nil
	}
	fns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		f, err := compileExpr(cc, en, a)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	impl := x.def.scalar
	return func(ctx *evalCtx, r row) (value.Value, error) {
		args := make([]value.Value, len(fns))
		for i, f := range fns {
			v, err := f(ctx, r)
			if err != nil {
				return value.Null, err
			}
			args[i] = v
		}
		return impl(ctx, args)
	}, nil
}

func compileCase(cc *compileCtx, en *env, x *CaseExpr) (exprFn, error) {
	var testF exprFn
	var err error
	if x.Test != nil {
		if testF, err = compileExpr(cc, en, x.Test); err != nil {
			return nil, err
		}
	}
	conds := make([]exprFn, len(x.Whens))
	thens := make([]exprFn, len(x.Whens))
	for i, w := range x.Whens {
		if conds[i], err = compileExpr(cc, en, w.Cond); err != nil {
			return nil, err
		}
		if thens[i], err = compileExpr(cc, en, w.Then); err != nil {
			return nil, err
		}
	}
	var elseF exprFn
	if x.Else != nil {
		if elseF, err = compileExpr(cc, en, x.Else); err != nil {
			return nil, err
		}
	}
	return func(ctx *evalCtx, r row) (value.Value, error) {
		if testF != nil {
			test, err := testF(ctx, r)
			if err != nil {
				return value.Null, err
			}
			for i := range conds {
				v, err := conds[i](ctx, r)
				if err != nil {
					return value.Null, err
				}
				if eq, known := value.Equal(test, v); known && eq {
					return thens[i](ctx, r)
				}
			}
		} else {
			for i := range conds {
				v, err := conds[i](ctx, r)
				if err != nil {
					return value.Null, err
				}
				if b, known := v.Truthy(); known && b {
					return thens[i](ctx, r)
				}
			}
		}
		if elseF != nil {
			return elseF(ctx, r)
		}
		return value.Null, nil
	}, nil
}

func compileListComp(cc *compileCtx, en *env, x *ListComp) (exprFn, error) {
	listF, err := compileExpr(cc, en, x.List)
	if err != nil {
		return nil, err
	}
	inner := en.clone()
	slot := inner.add(x.Var)
	width := len(inner.names)
	var whereF, projF exprFn
	if x.Where != nil {
		if whereF, err = compileExpr(cc, inner, x.Where); err != nil {
			return nil, err
		}
	}
	if x.Proj != nil {
		if projF, err = compileExpr(cc, inner, x.Proj); err != nil {
			return nil, err
		}
	}
	return func(ctx *evalCtx, r row) (value.Value, error) {
		lv, err := listF(ctx, r)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		list, ok := lv.AsList()
		if !ok {
			return value.Null, fmt.Errorf("cypher: list comprehension over %s", lv.Kind())
		}
		out := make([]value.Value, 0, len(list))
		ir := make(row, width)
		for _, el := range list {
			copy(ir, r)
			ir[slot] = el
			if whereF != nil {
				cond, err := whereF(ctx, ir)
				if err != nil {
					return value.Null, err
				}
				if b, known := cond.Truthy(); !known || !b {
					continue
				}
			}
			if projF != nil {
				v, err := projF(ctx, ir)
				if err != nil {
					return value.Null, err
				}
				out = append(out, v)
			} else {
				out = append(out, el)
			}
		}
		return value.ListOf(out), nil
	}, nil
}

func compileListPredicate(cc *compileCtx, en *env, x *ListPredicate) (exprFn, error) {
	listF, err := compileExpr(cc, en, x.List)
	if err != nil {
		return nil, err
	}
	inner := en.clone()
	slot := inner.add(x.Var)
	width := len(inner.names)
	whereF, err := compileExpr(cc, inner, x.Where)
	if err != nil {
		return nil, err
	}
	kind := x.Kind
	return func(ctx *evalCtx, r row) (value.Value, error) {
		lv, err := listF(ctx, r)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		list, ok := lv.AsList()
		if !ok {
			return value.Null, fmt.Errorf("cypher: quantifier over %s", lv.Kind())
		}
		ir := make(row, width)
		trueCount, unknown := 0, false
		for _, el := range list {
			copy(ir, r)
			ir[slot] = el
			v, err := whereF(ctx, ir)
			if err != nil {
				return value.Null, err
			}
			b, known := v.Truthy()
			switch {
			case !known:
				unknown = true
			case b:
				trueCount++
				switch kind {
				case QuantAny:
					return value.Bool(true), nil
				case QuantNone:
					return value.Bool(false), nil
				}
			default: // known false
				if kind == QuantAll {
					return value.Bool(false), nil
				}
			}
		}
		if unknown {
			return value.Null, nil
		}
		switch kind {
		case QuantAll:
			return value.Bool(true), nil
		case QuantAny:
			return value.Bool(false), nil
		case QuantNone:
			return value.Bool(true), nil
		default: // QuantSingle
			return value.Bool(trueCount == 1), nil
		}
	}, nil
}

func compileReduce(cc *compileCtx, en *env, x *ReduceExpr) (exprFn, error) {
	initF, err := compileExpr(cc, en, x.Init)
	if err != nil {
		return nil, err
	}
	listF, err := compileExpr(cc, en, x.List)
	if err != nil {
		return nil, err
	}
	inner := en.clone()
	accSlot := inner.add(x.Acc)
	varSlot := inner.add(x.Var)
	width := len(inner.names)
	bodyF, err := compileExpr(cc, inner, x.Body)
	if err != nil {
		return nil, err
	}
	return func(ctx *evalCtx, r row) (value.Value, error) {
		acc, err := initF(ctx, r)
		if err != nil {
			return value.Null, err
		}
		lv, err := listF(ctx, r)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() {
			return value.Null, nil
		}
		list, ok := lv.AsList()
		if !ok {
			return value.Null, fmt.Errorf("cypher: reduce over %s", lv.Kind())
		}
		ir := make(row, width)
		copy(ir, r)
		for _, el := range list {
			ir[accSlot] = acc
			ir[varSlot] = el
			acc, err = bodyF(ctx, ir)
			if err != nil {
				return value.Null, err
			}
		}
		return acc, nil
	}, nil
}

// compilePatternExpr compiles an existential pattern predicate. The pattern
// (including its access path) is planned once at compile time instead of on
// every evaluation, which matters for guards using `(n)-[:T]->()` syntax.
func compilePatternExpr(cc *compileCtx, en *env, x *PatternExpr) (exprFn, error) {
	local := en.clone()
	cp, err := compileFullPattern(cc, local, x.Pattern)
	if err != nil {
		return nil, err
	}
	width := len(local.names)
	return func(ctx *evalCtx, r row) (value.Value, error) {
		base := make(row, width)
		copy(base, r)
		found := false
		err := matchPart(ctx, base, cp, nil, func(row) error {
			found = true
			return errStop
		})
		if err != nil && err != errStop {
			return value.Null, err
		}
		return value.Bool(found), nil
	}, nil
}

// truthy evaluates a compiled predicate under WHERE semantics: only an
// exactly-TRUE result keeps the row.
func truthy(ctx *evalCtx, r row, pred exprFn) (bool, error) {
	v, err := pred(ctx, r)
	if err != nil {
		return false, err
	}
	b, known := v.Truthy()
	return known && b, nil
}
