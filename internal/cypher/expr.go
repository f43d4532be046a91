package cypher

import (
	"repro/internal/graph"
	"repro/internal/value"
)

// CompiledExpr is a prepared standalone expression: parsed once, compiled
// lazily per binding shape, recompiled only on statistics drift (pattern
// predicates consult the planner). The trigger engine holds one per rule
// guard and the composite-event layer one per BY key, so steady-state
// evaluation performs no parsing and no AST interpretation.
type CompiledExpr struct {
	src      string
	expr     Expr
	variants variantCache[exprFn]
}

// PrepareExpr parses and wraps a standalone expression.
func PrepareExpr(src string) (*CompiledExpr, error) {
	e, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return NewCompiledExpr(e, src), nil
}

// NewCompiledExpr wraps an already parsed expression. src is used for
// positioned error messages and may be empty.
func NewCompiledExpr(e Expr, src string) *CompiledExpr {
	return &CompiledExpr{src: src, expr: e}
}

// Expr returns the parsed AST (for footprint inspection).
func (ce *CompiledExpr) Expr() Expr { return ce.expr }

// Eval evaluates the expression with opts.Bindings visible as variables.
func (ce *CompiledExpr) Eval(tx *graph.Tx, opts *Options) (value.Value, error) {
	if opts == nil {
		opts = &Options{}
	}
	names := sortedBindingNames(opts.Bindings)
	fn, err := ce.variant(tx, names)
	if err != nil {
		return value.Null, err
	}
	r := make(row, len(names))
	for i, n := range names {
		r[i] = opts.Bindings[n]
	}
	ctx := &evalCtx{tx: tx, params: opts.Params, now: opts.Now, query: ce.src}
	return fn(ctx, r)
}

// EvalBool evaluates the expression under ternary guard semantics: only an
// exactly-TRUE result is true.
func (ce *CompiledExpr) EvalBool(tx *graph.Tx, opts *Options) (bool, error) {
	v, err := ce.Eval(tx, opts)
	if err != nil {
		return false, err
	}
	b, known := v.Truthy()
	return known && b, nil
}

func (ce *CompiledExpr) variant(tx *graph.Tx, names []string) (exprFn, error) {
	return ce.variants.get(tx, names, func(snap *statsSnapshot) (exprFn, error) {
		en := newEnv()
		for _, n := range names {
			en.add(n)
		}
		return compileExpr(&compileCtx{query: ce.src, tx: tx, snap: snap}, en, ce.expr)
	})
}
