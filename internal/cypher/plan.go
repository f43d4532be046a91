package cypher

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/value"
)

// plansCompiled counts physical-plan variants compiled process-wide; the
// metrics layer exposes it as rkm_cypher_plans_compiled_total.
var plansCompiled atomic.Int64

// PlansCompiled reports how many physical-plan variants this process has
// compiled (one per statement × binding shape, plus recompilations after
// statistics drift).
func PlansCompiled() int64 { return plansCompiled.Load() }

// Plan is an immutable prepared statement: the parsed AST plus lazily
// compiled physical variants, one per (binding shape, executing store).
// Compilation happens on first Execute (it needs a read view to cost access
// paths against); the compiled variant is cached inside the Plan and
// recompiled only when the statistics it was costed on drift. Variants are
// keyed per store because shared plans (a knowledge base's cache serves every
// shard) execute against stores with independent cardinalities: one shard's
// anchor order can be pessimal — and its drift check meaningless — on
// another. Plans are safe for concurrent use.
type Plan struct {
	query    string
	stmt     *Statement
	variants atomic.Pointer[map[variantKey]*planVariant]
	mu       sync.Mutex // serializes variant compilation
}

// variantKey addresses one compiled physical plan: the sorted binding-name
// shape joined with \x1f, plus the identity of the store the variant was
// costed against (graph.ReadView.StoreKey).
type variantKey struct {
	shape string
	store any
}

// Prepare parses a query into a reusable Plan. This is the entry point of
// the staged pipeline: parse → (lazily, per binding shape) plan + compile.
func Prepare(query string) (*Plan, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return stmt.Prepared(), nil
}

// Prepared returns the Plan attached to this parsed statement, creating it
// on first use. Callers that cache Statements therefore share compiled
// plans automatically.
func (s *Statement) Prepared() *Plan {
	if p := s.plan.Load(); p != nil {
		return p
	}
	s.plan.CompareAndSwap(nil, newPlan(s))
	return s.plan.Load()
}

func newPlan(stmt *Statement) *Plan {
	p := &Plan{query: stmt.Query, stmt: stmt}
	empty := make(map[variantKey]*planVariant)
	p.variants.Store(&empty)
	return p
}

// Statement returns the parsed AST backing the plan.
func (p *Plan) Statement() *Statement { return p.stmt }

// Query returns the original query text.
func (p *Plan) Query() string { return p.query }

// Variants reports how many compiled binding-shape variants the plan holds.
func (p *Plan) Variants() int { return len(*p.variants.Load()) }

// Execute runs the plan against the given read view — a *graph.Tx for
// single-store execution (writes included), or a *graph.MultiView for
// lock-free cross-shard reads — compiling (or recompiling, on statistics
// drift) the variant for the (binding shape, store) pair first if needed.
// The hot path — plan already compiled, statistics stable — performs no
// parsing and no AST interpretation. Write clauses require a *graph.Tx and
// fail on any other view.
func (p *Plan) Execute(tx graph.ReadView, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	names := sortedBindingNames(opts.Bindings)
	v, err := p.variant(tx, names)
	if err != nil {
		return nil, err
	}
	if p.stmt.Explain {
		return p.explainResult(tx, v), nil
	}
	return v.run(tx, p.query, opts, names)
}

func (p *Plan) variant(tx graph.ReadView, bindNames []string) (*planVariant, error) {
	key := variantKey{shape: strings.Join(bindNames, "\x1f"), store: tx.StoreKey()}
	if m := p.variants.Load(); m != nil {
		if v, ok := (*m)[key]; ok && !v.snap.stale(tx) {
			return v, nil
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.variants.Load(); m != nil {
		if v, ok := (*m)[key]; ok && !v.snap.stale(tx) {
			return v, nil
		}
	}
	v, err := compileVariant(p.stmt, bindNames, tx)
	if err != nil {
		return nil, err
	}
	old := p.variants.Load()
	next := make(map[variantKey]*planVariant, len(*old)+1)
	for k, ov := range *old {
		next[k] = ov
	}
	next[key] = v
	p.variants.Store(&next)
	plansCompiled.Add(1)
	return v, nil
}

func sortedBindingNames(bindings map[string]value.Value) []string {
	if len(bindings) == 0 {
		return nil
	}
	names := make([]string, 0, len(bindings))
	for n := range bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// planVariant is one compiled physical plan: the statement lowered to
// closure pipelines for a specific binding shape, stamped with the
// statistics snapshot its access paths were costed on.
type planVariant struct {
	bindNames []string
	main      *compiledBranch
	unions    []unionBranchPlan
	snap      *statsSnapshot
}

type unionBranchPlan struct {
	all bool
	cb  *compiledBranch
}

func compileVariant(stmt *Statement, bindNames []string, tx graph.ReadView) (*planVariant, error) {
	snap := newStatsSnapshot()
	cc := &compileCtx{query: stmt.Query, tx: tx, snap: snap}
	main, err := compileBranch(cc, stmt.Clauses, bindNames)
	if err != nil {
		return nil, err
	}
	v := &planVariant{bindNames: bindNames, main: main, snap: snap}
	for _, b := range stmt.Unions {
		cb, err := compileBranch(cc, b.Clauses, bindNames)
		if err != nil {
			return nil, err
		}
		if len(cb.columns) != len(main.columns) {
			return nil, fmt.Errorf("cypher: UNION branches return different numbers of columns")
		}
		for i := range cb.columns {
			if cb.columns[i] != main.columns[i] {
				return nil, fmt.Errorf("cypher: UNION column mismatch: %s vs %s",
					main.columns[i], cb.columns[i])
			}
		}
		v.unions = append(v.unions, unionBranchPlan{all: b.All, cb: cb})
	}
	return v, nil
}

func (v *planVariant) run(tx graph.ReadView, query string, opts *Options, names []string) (*Result, error) {
	ctx := &evalCtx{tx: tx, params: opts.Params, now: opts.Now, query: query}
	ex := &executor{ctx: ctx}
	bindVals := make([]value.Value, len(names))
	for i, n := range names {
		bindVals[i] = opts.Bindings[n]
	}
	res, err := v.main.run(ex, bindVals)
	if err != nil {
		return nil, err
	}
	dedupe := false
	for _, ub := range v.unions {
		br, err := ub.cb.run(ex, bindVals)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, br.Rows...)
		if !ub.all {
			dedupe = true
		}
	}
	if dedupe {
		rows := make([]row, len(res.Rows))
		copy(rows, res.Rows)
		rows = dedupeRows(rows)
		res.Rows = res.Rows[:len(rows)]
		copy(res.Rows, rows)
	}
	res.Stats = ex.stats
	return res, nil
}

// clauseOp is one compiled clause: a row-set transformer. RETURN ops deposit
// their result on the executor instead of forwarding rows.
type clauseOp func(ex *executor, rows []row) ([]row, error)

// compiledBranch is one compiled clause pipeline (the main statement or one
// UNION branch).
type compiledBranch struct {
	width0  int // base row width (number of pre-bound variables)
	ops     []clauseOp
	columns []string // RETURN column names; nil for result-less branches
	fast    *fastCountPlan
}

func compileBranch(cc *compileCtx, clauses []Clause, bindNames []string) (*compiledBranch, error) {
	en := newEnv()
	for _, n := range bindNames {
		en.add(n)
	}
	cb := &compiledBranch{width0: len(bindNames)}
	cb.fast = compileFastCount(cc, clauses)
	for _, cl := range clauses {
		var op clauseOp
		var err error
		switch c := cl.(type) {
		case *MatchClause:
			en, op, err = compileMatch(cc, en, c)
		case *UnwindClause:
			en, op, err = compileUnwind(cc, en, c)
		case *WithClause:
			en, op, err = compileWith(cc, en, c)
		case *ReturnClause:
			op, cb.columns, err = compileReturn(cc, en, c)
		case *CreateClause:
			en, op, err = compileCreate(cc, en, c)
		case *ForeachClause:
			op, err = compileForeach(cc, en, c)
		case *MergeClause:
			en, op, err = compileMerge(cc, en, c)
		case *DeleteClause:
			op, err = compileDelete(cc, en, c)
		case *SetClause:
			op, err = compileSet(cc, en, c.Items)
		case *RemoveClause:
			op, err = compileRemove(cc, en, c)
		default:
			err = fmt.Errorf("cypher: unhandled clause %T", cl)
		}
		if err != nil {
			return nil, err
		}
		cb.ops = append(cb.ops, op)
	}
	return cb, nil
}

func (cb *compiledBranch) run(ex *executor, bindVals []value.Value) (*Result, error) {
	if cb.fast != nil {
		if res, ok, err := cb.fast.run(ex); err != nil {
			return nil, err
		} else if ok {
			return res, nil
		}
	}
	base := make(row, cb.width0)
	copy(base, bindVals)
	rows := []row{base}
	ex.result = nil
	var err error
	for _, op := range cb.ops {
		rows, err = op(ex, rows)
		if err != nil {
			return nil, err
		}
	}
	if ex.result == nil {
		return &Result{}, nil
	}
	return ex.result, nil
}

// ---- MATCH ----

func compileMatch(cc *compileCtx, en *env, c *MatchClause) (*env, clauseOp, error) {
	newEn := en.clone()
	cps := make([]*compiledPattern, len(c.Patterns))
	for i, p := range c.Patterns {
		cps[i] = patternSlots(newEn, p)
	}
	// Bodies compile against the full post-MATCH environment so a property
	// expression may reference any sibling pattern's variable (it evaluates
	// to NULL while unbound, matching nothing — same as the interpreter).
	for _, cp := range cps {
		if err := compilePatternBody(cc, newEn, cp); err != nil {
			return nil, nil, err
		}
	}
	order := orderPatterns(en, newEn, cps)
	var whereFn exprFn
	if c.Where != nil {
		var err error
		whereFn, err = compileExpr(cc, newEn, c.Where)
		if err != nil {
			return nil, nil, err
		}
	}
	width := len(newEn.names)
	optional := c.Optional
	op := func(ex *executor, rows []row) ([]row, error) {
		var out []row
		for _, r := range rows {
			base := make(row, width)
			copy(base, r)
			matched := false
			var matchFrom func(k int, cur row, used map[graph.RelID]bool) error
			matchFrom = func(k int, cur row, used map[graph.RelID]bool) error {
				if k == len(order) {
					if whereFn != nil {
						ok, err := truthy(ex.ctx, cur, whereFn)
						if err != nil {
							return err
						}
						if !ok {
							return nil
						}
					}
					matched = true
					out = append(out, cur)
					return nil
				}
				return matchPart(ex.ctx, cur, cps[order[k]], used, func(nr row) error {
					return matchFrom(k+1, nr, used)
				})
			}
			if err := matchFrom(0, base, make(map[graph.RelID]bool)); err != nil {
				return nil, err
			}
			if !matched && optional {
				out = append(out, base) // pattern variables stay NULL
			}
		}
		return out, nil
	}
	return newEn, op, nil
}

// orderPatterns picks the execution order of a MATCH clause's pattern parts
// by estimated cost: parts sharing a variable with what is already bound run
// as anchored joins (cheapest), then parts by their access-plan estimate.
// If any part's property expressions reference a sibling part's variables,
// source order is kept — reordering would change which references see bound
// values and thus the result.
func orderPatterns(parentEn, matchEn *env, cps []*compiledPattern) []int {
	order := make([]int, 0, len(cps))
	if len(cps) == 1 {
		return append(order, 0)
	}
	parentWidth := len(parentEn.names)
	siblingSlots := make(map[int]int) // slot → pattern index that introduces it
	for i, cp := range cps {
		for _, s := range cp.slots() {
			if s >= parentWidth {
				if _, ok := siblingSlots[s]; !ok {
					siblingSlots[s] = i
				}
			}
		}
	}
	for i, cp := range cps {
		refs := make(map[string]bool)
		for _, np := range cp.part.Nodes {
			for _, e := range np.Props {
				collectVarNames(e, refs)
			}
		}
		for _, rp := range cp.part.Rels {
			for _, e := range rp.Props {
				collectVarNames(e, refs)
			}
		}
		own := make(map[int]bool)
		for _, s := range cp.slots() {
			own[s] = true
		}
		for name := range refs {
			if slot, ok := matchEn.lookup(name); ok {
				if owner, sib := siblingSlots[slot]; sib && owner != i && !own[slot] {
					// Cross-pattern property dependency: preserve source order.
					for j := range cps {
						order = append(order, j)
					}
					return order
				}
			}
		}
	}
	bound := make([]bool, len(matchEn.names))
	for i := 0; i < parentWidth; i++ {
		bound[i] = true
	}
	used := make([]bool, len(cps))
	for len(order) < len(cps) {
		best, bestCost := -1, int64(1)<<62
		for i, cp := range cps {
			if used[i] {
				continue
			}
			cost := patternOrderCost(cp, bound)
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		order = append(order, best)
		used[best] = true
		for _, s := range cps[best].slots() {
			bound[s] = true
		}
	}
	return order
}

func patternOrderCost(cp *compiledPattern, bound []bool) int64 {
	for _, s := range cp.nodeSlots {
		if s >= 0 && s < len(bound) && bound[s] {
			return 0 // anchored join on an already bound node
		}
	}
	switch cp.access.kind {
	case accessIndex:
		return 1
	case accessLabel:
		return 2 + int64(cp.access.est)
	default:
		return 2 + 2*int64(cp.access.est)
	}
}

// collectVarNames gathers every variable referenced anywhere in e. Shadowed
// inner variables (comprehensions, reduce) are included; the over-
// approximation only forces source order, never an invalid reorder.
func collectVarNames(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case *Variable:
		out[x.Name] = true
	case *PropAccess:
		collectVarNames(x.X, out)
	case *IndexExpr:
		collectVarNames(x.X, out)
		collectVarNames(x.Idx, out)
	case *SliceExpr:
		collectVarNames(x.X, out)
		if x.From != nil {
			collectVarNames(x.From, out)
		}
		if x.To != nil {
			collectVarNames(x.To, out)
		}
	case *UnaryOp:
		collectVarNames(x.X, out)
	case *BinaryOp:
		collectVarNames(x.L, out)
		collectVarNames(x.R, out)
	case *FuncCall:
		for _, a := range x.Args {
			collectVarNames(a, out)
		}
	case *CaseExpr:
		if x.Test != nil {
			collectVarNames(x.Test, out)
		}
		for _, w := range x.Whens {
			collectVarNames(w.Cond, out)
			collectVarNames(w.Then, out)
		}
		if x.Else != nil {
			collectVarNames(x.Else, out)
		}
	case *ListLit:
		for _, el := range x.Elems {
			collectVarNames(el, out)
		}
	case *MapLit:
		for _, v := range x.Vals {
			collectVarNames(v, out)
		}
	case *ListComp:
		collectVarNames(x.List, out)
		if x.Where != nil {
			collectVarNames(x.Where, out)
		}
		if x.Proj != nil {
			collectVarNames(x.Proj, out)
		}
	case *ListPredicate:
		collectVarNames(x.List, out)
		collectVarNames(x.Where, out)
	case *ReduceExpr:
		collectVarNames(x.Init, out)
		collectVarNames(x.List, out)
		collectVarNames(x.Body, out)
	case *PatternExpr:
		for _, np := range x.Pattern.Nodes {
			if np.Var != "" {
				out[np.Var] = true
			}
			for _, e := range np.Props {
				collectVarNames(e, out)
			}
		}
		for _, rp := range x.Pattern.Rels {
			if rp.Var != "" {
				out[rp.Var] = true
			}
			for _, e := range rp.Props {
				collectVarNames(e, out)
			}
		}
	}
}

// ---- UNWIND ----

func compileUnwind(cc *compileCtx, en *env, c *UnwindClause) (*env, clauseOp, error) {
	listFn, err := compileExpr(cc, en, c.List)
	if err != nil {
		return nil, nil, err
	}
	newEn := en.clone()
	slot := newEn.add(c.Var)
	width := len(newEn.names)
	op := func(ex *executor, rows []row) ([]row, error) {
		var out []row
		for _, r := range rows {
			lv, err := listFn(ex.ctx, r)
			if err != nil {
				return nil, err
			}
			if lv.IsNull() {
				continue
			}
			elems, ok := lv.AsList()
			if !ok {
				// UNWIND of a single value behaves as a singleton list.
				elems = []value.Value{lv}
			}
			for _, e := range elems {
				nr := make(row, width)
				copy(nr, r)
				nr[slot] = e
				out = append(out, nr)
			}
		}
		return out, nil
	}
	return newEn, op, nil
}

// ---- WITH / RETURN ----

func starItems(en *env) []*ReturnItem {
	items := make([]*ReturnItem, 0, len(en.names))
	for _, name := range en.names {
		items = append(items, &ReturnItem{Expr: &Variable{Name: name}, Alias: name, Text: name})
	}
	return items
}

func itemName(it *ReturnItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if v, ok := it.Expr.(*Variable); ok {
		return v.Name
	}
	return it.Text
}

func compileWith(cc *compileCtx, en *env, c *WithClause) (*env, clauseOp, error) {
	items := c.Items
	if c.Star {
		items = append(starItems(en), c.Items...)
	}
	newEn, proj, err := compileProjection(cc, en, items, c.Distinct, c.OrderBy, c.Skip, c.Limit)
	if err != nil {
		return nil, nil, err
	}
	var whereFn exprFn
	if c.Where != nil {
		if whereFn, err = compileExpr(cc, newEn, c.Where); err != nil {
			return nil, nil, err
		}
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		out, err := proj.run(ex, rows)
		if err != nil {
			return nil, err
		}
		if whereFn != nil {
			kept := out[:0]
			for _, r := range out {
				ok, err := truthy(ex.ctx, r, whereFn)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, r)
				}
			}
			out = kept
		}
		return out, nil
	}
	return newEn, op, nil
}

func compileReturn(cc *compileCtx, en *env, c *ReturnClause) (clauseOp, []string, error) {
	items := c.Items
	if c.Star {
		items = append(starItems(en), c.Items...)
	}
	_, proj, err := compileProjection(cc, en, items, c.Distinct, c.OrderBy, c.Skip, c.Limit)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = itemName(it)
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		out, err := proj.run(ex, rows)
		if err != nil {
			return nil, err
		}
		resRows := make([][]value.Value, len(out))
		for i, r := range out {
			resRows[i] = r
		}
		ex.result = &Result{Columns: cols, Rows: resRows}
		return nil, nil
	}
	return op, cols, nil
}

// projPlan is a compiled projection: item closures, aggregation feeds, sort
// keys, and SKIP/LIMIT bounds.
type projPlan struct {
	nItems   int
	itemFns  []exprFn // compiled against the input environment
	distinct bool

	aggregates bool
	aggCalls   []*FuncCall
	aggArgs    []exprFn // parallel to aggCalls; nil for count(*)
	keyItems   []int    // aggregate-free item indexes (grouping keys)

	sortFns  []exprFn
	sortDesc []bool
	skipFn   exprFn
	limitFn  exprFn

	// Non-aggregating ORDER BY: sort runs on combined rows carrying the
	// surviving input bindings after the projected columns (Cypher's ORDER
	// BY scoping).
	comb      bool
	carries   []carryPair
	combWidth int
}

type carryPair struct{ from, to int }

func compileProjection(cc *compileCtx, en *env, items []*ReturnItem,
	distinct bool, orderBy []*SortItem, skip, limit Expr) (*env, *projPlan, error) {
	newEn := newEnv()
	for _, it := range items {
		newEn.add(itemName(it))
	}
	if len(newEn.names) != len(items) {
		return nil, nil, fmt.Errorf("cypher: duplicate column name in projection")
	}

	p := &projPlan{nItems: len(items), distinct: distinct}
	itemAggs := make([][]*FuncCall, len(items))
	for i, it := range items {
		var calls []*FuncCall
		collectAggregates(it.Expr, &calls)
		itemAggs[i] = calls
		if len(calls) > 0 {
			p.aggregates = true
		}
	}
	p.itemFns = make([]exprFn, len(items))
	for i, it := range items {
		fn, err := compileExpr(cc, en, it.Expr)
		if err != nil {
			return nil, nil, err
		}
		p.itemFns[i] = fn
	}
	if p.aggregates {
		for i := range items {
			if len(itemAggs[i]) == 0 {
				p.keyItems = append(p.keyItems, i)
			}
			for _, call := range itemAggs[i] {
				p.aggCalls = append(p.aggCalls, call)
				if call.Star {
					p.aggArgs = append(p.aggArgs, nil)
					continue
				}
				if len(call.Args) != 1 {
					return nil, nil, fmt.Errorf("cypher: %s() takes exactly one argument", call.Name)
				}
				argFn, err := compileExpr(cc, en, call.Args[0])
				if err != nil {
					return nil, nil, err
				}
				p.aggArgs = append(p.aggArgs, argFn)
			}
		}
	}

	var err error
	if p.skipFn, err = compileBound(cc, skip); err != nil {
		return nil, nil, err
	}
	if p.limitFn, err = compileBound(cc, limit); err != nil {
		return nil, nil, err
	}

	sortEn := newEn
	if !p.aggregates && len(orderBy) > 0 {
		// Combined-row sort: projected columns followed by carried inputs.
		p.comb = true
		combEn := newEn.clone()
		for i, name := range en.names {
			if _, taken := combEn.lookup(name); !taken {
				p.carries = append(p.carries, carryPair{from: i, to: combEn.add(name)})
			}
		}
		p.combWidth = len(combEn.names)
		sortEn = combEn
	}
	for _, s := range orderBy {
		fn, err := compileExpr(cc, sortEn, s.Expr)
		if err != nil {
			return nil, nil, err
		}
		p.sortFns = append(p.sortFns, fn)
		p.sortDesc = append(p.sortDesc, s.Desc)
	}
	return newEn, p, nil
}

func compileBound(cc *compileCtx, e Expr) (exprFn, error) {
	if e == nil {
		return nil, nil
	}
	// SKIP/LIMIT expressions are evaluated in an empty scope, per Cypher.
	return compileExpr(cc, newEnv(), e)
}

func (p *projPlan) run(ex *executor, rows []row) ([]row, error) {
	if !p.comb {
		out, err := p.project(ex, rows)
		if err != nil {
			return nil, err
		}
		return p.orderSkipLimit(ex, out)
	}
	comb := make([]row, 0, len(rows))
	for _, r := range rows {
		nr := make(row, p.combWidth)
		for i, fn := range p.itemFns {
			v, err := fn(ex.ctx, r)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		for _, c := range p.carries {
			nr[c.to] = r[c.from]
		}
		comb = append(comb, nr)
	}
	if p.distinct {
		comb = dedupePrefix(comb, p.nItems)
	}
	comb, err := p.orderSkipLimit(ex, comb)
	if err != nil {
		return nil, err
	}
	out := make([]row, len(comb))
	for i, r := range comb {
		out[i] = r[:p.nItems:p.nItems]
	}
	return out, nil
}

func (p *projPlan) project(ex *executor, rows []row) ([]row, error) {
	if !p.aggregates {
		out := make([]row, 0, len(rows))
		for _, r := range rows {
			nr := make(row, p.nItems)
			for i, fn := range p.itemFns {
				v, err := fn(ex.ctx, r)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			}
			out = append(out, nr)
		}
		if p.distinct {
			out = dedupeRows(out)
		}
		return out, nil
	}

	// Aggregating projection: group by the aggregate-free items.
	type group struct {
		rep  row // representative input row
		keys map[int]value.Value
		aggs map[*FuncCall]aggregator
	}
	groups := make(map[string]*group)
	var order []string

	for _, r := range rows {
		keyVals := make(map[int]value.Value, len(p.keyItems))
		hk := ""
		for _, i := range p.keyItems {
			v, err := p.itemFns[i](ex.ctx, r)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			k := v.HashKey()
			hk += fmt.Sprintf("%d:%s;", len(k), k)
		}
		g, ok := groups[hk]
		if !ok {
			g = &group{rep: r, keys: keyVals, aggs: make(map[*FuncCall]aggregator)}
			for _, call := range p.aggCalls {
				g.aggs[call] = newAggregator(call)
			}
			groups[hk] = g
			order = append(order, hk)
		}
		for ci, call := range p.aggCalls {
			agg := g.aggs[call]
			if p.aggArgs[ci] == nil {
				if err := agg.add(value.Bool(true)); err != nil {
					return nil, err
				}
				continue
			}
			v, err := p.aggArgs[ci](ex.ctx, r)
			if err != nil {
				return nil, err
			}
			if err := agg.add(v); err != nil {
				return nil, err
			}
		}
	}

	// With no grouping keys and no input rows, aggregates still produce one
	// row (count(*) of nothing is 0).
	if len(groups) == 0 && len(p.keyItems) == 0 {
		g := &group{rep: row{}, keys: map[int]value.Value{}, aggs: make(map[*FuncCall]aggregator)}
		for _, call := range p.aggCalls {
			g.aggs[call] = newAggregator(call)
		}
		groups[""] = g
		order = append(order, "")
	}

	out := make([]row, 0, len(groups))
	for _, hk := range order {
		g := groups[hk]
		sub := make(map[*FuncCall]value.Value, len(g.aggs))
		for call, agg := range g.aggs {
			sub[call] = agg.result()
		}
		saved := ex.ctx.aggSub
		ex.ctx.aggSub = sub
		nr := make(row, p.nItems)
		for i, fn := range p.itemFns {
			if v, ok := g.keys[i]; ok {
				nr[i] = v
				continue
			}
			v, err := fn(ex.ctx, g.rep)
			if err != nil {
				ex.ctx.aggSub = saved
				return nil, err
			}
			nr[i] = v
		}
		ex.ctx.aggSub = saved
		out = append(out, nr)
	}
	if p.distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

func (p *projPlan) orderSkipLimit(ex *executor, rows []row) ([]row, error) {
	if len(p.sortFns) > 0 {
		type keyed struct {
			r    row
			keys []value.Value
		}
		ks := make([]keyed, len(rows))
		for i, r := range rows {
			keys := make([]value.Value, len(p.sortFns))
			for j, fn := range p.sortFns {
				v, err := fn(ex.ctx, r)
				if err != nil {
					return nil, err
				}
				keys[j] = v
			}
			ks[i] = keyed{r: r, keys: keys}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for j := range p.sortFns {
				c := value.Compare(ks[a].keys[j], ks[b].keys[j])
				if c == 0 {
					continue
				}
				if p.sortDesc[j] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i := range ks {
			rows[i] = ks[i].r
		}
	}
	if p.skipFn != nil {
		n, err := evalBound(ex.ctx, p.skipFn, "SKIP")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if p.limitFn != nil {
		n, err := evalBound(ex.ctx, p.limitFn, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(rows)) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

func evalBound(ctx *evalCtx, fn exprFn, what string) (int64, error) {
	v, err := fn(ctx, nil)
	if err != nil {
		return 0, err
	}
	n, ok := v.AsInt()
	if !ok || n < 0 {
		return 0, fmt.Errorf("cypher: %s requires a non-negative integer", what)
	}
	return n, nil
}

// dedupePrefix keeps the first row for each distinct prefix of width n.
func dedupePrefix(rows []row, n int) []row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		hk := ""
		for _, v := range r[:n] {
			k := v.HashKey()
			hk += fmt.Sprintf("%d:%s;", len(k), k)
		}
		if seen[hk] {
			continue
		}
		seen[hk] = true
		out = append(out, r)
	}
	return out
}

func dedupeRows(rows []row) []row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		hk := ""
		for _, v := range r {
			k := v.HashKey()
			hk += fmt.Sprintf("%d:%s;", len(k), k)
		}
		if seen[hk] {
			continue
		}
		seen[hk] = true
		out = append(out, r)
	}
	return out
}

// collectAggregates gathers the aggregate function calls inside an item.
func collectAggregates(e Expr, out *[]*FuncCall) {
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateFunc(x.Name) {
			*out = append(*out, x)
			return // aggregates cannot nest
		}
		for _, a := range x.Args {
			collectAggregates(a, out)
		}
	case *PropAccess:
		collectAggregates(x.X, out)
	case *IndexExpr:
		collectAggregates(x.X, out)
		collectAggregates(x.Idx, out)
	case *SliceExpr:
		collectAggregates(x.X, out)
		if x.From != nil {
			collectAggregates(x.From, out)
		}
		if x.To != nil {
			collectAggregates(x.To, out)
		}
	case *UnaryOp:
		collectAggregates(x.X, out)
	case *BinaryOp:
		collectAggregates(x.L, out)
		collectAggregates(x.R, out)
	case *CaseExpr:
		if x.Test != nil {
			collectAggregates(x.Test, out)
		}
		for _, w := range x.Whens {
			collectAggregates(w.Cond, out)
			collectAggregates(w.Then, out)
		}
		if x.Else != nil {
			collectAggregates(x.Else, out)
		}
	case *ListLit:
		for _, el := range x.Elems {
			collectAggregates(el, out)
		}
	case *MapLit:
		for _, v := range x.Vals {
			collectAggregates(v, out)
		}
	case *ListComp:
		collectAggregates(x.List, out)
	case *ListPredicate:
		collectAggregates(x.List, out)
	case *ReduceExpr:
		collectAggregates(x.Init, out)
		collectAggregates(x.List, out)
	}
}

// ---- CREATE / MERGE / FOREACH ----

func compileCreate(cc *compileCtx, en *env, c *CreateClause) (*env, clauseOp, error) {
	newEn := en.clone()
	cps := make([]*compiledPattern, len(c.Patterns))
	for i, p := range c.Patterns {
		if p.Var != "" {
			return nil, nil, fmt.Errorf("cypher: path variables are not supported in CREATE")
		}
		cps[i] = patternSlots(newEn, p)
	}
	for _, cp := range cps {
		if err := compilePatternBody(cc, newEn, cp); err != nil {
			return nil, nil, err
		}
	}
	width := len(newEn.names)
	op := func(ex *executor, rows []row) ([]row, error) {
		out := make([]row, 0, len(rows))
		for _, r := range rows {
			nr := make(row, width)
			copy(nr, r)
			for _, cp := range cps {
				var err error
				nr, err = ex.createPattern(nr, cp)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, nr)
		}
		return out, nil
	}
	return newEn, op, nil
}

func compileMerge(cc *compileCtx, en *env, c *MergeClause) (*env, clauseOp, error) {
	newEn := en.clone()
	cp, err := compileFullPattern(cc, newEn, c.Pattern)
	if err != nil {
		return nil, nil, err
	}
	onMatch, err := compileSetItems(cc, newEn, c.OnMatchSet)
	if err != nil {
		return nil, nil, err
	}
	onCreate, err := compileSetItems(cc, newEn, c.OnCreateSet)
	if err != nil {
		return nil, nil, err
	}
	width := len(newEn.names)
	op := func(ex *executor, rows []row) ([]row, error) {
		var out []row
		for _, r := range rows {
			base := make(row, width)
			copy(base, r)
			if cp.nullBound(base) {
				return nil, fmt.Errorf("cypher: MERGE on a NULL-bound variable")
			}
			var matches []row
			err := matchPart(ex.ctx, base, cp, nil, func(nr row) error {
				matches = append(matches, nr)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if len(matches) > 0 {
				for _, mr := range matches {
					if err := ex.applySetOps(mr, onMatch); err != nil {
						return nil, err
					}
					out = append(out, mr)
				}
				continue
			}
			created, err := ex.createPattern(base, cp)
			if err != nil {
				return nil, err
			}
			if err := ex.applySetOps(created, onCreate); err != nil {
				return nil, err
			}
			out = append(out, created)
		}
		return out, nil
	}
	return newEn, op, nil
}

// compileForeach compiles the nested update clauses once; at runtime the
// body pipeline runs per list element per input row. Variables introduced
// inside the body (and the loop variable) are not visible afterwards.
func compileForeach(cc *compileCtx, en *env, c *ForeachClause) (clauseOp, error) {
	listFn, err := compileExpr(cc, en, c.List)
	if err != nil {
		return nil, err
	}
	inner := en.clone()
	slot := inner.add(c.Var)
	innerWidth := len(inner.names)
	bodyEn := inner
	var bodyOps []clauseOp
	for _, cl := range c.Body {
		var op clauseOp
		switch bc := cl.(type) {
		case *CreateClause:
			bodyEn, op, err = compileCreate(cc, bodyEn, bc)
		case *MergeClause:
			bodyEn, op, err = compileMerge(cc, bodyEn, bc)
		case *SetClause:
			op, err = compileSet(cc, bodyEn, bc.Items)
		case *RemoveClause:
			op, err = compileRemove(cc, bodyEn, bc)
		case *DeleteClause:
			op, err = compileDelete(cc, bodyEn, bc)
		case *ForeachClause:
			op, err = compileForeach(cc, bodyEn, bc)
		default:
			err = fmt.Errorf("cypher: clause %T not allowed in FOREACH", cl)
		}
		if err != nil {
			return nil, err
		}
		bodyOps = append(bodyOps, op)
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		for _, r := range rows {
			lv, err := listFn(ex.ctx, r)
			if err != nil {
				return nil, err
			}
			if lv.IsNull() {
				continue
			}
			elems, ok := lv.AsList()
			if !ok {
				return nil, fmt.Errorf("cypher: FOREACH requires a list, got %s", lv.Kind())
			}
			for _, el := range elems {
				ir := make(row, innerWidth)
				copy(ir, r)
				ir[slot] = el
				bodyRows := []row{ir}
				for _, bop := range bodyOps {
					bodyRows, err = bop(ex, bodyRows)
					if err != nil {
						return nil, err
					}
				}
			}
		}
		return rows, nil
	}
	return op, nil
}

// ---- DELETE / SET / REMOVE ----

func compileDelete(cc *compileCtx, en *env, c *DeleteClause) (clauseOp, error) {
	fns := make([]exprFn, len(c.Exprs))
	for i, e := range c.Exprs {
		fn, err := compileExpr(cc, en, e)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	detach := c.Detach
	op := func(ex *executor, rows []row) ([]row, error) {
		for _, r := range rows {
			for _, fn := range fns {
				v, err := fn(ex.ctx, r)
				if err != nil {
					return nil, err
				}
				if err := ex.deleteEntity(v, detach); err != nil {
					return nil, err
				}
			}
		}
		return rows, nil
	}
	return op, nil
}

// setOp is one compiled SET item.
type setOp struct {
	kind   SetItemKind
	slot   int
	target string
	key    string
	labels []string
	valFn  exprFn // nil for SetLabels
}

func compileSetItems(cc *compileCtx, en *env, items []*SetItem) ([]setOp, error) {
	ops := make([]setOp, 0, len(items))
	for _, it := range items {
		slot, ok := en.lookup(it.Target)
		if !ok {
			return nil, fmt.Errorf("cypher: variable `%s` not defined in SET", it.Target)
		}
		op := setOp{kind: it.Kind, slot: slot, target: it.Target, key: it.Key, labels: it.Labels}
		if it.Value != nil {
			fn, err := compileExpr(cc, en, it.Value)
			if err != nil {
				return nil, err
			}
			op.valFn = fn
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func compileSet(cc *compileCtx, en *env, items []*SetItem) (clauseOp, error) {
	ops, err := compileSetItems(cc, en, items)
	if err != nil {
		return nil, err
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		for _, r := range rows {
			if err := ex.applySetOps(r, ops); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
	return op, nil
}

// removeOp is one compiled REMOVE item.
type removeOp struct {
	slot   int
	target string
	key    string
	labels []string
}

func compileRemove(cc *compileCtx, en *env, c *RemoveClause) (clauseOp, error) {
	ops := make([]removeOp, 0, len(c.Items))
	for _, it := range c.Items {
		slot, ok := en.lookup(it.Target)
		if !ok {
			return nil, fmt.Errorf("cypher: variable `%s` not defined in REMOVE", it.Target)
		}
		ops = append(ops, removeOp{slot: slot, target: it.Target, key: it.Key, labels: it.Labels})
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		for _, r := range rows {
			for i := range ops {
				if err := ex.applyRemoveOp(r, &ops[i]); err != nil {
					return nil, err
				}
			}
		}
		return rows, nil
	}
	return op, nil
}

// ---- fast count ----

// fastCountPlan answers `MATCH (v:Label {k: const}) RETURN count(...)` from
// label and property indexes without materializing candidates — the analog
// of Neo4j's count store, which is what keeps the paper's naive per-event
// triggers (Fig. 9) at near-constant per-event cost.
type fastCountPlan struct {
	kind  fcKind
	label string
	key   string
	valFn exprFn
	col   string
}

type fcKind int

const (
	fcTotal fcKind = iota
	fcLabel
	fcProp
)

func compileFastCount(cc *compileCtx, clauses []Clause) *fastCountPlan {
	if len(clauses) != 2 {
		return nil
	}
	m, ok := clauses[0].(*MatchClause)
	if !ok || m.Optional || m.Where != nil || len(m.Patterns) != 1 {
		return nil
	}
	part := m.Patterns[0]
	if part.Var != "" || len(part.Rels) != 0 || len(part.Nodes) != 1 {
		return nil
	}
	np := part.Nodes[0]
	ret, ok := clauses[1].(*ReturnClause)
	if !ok || ret.Distinct || ret.Star || len(ret.Items) != 1 ||
		ret.OrderBy != nil || ret.Skip != nil || ret.Limit != nil {
		return nil
	}
	call, ok := ret.Items[0].Expr.(*FuncCall)
	if !ok || call.Name != "count" || call.Distinct {
		return nil
	}
	if !call.Star {
		if len(call.Args) != 1 {
			return nil
		}
		v, ok := call.Args[0].(*Variable)
		if !ok || v.Name != np.Var {
			return nil
		}
	}
	col := ret.Items[0].Alias
	if col == "" {
		col = ret.Items[0].Text
	}
	plan := &fastCountPlan{col: col}
	switch {
	case len(np.Props) == 0 && len(np.Labels) == 0:
		plan.kind = fcTotal
	case len(np.Props) == 0 && len(np.Labels) == 1:
		plan.kind = fcLabel
		plan.label = np.Labels[0]
	case len(np.Props) == 1 && len(np.Labels) == 1:
		plan.kind = fcProp
		plan.label = np.Labels[0]
		for k, e := range np.Props {
			plan.key = k
			// The constant must be expressible without row variables;
			// otherwise the general path handles it.
			fn, err := compileExpr(&compileCtx{query: cc.query, tx: cc.tx, snap: cc.snap}, newEnv(), e)
			if err != nil {
				return nil
			}
			plan.valFn = fn
		}
	default:
		return nil
	}
	return plan
}

// run answers the count, or reports ok=false to fall back to the general
// pipeline (unknown property value, or a runtime evaluation error such as a
// missing parameter — the general path surfaces the real error if any).
func (p *fastCountPlan) run(ex *executor) (*Result, bool, error) {
	var count int
	switch p.kind {
	case fcTotal:
		count = ex.ctx.tx.NodeCount()
	case fcLabel:
		count = ex.ctx.tx.CountByLabel(p.label)
	default:
		want, err := p.valFn(ex.ctx, nil)
		if err != nil {
			return nil, false, nil
		}
		c, has := ex.ctx.tx.CountByProp(p.label, p.key, want)
		if !has {
			return nil, false, nil
		}
		count = c
	}
	return &Result{Columns: []string{p.col}, Rows: [][]value.Value{{value.Int(int64(count))}}}, true, nil
}
