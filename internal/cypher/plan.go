package cypher

import (
	"fmt"
	"slices"
	"sort"
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
// Compilation happens on first Execute (it needs a transaction to cost access
// paths against); the compiled variant is cached inside the Plan and
// recompiled only when the statistics it was costed on drift. Variants are
// keyed per store because nothing ties a prepared plan to one store, and
// stores have independent cardinalities: one store's anchor order can be
// pessimal — and its drift check meaningless — on another. Plans are safe for concurrent use.
type Plan struct {
	query    string
	stmt     *Statement
	variants variantCache[*planVariant]
	// maintained, when set, reads the statement's aggregate parts from
	// their sources (see Maintained).
	maintained []maintainedPart
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
	s.plan.CompareAndSwap(nil, &Plan{query: s.Query, stmt: s})
	return s.plan.Load()
}

// Statement returns the parsed AST backing the plan.
func (p *Plan) Statement() *Statement { return p.stmt }

// Query returns the original query text.
func (p *Plan) Query() string { return p.query }

// Variants reports how many compiled binding-shape variants the plan holds.
func (p *Plan) Variants() int { return p.variants.len() }

// Execute runs the plan in the given transaction, compiling (or
// recompiling, on statistics drift) the variant for the (binding shape,
// store) pair first if needed. The hot path — plan already compiled,
// statistics stable — performs no parsing and no AST interpretation. Write
// clauses fail with graph.ErrReadOnly in a read-only transaction.
func (p *Plan) Execute(tx *graph.Tx, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	names := sortedBindingNames(opts.Bindings)
	v, err := p.variant(tx, names)
	if err != nil {
		return nil, err
	}
	if p.stmt.Explain {
		return p.explainResult(v), nil
	}
	return v.run(tx, p.query, opts, names)
}

// variant returns the compiled variant for the binding shape on tx's store,
// compiling it on first use or after statistics drift.
func (p *Plan) variant(tx *graph.Tx, bindNames []string) (*planVariant, error) {
	return p.variants.get(tx, bindNames, func(snap *statsSnapshot) (*planVariant, error) {
		v, err := compileVariant(p.stmt, bindNames, p.maintained, &compileCtx{query: p.query, tx: tx, snap: snap})
		if err == nil {
			plansCompiled.Add(1)
		}
		return v, err
	})
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
// closure pipelines for a specific binding shape. It is the only home of the
// plan's decisions — EXPLAIN renders it, Execute runs it.
type planVariant struct {
	main   *compiledBranch
	unions []unionBranchPlan
}

type unionBranchPlan struct {
	all bool
	cb  *compiledBranch
}

func compileVariant(stmt *Statement, bindNames []string, maintained []maintainedPart, cc *compileCtx) (*planVariant, error) {
	main, err := compileBranch(cc, stmt.Clauses, bindNames, maintained)
	if err != nil {
		return nil, err
	}
	v := &planVariant{main: main}
	for _, b := range stmt.Unions {
		cb, err := compileBranch(cc, b.Clauses, bindNames, nil)
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

func (v *planVariant) run(tx *graph.Tx, query string, opts *Options, names []string) (*Result, error) {
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

// step is a compiled clause together with what EXPLAIN prints for it: the
// first line names the clause, the indented rest state the decisions its
// compilation fixed (pattern order, each part's anchor).
type step struct {
	run     clauseOp
	explain []string
}

// compiledBranch is one compiled clause pipeline (the main statement or one
// UNION branch).
type compiledBranch struct {
	width0  int // base row width (number of pre-bound variables)
	steps   []step
	columns []string // RETURN column names; nil for result-less branches
	fast    *fastCountPlan
}

func compileBranch(cc *compileCtx, clauses []Clause, bindNames []string, maintained []maintainedPart) (*compiledBranch, error) {
	en := newEnv()
	for _, n := range bindNames {
		en.add(n)
	}
	cb := &compiledBranch{width0: len(bindNames)}
	cb.fast = compileFastCount(cc, en, clauses)
	for i := 0; i < len(clauses); i++ {
		var st step
		var err error
		if j := slices.IndexFunc(maintained, func(mp maintainedPart) bool {
			return mp.part.from == i && mp.part.freeIn(en)
		}); j >= 0 {
			en, st, cb.columns, err = compileMaintained(cc, en, clauses, maintained[j])
			if err != nil {
				return nil, err
			}
			cb.steps = append(cb.steps, st)
			i = maintained[j].part.to
			continue
		}
		cl := clauses[i]
		switch c := cl.(type) {
		case *MatchClause:
			en, st, err = compileMatch(cc, en, c)
		case *UnwindClause:
			en, st, err = compileUnwind(cc, en, c)
		case *WithClause:
			en, st, err = compileWith(cc, en, c)
		case *ReturnClause:
			st, cb.columns, err = compileReturn(cc, en, c)
		default:
			en, st, err = compileUpdate(cc, en, cl)
		}
		if err != nil {
			return nil, err
		}
		cb.steps = append(cb.steps, st)
	}
	return cb, nil
}

// compileUpdate compiles a write clause, the kinds a FOREACH body may hold.
func compileUpdate(cc *compileCtx, en *env, cl Clause) (*env, step, error) {
	var st step
	var err error
	switch c := cl.(type) {
	case *CreateClause:
		return compileCreate(cc, en, c)
	case *MergeClause:
		return compileMerge(cc, en, c)
	case *ForeachClause:
		st, err = compileForeach(cc, en, c)
	case *DeleteClause:
		st, err = compileDelete(cc, en, c)
	case *SetClause:
		st, err = compileSet(cc, en, c)
	case *RemoveClause:
		st, err = compileRemove(cc, en, c)
	default:
		err = fmt.Errorf("cypher: unhandled clause %T", cl)
	}
	return en, st, err
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
	for _, st := range cb.steps {
		rows, err = st.run(ex, rows)
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

func compileMatch(cc *compileCtx, en *env, c *MatchClause) (*env, step, error) {
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
			return nil, step{}, err
		}
	}
	order, err := planParts(cc, newEn, len(en.names), cps)
	if err != nil {
		return nil, step{}, err
	}
	var whereFn exprFn
	if c.Where != nil {
		whereFn, err = compileExpr(cc, newEn, c.Where)
		if err != nil {
			return nil, step{}, err
		}
	}
	explain := []string{"MATCH"}
	if c.Optional {
		explain[0] = "OPTIONAL MATCH"
	}
	for rank, i := range order {
		explain = append(explain,
			fmt.Sprintf("   pattern %d/%d %s", rank+1, len(order), describePattern(cps[i].part)),
			"   "+cps[i].describeAccess())
	}
	if c.Where != nil {
		explain = append(explain, "   filter: WHERE")
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
	return newEn, step{run: op, explain: explain}, nil
}

// planParts decides, once, how a MATCH clause's parts run: their order, and
// for each part what is bound when it runs (the first parentWidth slots of
// en, plus the slots of the parts ordered before it) and hence its anchor
// (see settle). Parts run cheapest first — one sharing a bound node is an
// anchored join, then by access-path estimate — unless some part's property
// expressions reference a sibling part's variables: then source order is
// kept, since reordering would change which references see bound values.
func planParts(cc *compileCtx, en *env, parentWidth int, cps []*compiledPattern) ([]int, error) {
	bound := make([]bool, len(en.names))
	for i := 0; i < parentWidth; i++ {
		bound[i] = true
	}
	fixed := len(cps) == 1 || crossReferenced(en, parentWidth, cps)
	order := make([]int, 0, len(cps))
	used := make([]bool, len(cps))
	for len(order) < len(cps) {
		best, bestCost := -1, int64(1)<<62
		for i, cp := range cps {
			if used[i] {
				continue
			}
			if fixed {
				best = i
				break
			}
			cost := int64(0) // an anchored join on an already bound node
			if cp.boundAnchor(bound) < 0 {
				if err := planAccess(cc, en, cp); err != nil {
					return nil, err
				}
				cost = cp.access.cost()
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		used[best] = true
		order = append(order, best)
		if err := cps[best].settle(cc, en, bound); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// crossReferenced reports whether some part's property expressions reference
// a variable that a sibling part introduces.
func crossReferenced(en *env, parentWidth int, cps []*compiledPattern) bool {
	owner := make(map[int]int) // slot → first part introducing it
	for i, cp := range cps {
		for _, s := range cp.slots() {
			if _, ok := owner[s]; !ok && s >= parentWidth {
				owner[s] = i
			}
		}
	}
	for i, cp := range cps {
		own := make(map[int]bool)
		for _, s := range cp.slots() {
			own[s] = true
		}
		for name := range collectVarNames(&PatternExpr{Pattern: cp.part}) {
			slot, ok := en.lookup(name)
			if o, sib := owner[slot]; ok && sib && o != i && !own[slot] {
				return true
			}
		}
	}
	return false
}

// collectVarNames gathers every variable referenced anywhere in e, pattern
// variables included. Shadowed inner variables (comprehensions, reduce) are
// included too; the over-approximation only forces source order, never an
// invalid reorder.
func collectVarNames(e Expr) map[string]bool {
	out := make(map[string]bool)
	walkExpr(e, func(x Expr, _ bool) bool {
		switch x := x.(type) {
		case *Variable:
			out[x.Name] = true
		case *PatternExpr:
			for _, n := range x.Pattern.Nodes {
				out[n.Var] = true
			}
			for _, r := range x.Pattern.Rels {
				out[r.Var] = true
			}
		}
		return true
	})
	delete(out, "")
	return out
}

// ---- UNWIND ----

func compileUnwind(cc *compileCtx, en *env, c *UnwindClause) (*env, step, error) {
	listFn, err := compileExpr(cc, en, c.List)
	if err != nil {
		return nil, step{}, err
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
	return newEn, step{run: op, explain: []string{"UNWIND … AS " + c.Var}}, nil
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

func compileWith(cc *compileCtx, en *env, c *WithClause) (*env, step, error) {
	items := c.Items
	if c.Star {
		items = append(starItems(en), c.Items...)
	}
	newEn, proj, err := compileProjection(cc, en, items, c.Distinct, c.OrderBy, c.Skip, c.Limit)
	if err != nil {
		return nil, step{}, err
	}
	var whereFn exprFn
	if c.Where != nil {
		if whereFn, err = compileExpr(cc, newEn, c.Where); err != nil {
			return nil, step{}, err
		}
	}
	explain := "WITH (" + describeProjection(c.Items, c.Star, c.Distinct, c.OrderBy != nil) + ")"
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
	return newEn, step{run: op, explain: []string{explain}}, nil
}

func compileReturn(cc *compileCtx, en *env, c *ReturnClause) (step, []string, error) {
	items := c.Items
	if c.Star {
		items = append(starItems(en), c.Items...)
	}
	_, proj, err := compileProjection(cc, en, items, c.Distinct, c.OrderBy, c.Skip, c.Limit)
	if err != nil {
		return step{}, nil, err
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
	explain := "RETURN (" + describeProjection(c.Items, c.Star, c.Distinct, c.OrderBy != nil) + ")"
	return step{run: op, explain: []string{explain}}, cols, nil
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
		itemAggs[i] = collectAggregates(it.Expr)
		if len(itemAggs[i]) > 0 {
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

// collectAggregates gathers the aggregate function calls inside an item,
// outside per-element bodies and pattern predicates. Aggregates cannot nest.
func collectAggregates(e Expr) []*FuncCall {
	var out []*FuncCall
	walkExpr(e, func(x Expr, body bool) bool {
		if body {
			return false
		}
		switch x := x.(type) {
		case *FuncCall:
			if x.def.agg != nil {
				out = append(out, x)
				return false
			}
		case *PatternExpr:
			return false
		}
		return true
	})
	return out
}

// ---- CREATE / MERGE / FOREACH ----

func compileCreate(cc *compileCtx, en *env, c *CreateClause) (*env, step, error) {
	newEn := en.clone()
	cps := make([]*compiledPattern, len(c.Patterns))
	for i, p := range c.Patterns {
		if p.Var != "" {
			return nil, step{}, fmt.Errorf("cypher: path variables are not supported in CREATE")
		}
		cps[i] = patternSlots(newEn, p)
	}
	for _, cp := range cps {
		if err := compilePatternBody(cc, newEn, cp); err != nil {
			return nil, step{}, err
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
	return newEn, step{run: op, explain: []string{fmt.Sprintf("CREATE %d pattern(s)", len(c.Patterns))}}, nil
}

func compileMerge(cc *compileCtx, en *env, c *MergeClause) (*env, step, error) {
	newEn := en.clone()
	cp, err := compileFullPattern(cc, newEn, c.Pattern)
	if err != nil {
		return nil, step{}, err
	}
	onMatch, err := compileSetItems(cc, newEn, c.OnMatchSet)
	if err != nil {
		return nil, step{}, err
	}
	onCreate, err := compileSetItems(cc, newEn, c.OnCreateSet)
	if err != nil {
		return nil, step{}, err
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
	explain := []string{"MERGE " + describePattern(c.Pattern), "   " + cp.describeAccess()}
	return newEn, step{run: op, explain: explain}, nil
}

// compileForeach compiles the nested update clauses once; at runtime the
// body pipeline runs per list element per input row. Variables introduced
// inside the body (and the loop variable) are not visible afterwards.
func compileForeach(cc *compileCtx, en *env, c *ForeachClause) (step, error) {
	listFn, err := compileExpr(cc, en, c.List)
	if err != nil {
		return step{}, err
	}
	inner := en.clone()
	slot := inner.add(c.Var)
	innerWidth := len(inner.names)
	bodyEn := inner
	var bodyOps []clauseOp
	for _, cl := range c.Body {
		var st step
		if bodyEn, st, err = compileUpdate(cc, bodyEn, cl); err != nil {
			return step{}, err
		}
		bodyOps = append(bodyOps, st.run)
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
	explain := fmt.Sprintf("FOREACH %s IN … (%d update clause(s))", c.Var, len(c.Body))
	return step{run: op, explain: []string{explain}}, nil
}

// ---- DELETE / SET / REMOVE ----

func compileDelete(cc *compileCtx, en *env, c *DeleteClause) (step, error) {
	fns := make([]exprFn, len(c.Exprs))
	for i, e := range c.Exprs {
		fn, err := compileExpr(cc, en, e)
		if err != nil {
			return step{}, err
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
	kw := "DELETE"
	if detach {
		kw = "DETACH DELETE"
	}
	return step{run: op, explain: []string{fmt.Sprintf("%s %d expression(s)", kw, len(c.Exprs))}}, nil
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

func compileSet(cc *compileCtx, en *env, c *SetClause) (step, error) {
	ops, err := compileSetItems(cc, en, c.Items)
	if err != nil {
		return step{}, err
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		for _, r := range rows {
			if err := ex.applySetOps(r, ops); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
	return step{run: op, explain: []string{fmt.Sprintf("SET %d item(s)", len(c.Items))}}, nil
}

// removeOp is one compiled REMOVE item.
type removeOp struct {
	slot   int
	target string
	key    string
	labels []string
}

func compileRemove(cc *compileCtx, en *env, c *RemoveClause) (step, error) {
	ops := make([]removeOp, 0, len(c.Items))
	for _, it := range c.Items {
		slot, ok := en.lookup(it.Target)
		if !ok {
			return step{}, fmt.Errorf("cypher: variable `%s` not defined in REMOVE", it.Target)
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
	return step{run: op, explain: []string{fmt.Sprintf("REMOVE %d item(s)", len(c.Items))}}, nil
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

func compileFastCount(cc *compileCtx, en *env, clauses []Clause) *fastCountPlan {
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
		v, ok := call.Args[0].(*Variable)
		if !ok || v.Name != np.Var {
			return nil
		}
	}
	if _, bound := en.lookup(np.Var); bound {
		return nil // counts one given node, not a label
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
			fn, err := compileExpr(cc, newEnv(), e)
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
