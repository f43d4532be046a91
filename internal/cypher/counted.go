package cypher

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/value"
)

// CountPart is a statement's "count what reaches g" part, as FindCountPart
// recognises it: MATCH clauses whose only variable shared with the clauses
// before them is a node g, feeding a WITH or RETURN whose keys are g or
// properties of g and whose one aggregate is count(x), count(DISTINCT x) or
// count(*). The count per g is a function of the graph alone, so a rule
// engine can keep it up to date as the graph changes instead of recounting
// it on every run (see Plan.Counted).
type CountPart struct {
	// G is the group variable and X the counted one; for count(*), X is the
	// part's first named node variable other than G.
	G, X     string
	Distinct bool
	// Sub is the part as a statement of its own, MATCH … RETURN g, count(x)
	// (columns g and n): run with G bound it counts one g, with X bound it
	// gives one x's contribution to every g it reaches.
	Sub *Plan

	// The footprint: a change that touches none of these leaves every count
	// as it was, except through a new x.
	Labels   []string // node labels the part matches
	RelTypes []string // relationship types it traverses (every pattern names some)
	PropKeys []string // properties it reads, in patterns and WHERE
	// XLabels are the labels every x carries; Others holds the label set of
	// each other node position but g's (an empty set matches any node).
	XLabels []string
	Others  [][]string

	from, to int      // MATCH clauses from..to-1, the WITH or RETURN at to
	agg      int      // the count item of the clause at to
	own      []string // the variables the part binds itself
}

// CountSource serves a counted plan the count of its part for one g.
type CountSource interface {
	Count(tx *graph.Tx, g graph.NodeID) (int64, error)
}

// FindCountPart recognises the count part of stmt, or returns nil. The part
// is the shortest run of MATCH clauses, after at least one MATCH clause that
// binds g, ending at the statement's first WITH or RETURN. Everything in it
// must be a function of the graph: no parameters, function calls, pattern
// predicates, variable-length or untyped relationships, and no reference to
// a variable bound outside it but g. bound names the variables the
// statement runs with already bound (a rule's transition variables, such as
// NEW): the part may not name one of them, unless an earlier MATCH clause
// binds it as g.
func FindCountPart(stmt *Statement, bound []string) *CountPart {
	if len(stmt.Unions) > 0 || stmt.Explain {
		return nil
	}
	to := -1
	for i, cl := range stmt.Clauses {
		if _, ok := cl.(*MatchClause); !ok {
			to = i
			break
		}
	}
	if to < 2 {
		return nil
	}
	var items []*ReturnItem
	switch c := stmt.Clauses[to].(type) {
	case *WithClause:
		if c.Distinct || c.Star || c.OrderBy != nil || c.Skip != nil || c.Limit != nil {
			return nil
		}
		items = c.Items
	case *ReturnClause:
		if c.Distinct || c.Star || c.OrderBy != nil || c.Skip != nil || c.Limit != nil {
			return nil
		}
		items = c.Items
	default:
		return nil
	}
	agg := -1
	for i, it := range items {
		if len(collectAggregates(it.Expr)) == 0 {
			continue
		}
		call, ok := it.Expr.(*FuncCall)
		if agg >= 0 || !ok || call.Name != "count" {
			return nil
		}
		agg = i
	}
	if agg < 0 {
		return nil
	}
	for from := 1; from < to; from++ {
		if cp := countPartAt(stmt, bound, from, to, items, agg); cp != nil {
			return cp
		}
	}
	return nil
}

// countPartAt recognises clauses from..to-1 as the count part, or returns
// nil.
func countPartAt(stmt *Statement, bound []string, from, to int, items []*ReturnItem, agg int) *CountPart {
	before := make(map[string]bool) // variables bound before the part
	for _, v := range bound {
		before[v] = true
	}
	nodesBefore := make(map[string]bool)
	for _, cl := range stmt.Clauses[:from] {
		for _, p := range cl.(*MatchClause).Patterns {
			for _, n := range p.Nodes {
				before[n.Var], nodesBefore[n.Var] = true, true
			}
			for _, r := range p.Rels {
				before[r.Var] = true
			}
			before[p.Var] = true
		}
	}
	var parts []*PatternPart
	var exprs []Expr // WHERE clauses and property-map values
	for _, cl := range stmt.Clauses[from:to] {
		m := cl.(*MatchClause)
		if m.Optional {
			return nil
		}
		parts = append(parts, m.Patterns...)
		if m.Where != nil {
			exprs = append(exprs, m.Where)
		}
	}
	own := make(map[string]bool) // variables the part binds itself
	var nodeVars []string        // the part's named node variables, in order
	var keys []string            // the properties the part reads
	g := ""
	for _, p := range parts {
		if p.Var != "" {
			return nil
		}
		for _, n := range p.Nodes {
			for _, k := range sortedPropKeys(n.Props) {
				exprs, keys = append(exprs, n.Props[k]), append(keys, k)
			}
			switch {
			case n.Var == "":
			case nodesBefore[n.Var]:
				if g != "" && g != n.Var {
					return nil
				}
				g = n.Var
			case before[n.Var]:
				return nil
			default:
				own[n.Var] = true
				if !slices.Contains(nodeVars, n.Var) {
					nodeVars = append(nodeVars, n.Var)
				}
			}
		}
		for _, r := range p.Rels {
			if len(r.Types) == 0 || r.VarHops || (r.Var != "" && before[r.Var]) {
				return nil
			}
			for _, k := range sortedPropKeys(r.Props) {
				exprs, keys = append(exprs, r.Props[k]), append(keys, k)
			}
			if r.Var != "" {
				own[r.Var] = true
			}
		}
	}
	if g == "" || !connected(parts, g) {
		return nil
	}
	cp := &CountPart{G: g, from: from, to: to, agg: agg}
	for v := range own {
		cp.own = append(cp.own, v)
	}
	for _, e := range exprs {
		if !graphOnly(e, &keys) {
			return nil
		}
		for v := range collectVarNames(e) {
			if v != g && !own[v] {
				return nil // a binding (NEW) or another outer variable
			}
		}
	}
	call := items[agg].Expr.(*FuncCall)
	cp.Distinct = call.Distinct
	if call.Star {
		for _, v := range nodeVars {
			if v != g {
				cp.X = v
				break
			}
		}
	} else if v, ok := call.Args[0].(*Variable); ok && own[v.Name] && slices.Contains(nodeVars, v.Name) {
		cp.X = v.Name
	}
	if cp.X == "" {
		return nil
	}
	for i, it := range items {
		if i == agg {
			continue
		}
		for v := range collectVarNames(it.Expr) {
			if v != g {
				return nil
			}
		}
	}
	for _, p := range parts {
		for _, n := range p.Nodes {
			switch n.Var {
			case g:
			case cp.X:
				cp.XLabels = append(cp.XLabels, n.Labels...)
			default:
				cp.Others = append(cp.Others, n.Labels)
			}
		}
	}
	cp.XLabels = uniqSorted(cp.XLabels)
	clauses := slices.Clone(stmt.Clauses[from:to])
	info := Inspect(&Statement{Clauses: clauses})
	cp.Labels, cp.RelTypes, cp.PropKeys = info.MatchedNodeLabels, info.MatchedRelTypes, uniqSorted(keys)
	sub := &Statement{Query: stmt.Query, Clauses: append(clauses, &ReturnClause{Items: []*ReturnItem{
		{Expr: &Variable{Name: g}, Alias: "g", Text: g},
		{Expr: call, Alias: "n", Text: "count"},
	}})}
	cp.Sub = sub.Prepared()
	return cp
}

// connected reports whether the parts form one connected pattern with at
// least one relationship, g among its nodes: then every node of a match is
// an endpoint of one of its relationships.
func connected(parts []*PatternPart, g string) bool {
	parent := make(map[string]string)
	var find func(string) string
	find = func(k string) string {
		if p, ok := parent[k]; ok && p != k {
			r := find(p)
			parent[k] = r
			return r
		}
		parent[k] = k
		return k
	}
	key := func(n *NodePattern) string {
		if n.Var == "" {
			return fmt.Sprintf("\x00%p", n)
		}
		return n.Var
	}
	rels := 0
	for _, p := range parts {
		for i := range p.Rels {
			rels++
			parent[find(key(p.Nodes[i]))] = find(key(p.Nodes[i+1]))
		}
	}
	root := find(g)
	for _, p := range parts {
		for _, n := range p.Nodes {
			if find(key(n)) != root {
				return false
			}
		}
	}
	return rels > 0
}

// graphOnly reports whether e is a function of the row's entities alone
// (literals, variables, property accesses and operators on them), adding
// the property keys it reads to keys.
func graphOnly(e Expr, keys *[]string) bool {
	ok := true
	walkExpr(e, func(x Expr, _ bool) bool {
		switch x := x.(type) {
		case *Literal, *Variable, *UnaryOp, *BinaryOp, *ListLit:
		case *PropAccess:
			if _, isVar := x.X.(*Variable); !isVar {
				ok = false
			}
			*keys = append(*keys, x.Key)
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// freeIn reports whether en, the environment before the part, leaves every
// variable the part binds itself unbound. A binding shape that binds one
// (a NEW that first appears inside the part) pins what the part matches, so
// the maintained count, a function of the graph alone, does not apply.
func (cp *CountPart) freeIn(en *env) bool {
	for _, v := range cp.own {
		if _, ok := en.lookup(v); ok {
			return false
		}
	}
	return true
}

// describe renders the count, as EXPLAIN names it.
func (cp *CountPart) describe() string {
	arg := cp.X
	if cp.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("count(%s) per %s", arg, cp.G)
}

// countedPart is what Plan.Counted attaches to a plan.
type countedPart struct {
	part *CountPart
	src  CountSource
}

// Counted returns a plan for p's statement that reads the count of cp, a
// part FindCountPart recognised in that statement, from src instead of
// matching and counting: per incoming row it asks src for the count of the
// row's g, and groups and sums those as the WITH or RETURN would have
// grouped and counted the matches. A count(DISTINCT x) group whose rows bind
// different g cannot be summed; that execution runs the part as written. A
// binding shape that binds a variable of the part compiles it as written.
func (p *Plan) Counted(cp *CountPart, src CountSource) *Plan {
	return &Plan{query: p.query, stmt: p.stmt, counted: &countedPart{part: cp, src: src}}
}

// compileCounted compiles the count part of clauses, starting from en (the
// environment before the part): the count-read step, holding the part's
// steps as written for the executions it hands back.
func compileCounted(cc *compileCtx, en *env, clauses []Clause, cr *countedPart) (*env, step, []string, error) {
	cp := cr.part
	gSlot, ok := en.lookup(cp.G)
	if !ok {
		return nil, step{}, nil, fmt.Errorf("cypher: counted part: %s is not bound", cp.G)
	}
	// The part as written, for the fallback.
	var asWritten []clauseOp
	outEn := en
	var cols []string
	for _, cl := range clauses[cp.from : cp.to+1] {
		var st step
		var err error
		switch c := cl.(type) {
		case *MatchClause:
			outEn, st, err = compileMatch(cc, outEn, c)
		case *WithClause:
			outEn, st, err = compileWith(cc, outEn, c)
		case *ReturnClause:
			st, cols, err = compileReturn(cc, outEn, c)
		}
		if err != nil {
			return nil, step{}, nil, err
		}
		asWritten = append(asWritten, st.run)
	}
	var items []*ReturnItem
	var where Expr
	clause := "RETURN"
	switch c := clauses[cp.to].(type) {
	case *WithClause:
		items, where, clause = c.Items, c.Where, "WITH"
	case *ReturnClause:
		items = c.Items
	}
	// Keys read only g, so they evaluate on the rows entering the part.
	keyFns := make([]exprFn, len(items))
	var keyItems []int
	for i, it := range items {
		if i == cp.agg {
			continue
		}
		fn, err := compileExpr(cc, en, it.Expr)
		if err != nil {
			return nil, step{}, nil, err
		}
		keyFns[i] = fn
		keyItems = append(keyItems, i)
	}
	var whereFn exprFn
	if where != nil {
		var err error
		if whereFn, err = compileExpr(cc, outEn, where); err != nil {
			return nil, step{}, nil, err
		}
	}
	src, distinct, agg, width := cr.src, cp.Distinct, cp.agg, len(items)
	type group struct {
		keys row
		n    int64
		g    graph.NodeID
	}
	// read groups the incoming rows and sums the counts of their g, or
	// reports false when the part must run as written.
	read := func(ex *executor, rows []row) ([]row, bool, error) {
		var seen []group // the count of each g read so far
		var groups []*group
		index := make(map[string]*group)
		for _, r := range rows {
			gv := r[gSlot]
			if gv.IsNull() {
				continue // a NULL g matches nothing
			}
			id, isNode := gv.EntityID()
			if !isNode || gv.Kind() != value.KindNode {
				return nil, false, nil
			}
			g, n, found := graph.NodeID(id), int64(0), false
			for _, s := range seen {
				if s.g == g {
					n, found = s.n, true
					break
				}
			}
			if !found {
				var err error
				if n, err = src.Count(ex.ctx.tx, g); err != nil {
					return nil, false, err
				}
				seen = append(seen, group{g: g, n: n})
			}
			if n == 0 {
				continue // no match: the row makes no group
			}
			keys := make(row, width)
			hk := ""
			for _, i := range keyItems {
				v, err := keyFns[i](ex.ctx, r)
				if err != nil {
					return nil, false, err
				}
				keys[i] = v
				k := v.HashKey()
				hk += fmt.Sprintf("%d:%s;", len(k), k)
			}
			grp, ok := index[hk]
			switch {
			case !ok:
				grp = &group{keys: keys, g: g}
				index[hk] = grp
				groups = append(groups, grp)
			case distinct && grp.g != g:
				return nil, false, nil // a union of two g's sets
			}
			if distinct {
				grp.n = n
			} else {
				grp.n += n
			}
		}
		if len(groups) == 0 && len(keyItems) == 0 {
			groups = append(groups, &group{keys: make(row, width)})
		}
		out := make([]row, len(groups))
		for i, grp := range groups {
			grp.keys[agg] = value.Int(grp.n)
			out[i] = grp.keys
		}
		return out, true, nil
	}
	op := func(ex *executor, rows []row) ([]row, error) {
		out, ok, err := read(ex, rows)
		if err != nil {
			return nil, err
		}
		if !ok {
			for _, run := range asWritten {
				if rows, err = run(ex, rows); err != nil {
					return nil, err
				}
			}
			return rows, nil
		}
		if cols != nil {
			res := make([][]value.Value, len(out))
			for i, r := range out {
				res[i] = r
			}
			ex.result = &Result{Columns: cols, Rows: res}
			return nil, nil
		}
		if whereFn == nil {
			return out, nil
		}
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
		return kept, nil
	}
	explain := []string{
		fmt.Sprintf("MAINTAINED COUNT %s (in place of %d MATCH clause(s) and %s)",
			cp.describe(), cp.to-cp.from, clause),
		fmt.Sprintf("   reads the count kept per %s; a miss runs the part with %s bound", cp.G, cp.G),
	}
	if where != nil {
		explain = append(explain, "   filter: WHERE")
	}
	return outEn, step{run: op, explain: explain}, cols, nil
}
