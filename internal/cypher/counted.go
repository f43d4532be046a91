package cypher

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/value"
)

// AggPart is a statement's "aggregate what reaches g" part, as FindAggParts
// recognises it: MATCH clauses linked to the clauses before them by one group
// key g alone, feeding a WITH or RETURN whose one aggregate is count(x),
// count(DISTINCT x), count(*), max(x.p) or min(x.p), and whose other items
// read only what was bound before the part. The key is a node bound by an
// earlier MATCH, or a value projected by an earlier WITH whose one use in the
// part is {p: g} on a node the part binds (R4's (a:Alert {Region: Region})).
// The aggregate per key is a function of the graph alone, so a rule engine
// can keep it up to date as the graph changes instead of recomputing it on
// every run (see Plan.Maintained).
type AggPart struct {
	// G is the group key and X the aggregated node; for count(*), X is the
	// part's first named node variable.
	G, X string
	// Func is count, max or min. Distinct marks count(DISTINCT x); Prop is
	// the property of x a max or min reads.
	Func     string
	Distinct bool
	Prop     string
	keep     keepRule
	// KeyNode and KeyProp place a value key's one use, {KeyProp: G} on node
	// KeyNode; both are empty for a node key.
	KeyNode, KeyProp string
	// Sub is the part's text, MATCH … RETURN G, and the aggregate, with its
	// layout normalised away. Parts with one Sub aggregate the same thing,
	// so a rule engine keeps one copy.
	Sub string
	// ByKey is the part as a statement of its own, MATCH … RETURN g, n, and
	// for max and min v: run with G bound it aggregates one key. n counts
	// the matches (the distinct x, for count(DISTINCT x)) and v is the max
	// or min. ByX returns the same columns run with X bound: one x's
	// contribution to every key it reaches. For a value key it drops the
	// {KeyProp: G} equality and returns KeyNode.KeyProp in g's place.
	ByKey, ByX *Plan

	// The footprint: a change that touches none of these leaves every
	// aggregate as it was, except through a new x.
	Labels   []string // node labels the part matches
	RelTypes []string // relationship types it traverses (every pattern names some)
	PropKeys []string // properties it reads: in patterns, in WHERE, and Prop
	// XLabels are the labels every x carries; Others holds the label set of
	// each other node position but a node g's (an empty set matches any
	// node).
	XLabels []string
	Others  [][]string

	from, to int      // MATCH clauses from..to-1, the WITH or RETURN at to
	agg      int      // the aggregate item of the clause at to
	own      []string // the variables the part binds itself
}

// AggSource serves a maintained plan the aggregate of its part for one key:
// k is the key of g, the value the incoming row binds to the part's G, and
// g is equal to itself.
type AggSource interface {
	Aggregate(tx *graph.Tx, k value.Key, g value.Value) (graph.DerivedEntry, error)
}

// Entry reads the aggregate from a row of ByKey or ByX.
func (p *AggPart) Entry(row []value.Value) graph.DerivedEntry {
	n, _ := row[1].AsInt()
	e := graph.DerivedEntry{N: n}
	if len(row) > 2 {
		e.V = row[2]
	}
	return e
}

// Merge returns the aggregate of two disjoint sets of matches from theirs,
// a and b: the counts add, and a max or min keeps a's value on a tie.
func (p *AggPart) Merge(a, b graph.DerivedEntry) graph.DerivedEntry {
	a.N += b.N
	switch {
	case b.V.IsNull():
	case a.V.IsNull():
		a.V = b.V
	default:
		if c := value.Compare(b.V, a.V); (p.keep == keepMax && c > 0) || (p.keep == keepMin && c < 0) {
			a.V = b.V
		}
	}
	return a
}

// value is what the part's aggregate returns for e.
func (p *AggPart) value(e graph.DerivedEntry) value.Value {
	if p.keep == keepCount {
		return value.Int(e.N)
	}
	return e.V
}

// FindAggParts recognises the aggregate parts of stmt, in clause order. A
// part is the longest run of MATCH clauses ending at a WITH or RETURN, after
// at least one clause, that qualifies. Everything in it must be a function of
// the graph and its key: no parameters, function calls, pattern predicates,
// variable-length or untyped relationships, and no reference to a variable
// bound outside it but the key. bound names the variables the statement runs
// with already bound (a rule's transition variables, such as NEW): the part
// may not name one of them, unless an earlier MATCH clause binds it as g.
// Only MATCH and WITH clauses may precede a part.
func FindAggParts(stmt *Statement, bound []string) []*AggPart {
	if len(stmt.Unions) > 0 || stmt.Explain {
		return nil
	}
	var parts []*AggPart
	first := 0 // the first clause of the run of MATCH clauses before to
	for to, cl := range stmt.Clauses {
		if _, ok := cl.(*MatchClause); ok {
			continue
		}
		if items, agg := aggProjection(cl); agg >= 0 {
			for from := max(first, 1); from < to; from++ {
				if p := aggPartAt(stmt, bound, from, to, items, agg); p != nil {
					parts = append(parts, p)
					break
				}
			}
		}
		first = to + 1
	}
	return parts
}

// aggProjection returns the items of a plain WITH or RETURN and the index of
// its one aggregate when a rule engine can maintain it (count, or max or min
// without DISTINCT), or -1.
func aggProjection(cl Clause) ([]*ReturnItem, int) {
	var items []*ReturnItem
	switch c := cl.(type) {
	case *WithClause:
		if c.Distinct || c.Star || c.OrderBy != nil || c.Skip != nil || c.Limit != nil {
			return nil, -1
		}
		items = c.Items
	case *ReturnClause:
		if c.Distinct || c.Star || c.OrderBy != nil || c.Skip != nil || c.Limit != nil {
			return nil, -1
		}
		items = c.Items
	default:
		return nil, -1
	}
	agg := -1
	for i, it := range items {
		if len(collectAggregates(it.Expr)) == 0 {
			continue
		}
		call, ok := it.Expr.(*FuncCall)
		if agg >= 0 || !ok || call.def.keep == keepNone || (call.def.keep != keepCount && call.Distinct) {
			return nil, -1
		}
		agg = i
	}
	return items, agg
}

// aggPartAt recognises clauses from..to-1 as an aggregate part, or returns
// nil.
func aggPartAt(stmt *Statement, bound []string, from, to int, items []*ReturnItem, agg int) *AggPart {
	// What the clause at from sees: the names in scope, the nodes and the
	// values (projected by the last WITH) among them, and every name the
	// part may not bind.
	scope, nodes, values, reserved := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, v := range bound {
		scope[v], reserved[v] = true, true
	}
	for _, cl := range stmt.Clauses[:from] {
		switch c := cl.(type) {
		case *MatchClause:
			for _, p := range c.Patterns {
				for _, n := range p.Nodes {
					scope[n.Var], nodes[n.Var] = true, true
				}
				for _, r := range p.Rels {
					scope[r.Var] = true
				}
				scope[p.Var] = true
			}
		case *WithClause:
			if c.Star {
				return nil
			}
			scope, nodes, values = map[string]bool{}, map[string]bool{}, map[string]bool{}
			for _, it := range c.Items {
				name := itemName(it)
				scope[name] = true
				if v, ok := it.Expr.(*Variable); ok && nodes[v.Name] {
					nodes[name] = true
				} else {
					values[name] = true
				}
			}
		default:
			return nil
		}
		for v := range scope {
			reserved[v] = true
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
	nodeG, valueG, keyNode, keyProp := "", "", "", ""
	for _, p := range parts {
		if p.Var != "" {
			return nil
		}
		for _, n := range p.Nodes {
			for _, k := range sortedPropKeys(n.Props) {
				keys = append(keys, k)
				if v, ok := n.Props[k].(*Variable); ok && values[v.Name] {
					// A value key's use: once, on a node of the part's own.
					if valueG != "" || n.Var == "" || reserved[n.Var] {
						return nil
					}
					valueG, keyNode, keyProp = v.Name, n.Var, k
					continue
				}
				exprs = append(exprs, n.Props[k])
			}
			switch {
			case n.Var == "":
			case nodes[n.Var]:
				if nodeG != "" && nodeG != n.Var {
					return nil
				}
				nodeG = n.Var
			case reserved[n.Var]:
				return nil
			default:
				own[n.Var] = true
				if !slices.Contains(nodeVars, n.Var) {
					nodeVars = append(nodeVars, n.Var)
				}
			}
		}
		for _, r := range p.Rels {
			if len(r.Types) == 0 || r.VarHops || (r.Var != "" && reserved[r.Var]) {
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
	g, root := nodeG, nodeG
	switch {
	case nodeG != "" && valueG == "":
	case nodeG == "" && valueG != "":
		g, root = valueG, keyNode
	default:
		return nil
	}
	if !connected(parts, root) {
		return nil
	}
	cp := &AggPart{G: g, KeyNode: keyNode, KeyProp: keyProp, from: from, to: to, agg: agg}
	for v := range own {
		cp.own = append(cp.own, v)
	}
	for _, e := range exprs {
		if !graphOnly(e, &keys) {
			return nil
		}
		for v := range collectVarNames(e) {
			if !own[v] && v != nodeG {
				return nil // a binding (NEW), the value key, or another outer variable
			}
		}
	}
	call := items[agg].Expr.(*FuncCall)
	cp.Func, cp.Distinct, cp.keep = call.Name, call.Distinct, call.def.keep
	switch {
	case call.Star:
		if len(nodeVars) > 0 {
			cp.X = nodeVars[0]
		}
	case cp.keep == keepCount:
		if v, ok := call.Args[0].(*Variable); ok && slices.Contains(nodeVars, v.Name) {
			cp.X = v.Name
		}
	default:
		if pa, ok := call.Args[0].(*PropAccess); ok {
			if v, ok := pa.X.(*Variable); ok && slices.Contains(nodeVars, v.Name) {
				cp.X, cp.Prop = v.Name, pa.Key
				keys = append(keys, pa.Key)
			}
		}
	}
	if cp.X == "" {
		return nil
	}
	for i, it := range items {
		if i == agg {
			continue
		}
		for v := range collectVarNames(it.Expr) {
			if !scope[v] || own[v] {
				return nil
			}
		}
	}
	for _, p := range parts {
		for _, n := range p.Nodes {
			switch {
			case n.Var != "" && n.Var == nodeG:
			case n.Var == cp.X:
				cp.XLabels = append(cp.XLabels, n.Labels...)
			default:
				cp.Others = append(cp.Others, n.Labels)
			}
		}
	}
	cp.XLabels = uniqSorted(cp.XLabels)
	clauses := slices.Clip(slices.Clone(stmt.Clauses[from:to]))
	sub := ""
	for _, cl := range clauses {
		sub += cl.(*MatchClause).text + " "
	}
	cp.Sub = normalText(sub + "RETURN " + g + ", " + items[agg].Text)
	info := Inspect(&Statement{Clauses: clauses})
	cp.Labels, cp.RelTypes, cp.PropKeys = info.MatchedNodeLabels, info.MatchedRelTypes, uniqSorted(keys)
	ret := func(key Expr) *ReturnClause {
		items := []*ReturnItem{{Expr: key, Alias: "g", Text: "g"}}
		if cp.keep == keepCount {
			return &ReturnClause{Items: append(items, &ReturnItem{Expr: call, Alias: "n", Text: "n"})}
		}
		star := &FuncCall{Name: "count", Star: true, def: functions["count"]}
		return &ReturnClause{Items: append(items,
			&ReturnItem{Expr: star, Alias: "n", Text: "n"}, &ReturnItem{Expr: call, Alias: "v", Text: "v"})}
	}
	cp.ByKey = (&Statement{Query: stmt.Query, Clauses: append(clauses, ret(&Variable{Name: g}))}).Prepared()
	cp.ByX = cp.ByKey
	if keyNode != "" {
		byX := append(withoutKey(clauses, keyNode, keyProp, g), ret(&PropAccess{X: &Variable{Name: keyNode}, Key: keyProp}))
		cp.ByX = (&Statement{Query: stmt.Query, Clauses: byX}).Prepared()
	}
	return cp
}

// normalText renders the tokens of src, which lexes, apart from its layout
// and its keywords' case.
func normalText(src string) string {
	toks, _ := lex(src)
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokKeyword {
			t.text = strings.ToUpper(t.text)
		}
		fmt.Fprintf(&b, "%d%q", t.kind, t.text)
	}
	return b.String()
}

// withoutKey returns copies of the MATCH clauses with the value key g's use,
// {prop: g} on node, dropped.
func withoutKey(clauses []Clause, node, prop, g string) []Clause {
	out := make([]Clause, len(clauses))
	for i, cl := range clauses {
		m := *cl.(*MatchClause)
		m.Patterns = slices.Clone(m.Patterns)
		for j, p := range m.Patterns {
			q := *p
			q.Nodes = slices.Clone(q.Nodes)
			for k, n := range q.Nodes {
				if v, ok := n.Props[prop].(*Variable); ok && v.Name == g && n.Var == node {
					c := *n
					c.Props = maps.Clone(n.Props)
					delete(c.Props, prop)
					q.Nodes[k] = &c
				}
			}
			m.Patterns[j] = &q
		}
		out[i] = &m
	}
	return out
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
// the maintained aggregate, a function of the graph alone, does not apply.
func (cp *AggPart) freeIn(en *env) bool {
	for _, v := range cp.own {
		if _, ok := en.lookup(v); ok {
			return false
		}
	}
	return true
}

// describe renders the aggregate, as EXPLAIN names it.
func (cp *AggPart) describe() string {
	arg := cp.X
	if cp.Prop != "" {
		arg += "." + cp.Prop
	}
	if cp.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("%s(%s) per %s", cp.Func, arg, cp.G)
}

// maintainedPart is one part a maintained plan reads from its source.
type maintainedPart struct {
	part *AggPart
	src  AggSource
}

// Maintained returns a plan for p's statement that reads the aggregate of
// each of parts, which FindAggParts recognised in that statement, from the
// source at the same position of srcs instead of matching and aggregating:
// per incoming row it asks the source for the aggregate of the row's g, and
// groups and combines those as the WITH or RETURN would have grouped and
// aggregated the matches. A g not equal to itself (NULL, NaN, or a list or
// map holding one) matches nothing and reads no source. An execution that
// cannot combine the aggregates runs that part as written: a
// count(DISTINCT x) group whose rows bind different keys, or a g of the
// wrong kind for the part's key. A binding shape that binds a variable of a
// part compiles that part as written.
func (p *Plan) Maintained(parts []*AggPart, srcs []AggSource) *Plan {
	m := make([]maintainedPart, len(parts))
	for i, part := range parts {
		m[i] = maintainedPart{part: part, src: srcs[i]}
	}
	return &Plan{query: p.query, stmt: p.stmt, maintained: m}
}

// compileMaintained compiles the aggregate part of clauses, starting from en
// (the environment before the part): the aggregate-read step, holding the
// part's steps as written for the executions it hands back.
func compileMaintained(cc *compileCtx, en *env, clauses []Clause, mp maintainedPart) (*env, step, []string, error) {
	cp := mp.part
	gSlot, ok := en.lookup(cp.G)
	if !ok {
		return nil, step{}, nil, fmt.Errorf("cypher: maintained part: %s is not bound", cp.G)
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
	// Keys read only what is bound before the part, so they evaluate on
	// the rows entering it.
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
	src, agg, width, nodeKey := mp.src, cp.agg, len(items), cp.KeyNode == ""
	type group struct {
		keys row
		k    value.Key
		e    graph.DerivedEntry
	}
	// read groups the incoming rows and combines the aggregates of their g,
	// or reports false when the part must run as written.
	read := func(ex *executor, rows []row) ([]row, bool, error) {
		seen := make(map[value.Key]graph.DerivedEntry) // the aggregate of each key read so far
		var groups []*group
		index := make(map[value.Key]*group)
		keyVals := make(row, len(keyItems))
		for _, r := range rows {
			gv := r[gSlot]
			k := gv.Key()
			if !k.SelfEqual() {
				continue // g matches nothing
			}
			if nodeKey != (gv.Kind() == value.KindNode) {
				return nil, false, nil
			}
			e, ok := seen[k]
			if !ok {
				var err error
				if e, err = src.Aggregate(ex.ctx.tx, k, gv); err != nil {
					return nil, false, err
				}
				seen[k] = e
			}
			if e.N == 0 {
				continue // no match: the row makes no group
			}
			for j, item := range keyItems {
				v, err := keyFns[item](ex.ctx, r)
				if err != nil {
					return nil, false, err
				}
				keyVals[j] = v
			}
			hk := value.TupleKey(keyVals)
			grp, ok := index[hk]
			switch {
			case !ok:
				grp = &group{keys: make(row, width), k: k, e: e}
				for j, item := range keyItems {
					grp.keys[item] = keyVals[j]
				}
				index[hk] = grp
				groups = append(groups, grp)
			case cp.Distinct && grp.k != k:
				return nil, false, nil // a union of two keys' sets
			case cp.Distinct: // the same key's set again
			default:
				grp.e = cp.Merge(grp.e, e)
			}
		}
		if len(groups) == 0 && len(keyItems) == 0 {
			groups = append(groups, &group{keys: make(row, width)})
		}
		out := make([]row, len(groups))
		for i, grp := range groups {
			grp.keys[agg] = cp.value(grp.e)
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
		fmt.Sprintf("MAINTAINED %s %s (in place of %d MATCH clause(s) and %s)",
			strings.ToUpper(cp.Func), cp.describe(), cp.to-cp.from, clause),
		fmt.Sprintf("   reads the %s kept per %s; a miss runs the part with %s bound", cp.Func, cp.G, cp.G),
	}
	if where != nil {
		explain = append(explain, "   filter: WHERE")
	}
	return outEn, step{run: op, explain: explain}, cols, nil
}
