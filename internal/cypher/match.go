package cypher

import (
	"errors"
	"sort"

	"repro/internal/graph"
	"repro/internal/value"
)

// errStop is used internally to abort a match enumeration early (EXISTS).
var errStop = errors.New("stop iteration")

// nodeCheckFn tests one node pattern's labels and property constraints
// against a concrete node.
type nodeCheckFn func(ctx *evalCtx, r row, id graph.NodeID) (bool, error)

// relCheckFn tests one relationship pattern's types and property constraints.
type relCheckFn func(ctx *evalCtx, r row, h graph.RelHandle) (bool, error)

// propsFn materializes a pattern element's property map (CREATE/MERGE).
type propsFn func(ctx *evalCtx, r row) (map[string]value.Value, error)

// compiledPattern is the fully compiled form of one pattern part: variable
// slots resolved against an environment, label/property predicates lowered
// to closures, and — for a part that is matched — what is bound when it runs
// and the anchor it starts from, both fixed at compile time by settle.
type compiledPattern struct {
	part      *PatternPart
	nodeSlots []int // slot per node pattern; -1 for anonymous
	relSlots  []int // slot per rel pattern; -1 for anonymous
	pathSlot  int   // -1 when the part has no path variable
	preBound  []int // node and rel slots bound before the part runs

	nodeChecks []nodeCheckFn
	relChecks  []relCheckFn
	nodeProps  []propsFn
	relProps   []propsFn
	access     accessPlan
}

// patternSlots assigns slots in en (mutating it) for every named variable of
// the pattern part. Pre-existing names are reused, which is how joins on
// shared variables happen.
func patternSlots(en *env, part *PatternPart) *compiledPattern {
	cp := &compiledPattern{part: part}
	slot := func(name string) int {
		if name == "" {
			return -1
		}
		return en.add(name)
	}
	for _, n := range part.Nodes {
		cp.nodeSlots = append(cp.nodeSlots, slot(n.Var))
	}
	for _, r := range part.Rels {
		cp.relSlots = append(cp.relSlots, slot(r.Var))
	}
	cp.pathSlot = slot(part.Var)
	return cp
}

// compilePatternBody lowers the pattern's predicates and property templates
// to closures against en. en must already contain every slot the pattern
// (and its siblings in the same MATCH) binds, so property expressions may
// reference any of them.
func compilePatternBody(cc *compileCtx, en *env, cp *compiledPattern) error {
	cp.nodeChecks = make([]nodeCheckFn, len(cp.part.Nodes))
	cp.nodeProps = make([]propsFn, len(cp.part.Nodes))
	for i, np := range cp.part.Nodes {
		check, err := compileNodeCheck(cc, en, np)
		if err != nil {
			return err
		}
		cp.nodeChecks[i] = check
		props, err := compileProps(cc, en, np.Props)
		if err != nil {
			return err
		}
		cp.nodeProps[i] = props
	}
	cp.relChecks = make([]relCheckFn, len(cp.part.Rels))
	cp.relProps = make([]propsFn, len(cp.part.Rels))
	for i, rp := range cp.part.Rels {
		check, err := compileRelCheck(cc, en, rp)
		if err != nil {
			return err
		}
		cp.relChecks[i] = check
		props, err := compileProps(cc, en, rp.Props)
		if err != nil {
			return err
		}
		cp.relProps[i] = props
	}
	return nil
}

// compileFullPattern compiles a single matched part (MERGE, pattern
// predicates): slots, body, and its anchor given that everything already in
// en is bound.
func compileFullPattern(cc *compileCtx, en *env, part *PatternPart) (*compiledPattern, error) {
	width := len(en.names)
	cp := patternSlots(en, part)
	if err := compilePatternBody(cc, en, cp); err != nil {
		return nil, err
	}
	_, err := planParts(cc, en, width, []*compiledPattern{cp})
	return cp, err
}

func compileNodeCheck(cc *compileCtx, en *env, np *NodePattern) (nodeCheckFn, error) {
	type propCheck struct {
		key string
		fn  exprFn
	}
	checks := make([]propCheck, 0, len(np.Props))
	for _, key := range sortedPropKeys(np.Props) {
		fn, err := compileExpr(cc, en, np.Props[key])
		if err != nil {
			return nil, err
		}
		checks = append(checks, propCheck{key: key, fn: fn})
	}
	labels := np.Labels
	return func(ctx *evalCtx, r row, id graph.NodeID) (bool, error) {
		for _, l := range labels {
			if !ctx.tx.NodeHasLabel(id, l) {
				return false, nil
			}
		}
		for _, pc := range checks {
			want, err := pc.fn(ctx, r)
			if err != nil {
				return false, err
			}
			got, ok := ctx.tx.NodeProp(id, pc.key)
			if !ok {
				return false, nil
			}
			eq, known := value.Equal(got, want)
			if !known || !eq {
				return false, nil
			}
		}
		return true, nil
	}, nil
}

func compileRelCheck(cc *compileCtx, en *env, rp *RelPattern) (relCheckFn, error) {
	type propCheck struct {
		key string
		fn  exprFn
	}
	checks := make([]propCheck, 0, len(rp.Props))
	for _, key := range sortedPropKeys(rp.Props) {
		fn, err := compileExpr(cc, en, rp.Props[key])
		if err != nil {
			return nil, err
		}
		checks = append(checks, propCheck{key: key, fn: fn})
	}
	types := rp.Types
	return func(ctx *evalCtx, r row, h graph.RelHandle) (bool, error) {
		if len(types) > 0 {
			found := false
			for _, t := range types {
				if t == h.Type {
					found = true
					break
				}
			}
			if !found {
				return false, nil
			}
		}
		for _, pc := range checks {
			want, err := pc.fn(ctx, r)
			if err != nil {
				return false, err
			}
			got, ok := ctx.tx.RelProp(h.ID, pc.key)
			if !ok {
				return false, nil
			}
			eq, known := value.Equal(got, want)
			if !known || !eq {
				return false, nil
			}
		}
		return true, nil
	}, nil
}

// compileProps compiles a property template to a map-building closure.
func compileProps(cc *compileCtx, en *env, props map[string]Expr) (propsFn, error) {
	if len(props) == 0 {
		return func(*evalCtx, row) (map[string]value.Value, error) { return nil, nil }, nil
	}
	keys := sortedPropKeys(props)
	fns := make([]exprFn, len(keys))
	for i, k := range keys {
		fn, err := compileExpr(cc, en, props[k])
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return func(ctx *evalCtx, r row) (map[string]value.Value, error) {
		out := make(map[string]value.Value, len(keys))
		for i, k := range keys {
			v, err := fns[i](ctx, r)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	}, nil
}

func sortedPropKeys(props map[string]Expr) []string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// settle fixes, given which slots are bound when the part runs, its
// pre-bound slots and its anchor: the first bound node position when there is
// one — expanding from one known node beats any scan — otherwise the
// cost-based access path. It then marks the part's own slots bound for the
// parts that run after it.
func (cp *compiledPattern) settle(cc *compileCtx, en *env, bound []bool) error {
	for _, s := range append(append([]int(nil), cp.nodeSlots...), cp.relSlots...) {
		if s >= 0 && bound[s] {
			cp.preBound = append(cp.preBound, s)
		}
	}
	if i := cp.boundAnchor(bound); i >= 0 {
		cp.access = accessPlan{anchor: i, kind: accessBound, est: 1}
	} else if err := planAccess(cc, en, cp); err != nil {
		return err
	}
	for _, s := range cp.slots() {
		bound[s] = true
	}
	return nil
}

// boundAnchor returns the first node position whose variable is bound, or -1.
func (cp *compiledPattern) boundAnchor(bound []bool) int {
	for i, s := range cp.nodeSlots {
		if s >= 0 && bound[s] {
			return i
		}
	}
	return -1
}

// planAccess chooses the anchor node position and its candidate source from
// the statistics snapshot: index-backed equality beats the smallest label
// scan beats a full scan. The snapshot records the statistics it read so
// Execute can cheaply detect drift and trigger recompilation.
func planAccess(cc *compileCtx, en *env, cp *compiledPattern) error {
	best := accessPlan{anchor: 0}
	bestCost := int(^uint(0) >> 1)
	for i, np := range cp.part.Nodes {
		plan, cost, err := accessFor(cc, en, np, i)
		if err != nil {
			return err
		}
		if cost < bestCost {
			best, bestCost = plan, cost
		}
	}
	cp.access = best
	return nil
}

func accessFor(cc *compileCtx, en *env, np *NodePattern, pos int) (accessPlan, int, error) {
	for _, key := range sortedPropKeys(np.Props) {
		for _, l := range np.Labels {
			if !cc.snap.hasIndex(cc.tx, l, key) {
				continue
			}
			valFn, err := compileExpr(cc, en, np.Props[key])
			if err != nil {
				return accessPlan{}, 0, err
			}
			return accessPlan{anchor: pos, kind: accessIndex, label: l, key: key, valFn: valFn, est: 1}, 1, nil
		}
	}
	if len(np.Labels) > 0 {
		bestLabel, bestCount := np.Labels[0], cc.snap.labelCount(cc.tx, np.Labels[0])
		for _, l := range np.Labels[1:] {
			if c := cc.snap.labelCount(cc.tx, l); c < bestCount {
				bestLabel, bestCount = l, c
			}
		}
		return accessPlan{anchor: pos, kind: accessLabel, label: bestLabel, est: bestCount}, 2 + bestCount, nil
	}
	total := cc.snap.totalNodes(cc.tx)
	return accessPlan{anchor: pos, kind: accessScan, est: total}, 2 + total*2, nil
}

// nullBound reports whether a variable bound before the part runs is NULL
// (an unmatched OPTIONAL MATCH, a NULL binding), in which case the part
// matches nothing, per Cypher.
func (cp *compiledPattern) nullBound(r row) bool {
	for _, s := range cp.preBound {
		if r[s].IsNull() {
			return true
		}
	}
	return false
}

// slots returns every variable slot the pattern binds (nodes, rels, path).
func (cp *compiledPattern) slots() []int {
	var out []int
	for _, s := range cp.nodeSlots {
		if s >= 0 {
			out = append(out, s)
		}
	}
	for _, s := range cp.relSlots {
		if s >= 0 {
			out = append(out, s)
		}
	}
	if cp.pathSlot >= 0 {
		out = append(out, cp.pathSlot)
	}
	return out
}

// matcher drives the backtracking search for one pattern part on one row.
type matcher struct {
	ctx      *evalCtx
	cp       *compiledPattern
	usedRels map[graph.RelID]bool
	emit     func(row) error
}

// matchPart enumerates all bindings of cp against base, invoking emit for
// each complete match. usedRels carries relationship-uniqueness state across
// pattern parts of the same MATCH clause; pass nil for a fresh scope.
func matchPart(ctx *evalCtx, base row, cp *compiledPattern,
	usedRels map[graph.RelID]bool, emit func(row) error) error {
	if usedRels == nil {
		usedRels = make(map[graph.RelID]bool)
	}
	if cp.nullBound(base) {
		return nil // a NULL-bound variable in a pattern matches nothing
	}
	m := &matcher{ctx: ctx, cp: cp, usedRels: usedRels, emit: emit}

	anchor := cp.access.anchor
	candidates, err := m.anchorCandidates(base)
	if err != nil {
		return err
	}
	for _, id := range candidates {
		r, ok, err := m.bindNode(base, anchor, id)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := m.expandRight(r, anchor, id, anchor, id); err != nil {
			return err
		}
	}
	return nil
}

// boundNode returns the concrete node bound at pattern position i in r, if any.
func (m *matcher) boundNode(r row, i int) (graph.NodeID, bool) {
	slot := m.cp.nodeSlots[i]
	if slot < 0 || r[slot].Kind() != value.KindNode {
		return 0, false
	}
	id, _ := r[slot].EntityID()
	return graph.NodeID(id), true
}

// anchorCandidates enumerates candidate nodes for the anchor position using
// the compiled access plan.
func (m *matcher) anchorCandidates(base row) ([]graph.NodeID, error) {
	ap := &m.cp.access
	switch ap.kind {
	case accessBound:
		id, ok := m.boundNode(base, ap.anchor)
		if !ok || !m.ctx.tx.NodeExists(id) {
			return nil, nil
		}
		return []graph.NodeID{id}, nil
	case accessIndex:
		want, err := ap.valFn(m.ctx, base)
		if err != nil {
			return nil, err
		}
		ids, _ := m.ctx.tx.NodesByProp(ap.label, ap.key, want)
		return ids, nil
	case accessLabel:
		return m.ctx.tx.NodesByLabel(ap.label), nil
	default:
		return m.ctx.tx.AllNodes(), nil
	}
}

// expandRight advances from pattern position i (node bound to id) towards
// the end of the chain, then hands over to expandLeft from the anchor. The
// anchor's concrete node is threaded through because anonymous patterns
// leave no slot to recover it from.
func (m *matcher) expandRight(r row, i int, id graph.NodeID, anchor int, anchorID graph.NodeID) error {
	if i == len(m.cp.part.Nodes)-1 {
		return m.expandLeft(r, anchor, anchorID)
	}
	return m.expandRel(r, i, id, i+1, false, func(nr row, nextID graph.NodeID) error {
		return m.expandRight(nr, i+1, nextID, anchor, anchorID)
	})
}

// expandLeft advances from pattern position i (node bound to id) towards
// the start of the chain.
func (m *matcher) expandLeft(r row, i int, id graph.NodeID) error {
	if i == 0 {
		return m.finish(r)
	}
	return m.expandRel(r, i-1, id, i-1, true, func(nr row, nextID graph.NodeID) error {
		return m.expandLeft(nr, i-1, nextID)
	})
}

// expandRel enumerates relationships of pattern position ri from node fromID
// towards pattern node position toIdx. reverse is true when walking
// right-to-left (the pattern's source node is on the other side).
func (m *matcher) expandRel(r row, ri int, fromID graph.NodeID,
	toIdx int, reverse bool, cont func(row, graph.NodeID) error) error {
	rp := m.cp.part.Rels[ri]
	relSlot := m.cp.relSlots[ri]
	check := m.cp.relChecks[ri]
	if rp.VarHops {
		return m.expandVarHops(r, rp, relSlot, check, fromID, toIdx, reverse, cont)
	}
	dir := traverseDir(rp.Dir, reverse)
	for _, h := range m.ctx.tx.RelsOf(fromID, dir, rp.Types) {
		if m.usedRels[h.ID] {
			continue
		}
		ok, err := check(m.ctx, r, h)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		otherID := h.Other(fromID)
		nr, ok, err := m.bindNode(r, toIdx, otherID)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if relSlot >= 0 {
			if bound := nr[relSlot]; !bound.IsNull() {
				bid, isEnt := bound.EntityID()
				if !isEnt || graph.RelID(bid) != h.ID {
					continue
				}
			}
			nr = append(row(nil), nr...)
			nr[relSlot] = value.Relationship(int64(h.ID))
		}
		m.usedRels[h.ID] = true
		err = cont(nr, otherID)
		delete(m.usedRels, h.ID)
		if err != nil {
			return err
		}
	}
	return nil
}

func traverseDir(d PatternDirection, reverse bool) graph.Direction {
	switch d {
	case DirRight:
		if reverse {
			return graph.Incoming
		}
		return graph.Outgoing
	case DirLeft:
		if reverse {
			return graph.Outgoing
		}
		return graph.Incoming
	default:
		return graph.Both
	}
}

// bindNode checks pattern constraints of node position idx against id and
// returns the row with the binding applied (a fresh copy when modified). A
// variable already bound — before the part ran, or at an earlier position of
// it — joins: it must hold exactly that node.
func (m *matcher) bindNode(r row, idx int, id graph.NodeID) (row, bool, error) {
	slot := m.cp.nodeSlots[idx]
	bound := slot >= 0 && !r[slot].IsNull()
	if bound {
		if b, ok := m.boundNode(r, idx); !ok || b != id {
			return r, false, nil
		}
	}
	ok, err := m.cp.nodeChecks[idx](m.ctx, r, id)
	if err != nil || !ok || bound || slot < 0 {
		return r, ok, err
	}
	nr := append(row(nil), r...)
	nr[slot] = value.Node(int64(id))
	return nr, true, nil
}

// expandVarHops performs depth-first variable-length expansion.
func (m *matcher) expandVarHops(r row, rp *RelPattern, relSlot int, check relCheckFn,
	fromID graph.NodeID, toIdx int, reverse bool, cont func(row, graph.NodeID) error) error {
	dir := traverseDir(rp.Dir, reverse)
	maxHops := rp.MaxHops
	var pathRels []value.Value

	var tryTarget func(r row, at graph.NodeID) error
	tryTarget = func(r row, at graph.NodeID) error {
		nr, ok, err := m.bindNode(r, toIdx, at)
		if err != nil || !ok {
			return err
		}
		if relSlot >= 0 {
			nr = append(row(nil), nr...)
			nr[relSlot] = value.ListOf(append([]value.Value(nil), pathRels...))
		}
		return cont(nr, at)
	}

	var dfs func(r row, at graph.NodeID, depth int) error
	dfs = func(r row, at graph.NodeID, depth int) error {
		if depth >= rp.MinHops {
			if err := tryTarget(r, at); err != nil {
				return err
			}
		}
		if maxHops >= 0 && depth >= maxHops {
			return nil
		}
		for _, h := range m.ctx.tx.RelsOf(at, dir, rp.Types) {
			if m.usedRels[h.ID] {
				continue
			}
			ok, err := check(m.ctx, r, h)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			m.usedRels[h.ID] = true
			pathRels = append(pathRels, value.Relationship(int64(h.ID)))
			err = dfs(r, h.Other(at), depth+1)
			pathRels = pathRels[:len(pathRels)-1]
			delete(m.usedRels, h.ID)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(r, fromID, 0)
}

// finish completes one match: bind the path variable if requested, then emit.
func (m *matcher) finish(r row) error {
	if m.cp.pathSlot >= 0 {
		var elems []value.Value
		for i := range m.cp.part.Nodes {
			if id, ok := m.boundNode(r, i); ok {
				elems = append(elems, value.Node(int64(id)))
			} else {
				elems = append(elems, value.Null)
			}
			if i < len(m.cp.part.Rels) {
				if slot := m.cp.relSlots[i]; slot >= 0 && slot < len(r) {
					elems = append(elems, r[slot])
				} else {
					elems = append(elems, value.Null)
				}
			}
		}
		nr := append(row(nil), r...)
		nr[m.cp.pathSlot] = value.ListOf(elems)
		return m.emit(nr)
	}
	return m.emit(r)
}
