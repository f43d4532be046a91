package cypher

import "sort"

// StatementInfo summarizes the static read/write footprint of a statement:
// which labels and relationship types it matches, which it creates, which
// labels and properties it sets. Rule engines use it to classify rules
// (intra-hub vs inter-hub, single-state vs multi-state) and to build the
// triggering graph for termination analysis.
type StatementInfo struct {
	MatchedNodeLabels []string
	MatchedRelTypes   []string
	CreatedNodeLabels []string
	CreatedRelTypes   []string
	SetLabels         []string
	SetPropKeys       []string
	RemovedLabels     []string
	RemovedPropKeys   []string
	Deletes           bool
}

// Inspect computes the static footprint of a parsed statement, every UNION
// branch included.
func Inspect(stmt *Statement) *StatementInfo {
	info := &StatementInfo{}
	info.addClauses(stmt.Clauses)
	for _, b := range stmt.Unions {
		info.addClauses(b.Clauses)
	}
	info.dedupe()
	return info
}

func (info *StatementInfo) addClauses(clauses []Clause) {
	for _, cl := range clauses {
		switch c := cl.(type) {
		case *MatchClause:
			for _, p := range c.Patterns {
				info.addMatchedPattern(p)
			}
			info.addExpr(c.Where)
		case *WithClause:
			for _, it := range c.Items {
				info.addExpr(it.Expr)
			}
			info.addExpr(c.Where)
		case *ReturnClause:
			for _, it := range c.Items {
				info.addExpr(it.Expr)
			}
		case *UnwindClause:
			info.addExpr(c.List)
		case *CreateClause:
			for _, p := range c.Patterns {
				info.addCreatedPattern(p)
			}
		case *MergeClause:
			// MERGE both reads and may create its pattern.
			info.addMatchedPattern(c.Pattern)
			info.addCreatedPattern(c.Pattern)
			info.addSetItems(c.OnCreateSet)
			info.addSetItems(c.OnMatchSet)
		case *SetClause:
			info.addSetItems(c.Items)
		case *RemoveClause:
			for _, it := range c.Items {
				if it.Key != "" {
					info.RemovedPropKeys = append(info.RemovedPropKeys, it.Key)
				}
				info.RemovedLabels = append(info.RemovedLabels, it.Labels...)
			}
		case *DeleteClause:
			info.Deletes = true
		case *ForeachClause:
			info.addExpr(c.List)
			info.addClauses(c.Body)
		}
	}
}

// ResultColumns returns the column names a statement's final RETURN
// produces, or nil for write-only statements. RETURN * yields nil because
// the columns depend on runtime bindings.
func ResultColumns(stmt *Statement) []string {
	if len(stmt.Clauses) == 0 {
		return nil
	}
	ret, ok := stmt.Clauses[len(stmt.Clauses)-1].(*ReturnClause)
	if !ok || ret.Star {
		return nil
	}
	cols := make([]string, len(ret.Items))
	for i, it := range ret.Items {
		cols[i] = itemName(it)
	}
	return cols
}

// InspectExpr computes the footprint of a standalone expression (pattern
// predicates contribute matched labels).
func InspectExpr(e Expr) *StatementInfo {
	info := &StatementInfo{}
	info.addExpr(e)
	info.dedupe()
	return info
}

// addMatchedPattern records a matched pattern: the same footprint as the
// pattern used as a predicate.
func (info *StatementInfo) addMatchedPattern(p *PatternPart) {
	info.addExpr(&PatternExpr{Pattern: p})
}

func (info *StatementInfo) addCreatedPattern(p *PatternPart) {
	for _, n := range p.Nodes {
		info.CreatedNodeLabels = append(info.CreatedNodeLabels, n.Labels...)
	}
	for _, r := range p.Rels {
		info.CreatedRelTypes = append(info.CreatedRelTypes, r.Types...)
	}
}

func (info *StatementInfo) addSetItems(items []*SetItem) {
	for _, it := range items {
		switch it.Kind {
		case SetProp:
			info.SetPropKeys = append(info.SetPropKeys, it.Key)
		case SetLabels:
			info.SetLabels = append(info.SetLabels, it.Labels...)
		case SetAllProps, SetMergeProps:
			info.SetPropKeys = append(info.SetPropKeys, "*")
		}
		info.addExpr(it.Value)
	}
}

// addExpr records the labels and relationship types of every pattern
// predicate in e, at any depth.
func (info *StatementInfo) addExpr(e Expr) {
	walkExpr(e, func(x Expr, _ bool) bool {
		if pe, ok := x.(*PatternExpr); ok {
			for _, n := range pe.Pattern.Nodes {
				info.MatchedNodeLabels = append(info.MatchedNodeLabels, n.Labels...)
			}
			for _, r := range pe.Pattern.Rels {
				info.MatchedRelTypes = append(info.MatchedRelTypes, r.Types...)
			}
		}
		return true
	})
}

func (info *StatementInfo) dedupe() {
	info.MatchedNodeLabels = uniqSorted(info.MatchedNodeLabels)
	info.MatchedRelTypes = uniqSorted(info.MatchedRelTypes)
	info.CreatedNodeLabels = uniqSorted(info.CreatedNodeLabels)
	info.CreatedRelTypes = uniqSorted(info.CreatedRelTypes)
	info.SetLabels = uniqSorted(info.SetLabels)
	info.SetPropKeys = uniqSorted(info.SetPropKeys)
	info.RemovedLabels = uniqSorted(info.RemovedLabels)
	info.RemovedPropKeys = uniqSorted(info.RemovedPropKeys)
}

func uniqSorted(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
