package cypher

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/value"
)

// Explain renders the physical plan Execute runs for a statement (with no
// bindings) against the store's current indexes and statistics: the clause
// pipeline, and for each MATCH the pattern execution order and each part's
// anchor (bound variable, index lookup, label scan, or full scan) with its
// estimated cardinality. It is a rendering of the statement's compiled
// variant, not a second planner.
func Explain(tx *graph.Tx, stmt *Statement) string {
	return stmt.Prepared().Explain(tx, nil)
}

// Explain renders the variant Execute runs for the binding shape bindNames
// on tx's store, as Explain does for a statement.
func (p *Plan) Explain(tx *graph.Tx, bindNames []string) string {
	names := slices.Clone(bindNames)
	slices.Sort(names)
	v, err := p.variant(tx, names)
	if err != nil {
		return "plan error: " + err.Error() + "\n"
	}
	return strings.Join(v.explain(), "\n") + "\n"
}

// explainResult is what executing an EXPLAIN-prefixed statement returns:
// one "plan" column with a line per row.
func (p *Plan) explainResult(v *planVariant) *Result {
	lines := append(v.explain(), fmt.Sprintf("plan variants compiled: %d", p.Variants()))
	rows := make([][]value.Value, len(lines))
	for i, l := range lines {
		rows[i] = []value.Value{value.Str(l)}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows}
}

func (v *planVariant) explain() []string {
	lines := v.main.explain()
	for i, ub := range v.unions {
		joint := "UNION"
		if ub.all {
			joint = "UNION ALL"
		}
		lines = append(lines, fmt.Sprintf("%s (branch %d)", joint, i+2))
		lines = append(lines, ub.cb.explain()...)
	}
	return lines
}

// explain numbers the branch's steps, each followed by its decisions, after
// the count-store shortcut when one applies.
func (cb *compiledBranch) explain() []string {
	var lines []string
	if fc := cb.fast; fc != nil {
		switch fc.kind {
		case fcTotal:
			lines = append(lines, "fast count: total nodes (count store)")
		case fcLabel:
			lines = append(lines, fmt.Sprintf("fast count: label :%s (count store)", fc.label))
		default:
			lines = append(lines, fmt.Sprintf("fast count: :%s.%s (property count store)", fc.label, fc.key))
		}
	}
	for i, st := range cb.steps {
		lines = append(lines, fmt.Sprintf("%d. %s", i+1, st.explain[0]))
		lines = append(lines, st.explain[1:]...)
	}
	return lines
}

func (cp *compiledPattern) describeAccess() string {
	ap := &cp.access
	switch ap.kind {
	case accessBound:
		return fmt.Sprintf("anchor: node %d via bound variable %s, est 1 row", ap.anchor, cp.part.Nodes[ap.anchor].Var)
	case accessIndex:
		return fmt.Sprintf("anchor: node %d via index (%s.%s), est 1 row", ap.anchor, ap.label, ap.key)
	case accessLabel:
		return fmt.Sprintf("anchor: node %d via label scan :%s, est %d rows", ap.anchor, ap.label, ap.est)
	default:
		return fmt.Sprintf("anchor: node %d via full scan, est %d rows", ap.anchor, ap.est)
	}
}

func describeProjection(items []*ReturnItem, star, distinct, ordered bool) string {
	var parts []string
	if distinct {
		parts = append(parts, "DISTINCT")
	}
	if star {
		parts = append(parts, "*")
	}
	parts = append(parts, fmt.Sprintf("%d item(s)", len(items)))
	if ordered {
		parts = append(parts, "ORDER BY")
	}
	return strings.Join(parts, " ")
}

func describePattern(p *PatternPart) string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		sb.WriteByte('(')
		sb.WriteString(n.Var)
		for _, l := range n.Labels {
			sb.WriteByte(':')
			sb.WriteString(l)
		}
		sb.WriteByte(')')
		if i < len(p.Rels) {
			r := p.Rels[i]
			arrow := "-"
			if r.Dir == DirLeft {
				arrow = "<-"
			}
			sb.WriteString(arrow)
			if len(r.Types) > 0 || r.VarHops {
				sb.WriteString("[")
				sb.WriteString(strings.Join(r.Types, "|"))
				if r.VarHops {
					sb.WriteString("*")
				}
				sb.WriteString("]")
			}
			if r.Dir == DirRight {
				sb.WriteString("->")
			} else {
				sb.WriteString("-")
			}
		}
	}
	return sb.String()
}
