package cypher

// TestMatchGeneratedAgainstReference checks the planner's one place of
// decision — pattern order, what is bound when each part runs, and each
// part's anchor — against a brute-force matcher that has no planner at all.
// Seeded random small graphs, with self-loops and parallel relationships,
// are queried with random 1–3-part MATCH patterns that share variables and
// carry labels, relationship types, directions and property predicates.
// Every pattern runs with no index and
// with every (label, key) indexed, with its parts in source and in permuted
// order, and without and with one node variable pre-bound through
// Options.Bindings (to a node, or to NULL). Each run's row multiset must
// equal the reference's, and its EXPLAIN must anchor every part that shares
// a node already bound when it runs at that node.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

var genLabels = []string{"A", "B", "C"}

type genGraph struct {
	labels [][]string
	k      []int // property k per node; -1 when absent
	rels   []struct {
		from, to int
		typ      string
	}
}

func newGenGraph(rng *rand.Rand) *genGraph {
	g := &genGraph{}
	n := 5 + rng.Intn(5)
	for i := 0; i < n; i++ {
		var ls []string
		for _, l := range genLabels {
			if rng.Intn(5) < 2 {
				ls = append(ls, l)
			}
		}
		k := -1
		if rng.Intn(10) < 7 {
			k = rng.Intn(3)
		}
		g.labels = append(g.labels, ls)
		g.k = append(g.k, k)
	}
	for i := n + rng.Intn(n); i > 0; i-- {
		from, to := rng.Intn(n), rng.Intn(n) // self-loops and parallel relationships included
		g.rels = append(g.rels, struct {
			from, to int
			typ      string
		}{from, to, []string{"R", "S"}[rng.Intn(2)]})
	}
	return g
}

// store builds the graph, with every (label, k) indexed when indexed is set,
// and returns it with the node and relationship values in generation order.
func (g *genGraph) store(t *testing.T, indexed bool) (*graph.Store, []value.Value, []value.Value) {
	s := graph.NewStore()
	if indexed {
		for _, l := range genLabels {
			if err := s.CreateIndex(l, "k"); err != nil {
				t.Fatal(err)
			}
		}
	}
	var nodes, rels []value.Value
	err := s.Update(func(tx *graph.Tx) error {
		ids := make([]graph.NodeID, len(g.labels))
		for i, ls := range g.labels {
			props := map[string]value.Value{}
			if g.k[i] >= 0 {
				props["k"] = value.Int(int64(g.k[i]))
			}
			id, err := tx.CreateNode(ls, props)
			if err != nil {
				return err
			}
			ids[i] = id
			nodes = append(nodes, value.Node(int64(id)))
		}
		for _, r := range g.rels {
			id, err := tx.CreateRel(ids[r.from], ids[r.to], r.typ, nil)
			if err != nil {
				return err
			}
			rels = append(rels, value.Relationship(int64(id)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, nodes, rels
}

type genNode struct {
	v, label string
	k        int // -1: no predicate
}

type genRel struct {
	v, typ string // typ "": any type
	dir    PatternDirection
}

type genPart struct {
	nodes []genNode
	rels  []genRel
}

func newGenPattern(rng *rand.Rand) []genPart {
	parts := make([]genPart, 1+rng.Intn(3))
	nrel := 0
	for i := range parts {
		p := &parts[i]
		for j := 1 + rng.Intn(3); j > 0; j-- {
			n := genNode{k: -1}
			if rng.Intn(10) < 7 {
				n.v = []string{"a", "b", "c", "d"}[rng.Intn(4)]
			}
			if rng.Intn(2) == 0 {
				n.label = genLabels[rng.Intn(3)]
			}
			if rng.Intn(10) < 3 {
				n.k = rng.Intn(3)
			}
			if len(p.nodes) > 0 {
				r := genRel{dir: PatternDirection(rng.Intn(3))}
				if rng.Intn(10) < 3 {
					r.v = fmt.Sprintf("r%d", nrel)
					nrel++
				}
				if rng.Intn(10) < 7 {
					r.typ = []string{"R", "S"}[rng.Intn(2)]
				}
				p.rels = append(p.rels, r)
			}
			p.nodes = append(p.nodes, n)
		}
	}
	return parts
}

func (p genPart) String() string {
	var b strings.Builder
	for i, n := range p.nodes {
		b.WriteString("(" + n.v)
		if n.label != "" {
			b.WriteString(":" + n.label)
		}
		if n.k >= 0 {
			fmt.Fprintf(&b, " {k: %d}", n.k)
		}
		b.WriteString(")")
		if i < len(p.rels) {
			r := p.rels[i]
			inner := r.v
			if r.typ != "" {
				inner += ":" + r.typ
			}
			switch r.dir {
			case DirRight:
				b.WriteString("-[" + inner + "]->")
			case DirLeft:
				b.WriteString("<-[" + inner + "]-")
			default:
				b.WriteString("-[" + inner + "]-")
			}
		}
	}
	return b.String()
}

// vars returns the pattern's node and relationship variables, sorted.
func genVars(parts []genPart) (nodeVars, all []string) {
	seen := map[string]bool{}
	for _, p := range parts {
		for _, n := range p.nodes {
			if n.v != "" && !seen[n.v] {
				seen[n.v] = true
				nodeVars = append(nodeVars, n.v)
			}
		}
		for _, r := range p.rels {
			if r.v != "" {
				seen[r.v] = true
			}
		}
	}
	for v := range seen {
		all = append(all, v)
	}
	sort.Strings(nodeVars)
	sort.Strings(all)
	return nodeVars, all
}

// reference enumerates every assignment of the parts' positions to graph
// elements, in source order and with no planning, under openCypher's
// relationship isomorphism: node variables join by equality, labels and k
// predicates hold, and no relationship is used twice in the MATCH. A
// self-loop is both outgoing and incoming at its node, and an undirected
// pattern relationship traverses it once, not once per direction. bound
// pre-assigns one node variable (-1: bound to NULL, which
// matches nothing). It returns the rendered rows of RETURN cols.
func (g *genGraph) reference(parts []genPart, cols []string, bound map[string]int, nodes, rels []value.Value) []string {
	nodeAt := map[string]int{}
	relAt := map[string]int{}
	rows := []string{}
	for v, i := range bound {
		if i < 0 {
			return rows
		}
		nodeAt[v] = i
	}
	used := map[int]bool{}
	var part func(pi int)
	var place func(pi, ni, at int)
	part = func(pi int) {
		if pi == len(parts) {
			if len(cols) == 0 {
				rows = append(rows, "1") // RETURN 1 AS one
				return
			}
			row := make([]string, len(cols))
			for i, c := range cols {
				if n, ok := nodeAt[c]; ok {
					row[i] = nodes[n].String()
				} else {
					row[i] = rels[relAt[c]].String()
				}
			}
			rows = append(rows, strings.Join(row, "|"))
			return
		}
		for at := range g.labels {
			place(pi, 0, at)
		}
	}
	place = func(pi, ni, at int) {
		n := parts[pi].nodes[ni]
		if n.label != "" && !contains(g.labels[at], n.label) || n.k >= 0 && g.k[at] != n.k {
			return
		}
		if n.v != "" {
			if cur, ok := nodeAt[n.v]; ok && cur != at {
				return
			} else if !ok {
				nodeAt[n.v] = at
				defer delete(nodeAt, n.v)
			}
		}
		if ni == len(parts[pi].nodes)-1 {
			part(pi + 1)
			return
		}
		rp := parts[pi].rels[ni]
		for j, r := range g.rels {
			if used[j] || rp.typ != "" && r.typ != rp.typ {
				continue
			}
			next := -1
			switch { // one case at most: a self-loop is traversed once
			case rp.dir != DirLeft && r.from == at:
				next = r.to
			case rp.dir != DirRight && r.to == at:
				next = r.from
			}
			if next < 0 {
				continue
			}
			used[j] = true
			if rp.v != "" {
				relAt[rp.v] = j
			}
			place(pi, ni+1, next)
			used[j] = false
		}
	}
	part(0)
	sort.Strings(rows)
	return rows
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// expectedBoundAnchors counts the parts that must anchor at a bound node:
// among parts connected by shared node variables, every part but the first
// to run — and all of them when one of their variables is pre-bound.
func expectedBoundAnchors(parts []genPart, pre string) int {
	comp := make([]int, len(parts))
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if comp[i] != i {
			comp[i] = find(comp[i])
		}
		return comp[i]
	}
	owner := map[string]int{}
	for i, p := range parts {
		for _, n := range p.nodes {
			if n.v == "" {
				continue
			}
			if o, ok := owner[n.v]; ok {
				comp[find(i)] = find(o)
			} else {
				owner[n.v] = i
			}
		}
	}
	size := map[int]int{}
	for i := range parts {
		size[find(i)]++
	}
	want := 0
	for root, n := range size {
		want += n - 1
		if o, ok := owner[pre]; ok && find(o) == root {
			want++
		}
	}
	return want
}

func TestMatchGeneratedAgainstReference(t *testing.T) {
	const graphs, patterns = 20, 25
	for seed := int64(1); seed <= graphs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := newGenGraph(rng)
		plain, nodes, rels := g.store(t, false)
		indexed, _, _ := g.store(t, true)
		for pi := 0; pi < patterns; pi++ {
			parts := newGenPattern(rng)
			nodeVars, cols := genVars(parts)
			ret := "1 AS one"
			if len(cols) > 0 {
				ret = strings.Join(cols, ", ")
			}
			text := func(order []int) string {
				ps := make([]string, len(order))
				for i, j := range order {
					ps[i] = parts[j].String()
				}
				return "MATCH " + strings.Join(ps, ", ") + " RETURN " + ret
			}
			source := make([]int, len(parts))
			for i := range source {
				source[i] = i
			}
			queries := []string{text(source), text(rng.Perm(len(parts)))}

			type binding struct {
				v    string
				node int // -1: NULL
			}
			bindings := []binding{{}}
			if len(nodeVars) > 0 {
				b := binding{v: nodeVars[rng.Intn(len(nodeVars))], node: rng.Intn(len(nodes))}
				if rng.Intn(5) == 0 {
					b.node = -1
				}
				bindings = append(bindings, b)
			}
			for _, b := range bindings {
				opts := &Options{}
				var bound map[string]int
				if b.v != "" {
					bound = map[string]int{b.v: b.node}
					val := value.Null
					if b.node >= 0 {
						val = nodes[b.node]
					}
					opts.Bindings = map[string]value.Value{b.v: val}
				}
				want := g.reference(parts, cols, bound, nodes, rels)
				for _, s := range []*graph.Store{plain, indexed} {
					for _, query := range queries {
						where := fmt.Sprintf("seed %d, indexed %v, bind %v: %s", seed, s == indexed, bound, query)
						got := runRendered(t, s, query, opts)
						if sort.Strings(got); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s\n got %v\nwant %v", where, got, want)
						}
						if b.v != "" && b.node < 0 {
							continue // a NULL binding anchors nothing
						}
						plan := strings.Join(runRendered(t, s, "EXPLAIN "+query, opts), "\n")
						anchored := strings.Count(plan, "via bound variable")
						if want := expectedBoundAnchors(parts, b.v); anchored != want {
							t.Fatalf("%s: %d parts anchored at a bound node, want %d\n%s", where, anchored, want, plan)
						}
					}
				}
			}
		}
	}
}

// runRendered runs a query read-only and renders each row as its values
// joined by "|".
func runRendered(t *testing.T, s *graph.Store, query string, opts *Options) []string {
	t.Helper()
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	res, err := Run(tx, query, opts)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}
