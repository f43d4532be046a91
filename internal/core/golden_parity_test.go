package core

// Golden-corpus parity over the constructor table: every case of the shared
// Cypher corpus (internal/cypher/cyphertest) runs against each row — in
// memory and recovered-from-a-log layouts — and all rows must produce
// identical results. Every row declares the same four-hub layout on its one
// store, with the LIVES_IN relationships as knowledge bridges between
// people and places: hubs own nodes, so declaring them changes ownership
// bookkeeping and nothing a query sees. (internal/cypher's TestGolden pins
// the same corpus to its recorded results on a bare store.) Every row
// allocates the same identifiers, so rows are compared as rendered, Node()
// and Rel() identifiers included, with floats rounded; final graph states
// are compared by an ID-free canonical form.

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cypher"
	"repro/internal/cypher/cyphertest"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/value"
)

// parityHubs is the hub layout: three hubs own the fixture labels, the
// fourth owns none. Ownership is declared but not enforced: the shared
// corpus's write cases create owned-label nodes without hub properties.
func parityHubs() []HubDecl {
	return []HubDecl{
		{Hub: "people", Description: "persons", Labels: []string{"Person", "Admin"}},
		{Hub: "places", Description: "cities", Labels: []string{"City"}},
		{Hub: "things", Description: "widgets", Labels: []string{"Widget"}},
		{Hub: "misc", Description: "everything else"},
	}
}

// parityFixtureProps builds the corpus fixture's node property maps.
func parityPersonProps() []map[string]value.Value {
	return []map[string]value.Value{
		{"name": value.Str("Ada"), "age": value.Int(36), "score": value.Float(9.5)},
		{"name": value.Str("Bob"), "age": value.Int(41)},
		{"name": value.Str("Cyd"), "age": value.Int(29), "nick": value.Str("cy")},
		{"name": value.Str("Dee"), "age": value.Int(29)},
	}
}

func parityCityProps() []map[string]value.Value {
	return []map[string]value.Value{
		{"code": value.Str("LON"), "pop": value.Int(9000000)},
		{"code": value.Str("PAR"), "pop": value.Int(2100000)},
		{"code": value.Str("REY"), "pop": value.Int(130000)},
	}
}

// parityKB builds the corpus fixture on one row of the constructor table,
// one transaction per hub: persons and their intra-hub relationships in
// people, cities and routes in places, widgets in things, and then the four
// LIVES_IN knowledge bridges from people to places.
func parityKB(t testing.TB, v Variant) *KnowledgeBase {
	t.Helper()
	kb := v.OpenHubs(t, v.Dir(t), Config{Clock: periodic.NewManualClock(cyphertest.Now)}, parityHubs())
	for _, ix := range [][2]string{{"Person", "name"}, {"City", "code"}} {
		if err := kb.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	var persons, cities []graph.NodeID
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		for i, props := range parityPersonProps() {
			labels := []string{"Person"}
			if i == 2 { // Cyd is also an Admin
				labels = []string{"Person", "Admin"}
			}
			id, err := tx.CreateNode(labels, props)
			if err != nil {
				return err
			}
			persons = append(persons, id)
		}
		ada, bob, cyd, dee := persons[0], persons[1], persons[2], persons[3]
		if _, err := tx.CreateRel(ada, bob, "KNOWS", map[string]value.Value{"since": value.Int(2019)}); err != nil {
			return err
		}
		if _, err := tx.CreateRel(bob, cyd, "KNOWS", map[string]value.Value{"since": value.Int(2021)}); err != nil {
			return err
		}
		if _, err := tx.CreateRel(cyd, dee, "KNOWS", nil); err != nil {
			return err
		}
		_, err := tx.CreateRel(ada, cyd, "WORKS_WITH", map[string]value.Value{"hours": value.Int(12)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		for _, props := range parityCityProps() {
			id, err := tx.CreateNode([]string{"City"}, props)
			if err != nil {
				return err
			}
			cities = append(cities, id)
		}
		if _, err := tx.CreateRel(cities[0], cities[1], "ROUTE", map[string]value.Value{"km": value.Int(344)}); err != nil {
			return err
		}
		_, err := tx.CreateRel(cities[1], cities[2], "ROUTE", map[string]value.Value{"km": value.Int(2237)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.CreateNode([]string{"Widget"}, map[string]value.Value{"n": value.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	homes := []graph.NodeID{cities[0], cities[1], cities[1], cities[2]}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		for i, city := range homes {
			if _, err := tx.CreateRel(persons[i], city, "LIVES_IN", nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kb
}

// parityFloatTok matches a rendered float.
var parityFloatTok = regexp.MustCompile(`-?\d+\.\d+(?:[eE][+-]?\d+)?`)

// parityNormalize rounds the floats of a rendered row to 12 significant
// digits, so rows compare independently of the order float aggregates
// accumulate in.
func parityNormalize(s string) string {
	return parityFloatTok.ReplaceAllStringFunc(s, func(tok string) string {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return tok
		}
		return strconv.FormatFloat(f, 'g', 12, 64)
	})
}

func parityRows(res *cypher.Result, ordered bool) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := "["
		for j, val := range r {
			if j > 0 {
				s += ", "
			}
			s += val.String()
		}
		rows[i] = parityNormalize(s + "]")
	}
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

// parityState renders the graph in an ID-free canonical form: each node is
// keyed by its sorted labels and properties, each relationship by the keys
// of its endpoints. The corpus keeps every node signature unique, which the
// helper asserts, so the form identifies the graph up to isomorphism. Each
// relationship contributes exactly one line, outgoing from its start node.
func parityState(t testing.TB, v *graph.Tx) []string {
	t.Helper()
	ids := v.AllNodes()
	key := make(map[graph.NodeID]string, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		labels, _ := v.NodeLabels(id)
		sort.Strings(labels)
		n, _ := v.Node(id)
		k := fmt.Sprintf("%v %s", labels, value.Map(n.Props).String())
		if seen[k] {
			t.Fatalf("ambiguous node signature %s: canonical state needs unique nodes", k)
		}
		seen[k] = true
		key[id] = k
	}
	var out []string
	for _, id := range ids {
		out = append(out, "n "+key[id])
		for _, h := range v.RelsOf(id, graph.Outgoing, nil) {
			r, _ := v.Rel(h.ID)
			out = append(out, fmt.Sprintf("r %s -[%s %s]-> %s",
				key[id], h.Type, value.Map(r.Props).String(), key[h.Other(id)]))
		}
	}
	sort.Strings(out)
	return out
}

type parityOutcome struct {
	columns []string
	rows    []string
	stats   string
	state   []string
}

// runParity runs one corpus case against a fresh fixture on row v.
func runParity(t *testing.T, v Variant, c cyphertest.Case) parityOutcome {
	t.Helper()
	kb := parityKB(t, v)
	var out parityOutcome
	var res *cypher.Result
	var err error
	switch {
	case c.Write:
		res, err = kb.Execute(c.Query, c.Params)
	case c.Bind != nil:
		rv := kb.Store().Begin(graph.ReadOnly)
		defer rv.Rollback()
		res, err = cypher.Run(rv, c.Query, &cypher.Options{
			Params: c.Params, Bindings: c.Bind, Now: kb.Clock().Now})
	default:
		res, err = kb.Query(c.Query, c.Params)
	}
	if err != nil {
		t.Fatalf("%s (%s): %v", c.Name, v.Name, err)
	}
	rv := kb.Store().Begin(graph.ReadOnly)
	defer rv.Rollback()
	out.columns = res.Columns
	out.rows = parityRows(res, c.Ordered)
	if c.Write {
		out.stats = fmt.Sprintf("%+v", res.Stats)
		out.state = parityState(t, rv)
	}
	return out
}

// TestGoldenParity runs the full golden corpus on every row of the
// constructor table and requires identical columns, rows, update counters
// and final state across rows; the first row is the reference.
func TestGoldenParity(t *testing.T) {
	for _, c := range cyphertest.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			want := runParity(t, Variants[0], c)
			for _, v := range Variants[1:] {
				got := runParity(t, v, c)
				if fmt.Sprintf("%v", got.columns) != fmt.Sprintf("%v", want.columns) {
					t.Errorf("columns: %s %v, %s %v", v.Name, got.columns, Variants[0].Name, want.columns)
				}
				if fmt.Sprintf("%v", got.rows) != fmt.Sprintf("%v", want.rows) {
					t.Errorf("rows:\n%s %v\n%s %v", v.Name, got.rows, Variants[0].Name, want.rows)
				}
				if got.stats != want.stats {
					t.Errorf("stats: %s %s, %s %s", v.Name, got.stats, Variants[0].Name, want.stats)
				}
				if fmt.Sprintf("%v", got.state) != fmt.Sprintf("%v", want.state) {
					t.Errorf("state:\n%s %v\n%s %v", v.Name, got.state, Variants[0].Name, want.state)
				}
			}
		})
	}
}
