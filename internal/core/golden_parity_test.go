package core

// Golden-corpus parity over the constructor table: every case of the shared
// Cypher corpus (internal/cypher/cyphertest) runs against each row — one
// shard and four, in memory and recovered-from-a-log layouts — and all rows
// must produce identical results. The four-hub rows spread the fixture over
// the shards with the LIVES_IN relationships as knowledge bridges between
// people and places, and reads without a hub go through the cross-shard
// MultiView, so bridge traversal, aggregated planner statistics and the
// per-store plan-variant cache are all exercised; writes go through
// ExecuteInHub on the owning hub in every row. (internal/cypher's TestGolden
// pins the same corpus to its recorded results on a bare store.) Entity
// identifiers differ between rows (identifiers carry the shard band in
// their high bits), so rows are compared after rank-normalizing
// Node()/Rel() renderings and final graph states are compared by an ID-free
// canonical form.

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
// fourth catches labels created by write cases.
func parityHubs() []HubShard {
	return []HubShard{
		{Hub: "people", Description: "persons", Labels: []string{"Person", "Admin"}},
		{Hub: "places", Description: "cities", Labels: []string{"City"}},
		{Hub: "things", Description: "widgets", Labels: []string{"Widget"}},
		{Hub: "misc", Description: "everything else"},
	}
}

// parityWriteHub routes each write case to the hub whose shard holds the
// entities it matches (write transactions are single-shard).
var parityWriteHub = map[string]string{
	"create-basic":         "misc",
	"create-from-match":    "people",
	"create-unwind":        "misc",
	"merge-match-existing": "people",
	"merge-create-new":     "people",
	"merge-rel":            "people",
	"set-forms":            "people",
	"set-replace-props":    "places",
	"set-null-target":      "misc",
	"remove-forms":         "people",
	"delete-rel":           "people",
	"detach-delete":        "things",
	"foreach":              "places",
	"foreach-nested":       "misc",
	"write-then-read":      "misc",
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

// parityKB builds the corpus fixture on one row of the constructor table:
// persons and their intra-hub relationships in people, cities and routes in
// places, widgets in things, and the four LIVES_IN relationships from
// people to places — knowledge bridges when the two hubs live in different
// shards, ordinary relationships when they share the one shard.
func parityKB(t testing.TB, v Variant) *KnowledgeBase {
	t.Helper()
	kb := v.OpenHubs(t, v.Dir(t), Config{Clock: periodic.NewManualClock(cyphertest.Now)}, parityHubs())
	// Cross-shard planning requires the index on every shard; per-shard
	// writes (MERGE on misc, for instance) need it locally anyway.
	for _, ix := range [][2]string{{"Person", "name"}, {"City", "code"}} {
		if err := kb.CreateIndex(ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	var persons, cities []graph.NodeID
	if _, err := kb.UpdateShard(shardOf(t, kb, "people"), func(tx *graph.Tx) error {
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
	if _, err := kb.UpdateShard(shardOf(t, kb, "places"), func(tx *graph.Tx) error {
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
	if _, err := kb.UpdateShard(shardOf(t, kb, "things"), func(tx *graph.Tx) error {
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
	people, _ := kb.ShardOf("people")
	places, _ := kb.ShardOf("places")
	var err error
	if people != places {
		_, err = kb.UpdateBridgeShards(people, places, func(bt *graph.BridgeTx) error {
			for i, city := range homes {
				if _, err := bt.CreateRel(persons[i], city, "LIVES_IN", nil); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		_, err = kb.UpdateShard(shardOf(t, kb, "people"), func(tx *graph.Tx) error {
			for i, city := range homes {
				if _, err := tx.CreateRel(persons[i], city, "LIVES_IN", nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

var (
	parityNodeTok  = regexp.MustCompile(`Node\((\d+)\)`)
	parityRelTok   = regexp.MustCompile(`Rel\((\d+)\)`)
	parityFloatTok = regexp.MustCompile(`-?\d+\.\d+(?:[eE][+-]?\d+)?`)
)

// parityNormalize rewrites entity IDs in a rendered row to their rank among
// the view's (sorted) live IDs, and rounds floats to 12 significant digits:
// sharded IDs carry the shard band, and shard-by-shard enumeration can
// accumulate float aggregates in a different order.
func parityNormalize(s string, v graph.ReadView) string {
	s = parityFloatTok.ReplaceAllStringFunc(s, func(tok string) string {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return tok
		}
		return strconv.FormatFloat(f, 'g', 12, 64)
	})
	nodes := v.AllNodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	nodeRank := make(map[string]int, len(nodes))
	for i, id := range nodes {
		nodeRank[fmt.Sprintf("%d", id)] = i
	}
	rels := v.AllRels()
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	relRank := make(map[string]int, len(rels))
	for i, id := range rels {
		relRank[fmt.Sprintf("%d", id)] = i
	}
	s = parityNodeTok.ReplaceAllStringFunc(s, func(tok string) string {
		raw := parityNodeTok.FindStringSubmatch(tok)[1]
		if r, ok := nodeRank[raw]; ok {
			return fmt.Sprintf("Node(#%d)", r)
		}
		return tok
	})
	return parityRelTok.ReplaceAllStringFunc(s, func(tok string) string {
		raw := parityRelTok.FindStringSubmatch(tok)[1]
		if r, ok := relRank[raw]; ok {
			return fmt.Sprintf("Rel(#%d)", r)
		}
		return tok
	})
}

func parityRows(res *cypher.Result, ordered bool, v graph.ReadView) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := "["
		for j, val := range r {
			if j > 0 {
				s += ", "
			}
			s += val.String()
		}
		rows[i] = parityNormalize(s+"]", v)
	}
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

// parityState renders the graph in an ID-free canonical form: each node is
// keyed by its sorted labels and properties, each relationship by the keys
// of its endpoints. The corpus keeps every node signature unique, which the
// helper asserts, so the form identifies the graph up to isomorphism. On a
// MultiView each bridge contributes exactly one line: it is outgoing from
// its start node only, regardless of which shard serves the lookup.
func parityState(t testing.TB, v graph.ReadView) []string {
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
		hubName, ok := parityWriteHub[c.Name]
		if !ok {
			t.Fatalf("%s: write case has no hub routing; add it to parityWriteHub", c.Name)
		}
		res, _, err = kb.ExecuteInHub(hubName, c.Query, c.Params)
	case c.Bind != nil:
		rv := kb.view(allShards)
		defer rv.Rollback()
		res, err = cypher.Run(rv, c.Query, &cypher.Options{
			Params: c.Params, Bindings: c.Bind, Now: kb.Clock().Now})
	default:
		res, err = kb.Query(c.Query, c.Params)
	}
	if err != nil {
		t.Fatalf("%s (%s): %v", c.Name, v.Name, err)
	}
	rv := kb.view(allShards)
	defer rv.Rollback()
	out.columns = res.Columns
	out.rows = parityRows(res, c.Ordered, rv)
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
