package cypher

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/cypher/cyphertest"
	"repro/internal/graph"
	"repro/internal/value"
)

// The golden corpus pins the observable behavior of the query engine: every
// case was executed once against the legacy tree-walking interpreter (before
// the compiled pipeline replaced it) and its results were recorded in
// testdata/golden.json. TestGolden re-runs the corpus through the current
// engine and requires identical results, so the compiled path is equivalence-
// tested against the retired interpreter, not merely against itself.
//
// Regenerate (only when intentionally changing semantics) with:
//
//	RKM_GOLDEN_REGEN=1 go test ./internal/cypher -run TestGolden
const goldenPath = "testdata/golden.json"

var goldenNow = cyphertest.Now

// goldenFixture builds the deterministic graph every read-only case runs
// against (write cases rebuild it per case). IDs are assigned in creation
// order, so renderings are stable across runs and engines.
func goldenFixture(t testing.TB) *graph.Store {
	t.Helper()
	s := graph.NewStore()
	if err := s.CreateIndex("Person", "name"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("City", "code"); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func(tx *graph.Tx) error {
		mk := func(labels []string, props map[string]value.Value) graph.NodeID {
			id, err := tx.CreateNode(labels, props)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		rel := func(a, b graph.NodeID, typ string, props map[string]value.Value) {
			if _, err := tx.CreateRel(a, b, typ, props); err != nil {
				t.Fatal(err)
			}
		}
		ada := mk([]string{"Person"}, map[string]value.Value{
			"name": value.Str("Ada"), "age": value.Int(36), "score": value.Float(9.5)})
		bob := mk([]string{"Person"}, map[string]value.Value{
			"name": value.Str("Bob"), "age": value.Int(41)})
		cyd := mk([]string{"Person", "Admin"}, map[string]value.Value{
			"name": value.Str("Cyd"), "age": value.Int(29), "nick": value.Str("cy")})
		dee := mk([]string{"Person"}, map[string]value.Value{
			"name": value.Str("Dee"), "age": value.Int(29)})
		lon := mk([]string{"City"}, map[string]value.Value{
			"code": value.Str("LON"), "pop": value.Int(9000000)})
		par := mk([]string{"City"}, map[string]value.Value{
			"code": value.Str("PAR"), "pop": value.Int(2100000)})
		rey := mk([]string{"City"}, map[string]value.Value{
			"code": value.Str("REY"), "pop": value.Int(130000)})
		rel(ada, bob, "KNOWS", map[string]value.Value{"since": value.Int(2019)})
		rel(bob, cyd, "KNOWS", map[string]value.Value{"since": value.Int(2021)})
		rel(cyd, dee, "KNOWS", nil)
		rel(ada, cyd, "WORKS_WITH", map[string]value.Value{"hours": value.Int(12)})
		rel(ada, lon, "LIVES_IN", nil)
		rel(bob, par, "LIVES_IN", nil)
		rel(cyd, par, "LIVES_IN", nil)
		rel(dee, rey, "LIVES_IN", nil)
		rel(lon, par, "ROUTE", map[string]value.Value{"km": value.Int(344)})
		rel(par, rey, "ROUTE", map[string]value.Value{"km": value.Int(2237)})
		for i := 0; i < 5; i++ {
			mk([]string{"Widget"}, map[string]value.Value{"n": value.Int(int64(i))})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenCase aliases the shared corpus entry; the table itself lives in the
// cyphertest package so internal/core's golden parity test can run the same
// corpus against knowledge bases with and without declared hubs.
type goldenCase = cyphertest.Case

func goldenCases() []goldenCase { return cyphertest.Cases() }

type goldenResult struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    []string `json:"rows"`
	Stats   string   `json:"stats,omitempty"`
	State   []string `json:"state,omitempty"`
}

// floatToken matches rendered floating-point literals inside row dumps.
var floatToken = regexp.MustCompile(`-?\d+\.\d+(?:[eE][+-]?\d+)?`)

// normalizeFloats rounds every float literal in a rendered row string to 12
// significant digits. Aggregates like stdev() accumulate in enumeration
// order, and the cost-based planner may enumerate nodes in a different order
// than the legacy interpreter the corpus was recorded from; the results can
// differ in the last ulp without being wrong.
func normalizeFloats(s string) string {
	return floatToken.ReplaceAllStringFunc(s, func(tok string) string {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return tok
		}
		return strconv.FormatFloat(f, 'g', 12, 64)
	})
}

func renderRows(res *Result, ordered bool) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := "["
		for j, v := range r {
			if j > 0 {
				s += ", "
			}
			s += v.String()
		}
		rows[i] = s + "]"
	}
	if !ordered {
		sort.Strings(rows)
	}
	return rows
}

// dumpState renders every node and relationship, sorted by ID, for write-case
// equivalence checking.
func dumpState(tx *graph.Tx) []string {
	var out []string
	ids := tx.AllNodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		labels, _ := tx.NodeLabels(id)
		sort.Strings(labels)
		n, _ := tx.Node(id)
		props := value.Map(n.Props)
		line := fmt.Sprintf("n%d %v %s", id, labels, props.String())
		out = append(out, line)
		type relLine struct {
			id   graph.RelID
			text string
		}
		var rels []relLine
		for _, h := range tx.RelsOf(id, graph.Outgoing, nil) {
			r, _ := tx.Rel(h.ID)
			props := value.Map(r.Props)
			rels = append(rels, relLine{h.ID, fmt.Sprintf("r%d n%d-[%s %s]->n%d",
				h.ID, id, h.Type, props.String(), h.Other(id))})
		}
		sort.Slice(rels, func(i, j int) bool { return rels[i].id < rels[j].id })
		for _, r := range rels {
			out = append(out, r.text)
		}
	}
	return out
}

func runGoldenCase(t *testing.T, gc goldenCase) goldenResult {
	t.Helper()
	s := goldenFixture(t)
	opts := &Options{Params: gc.Params, Bindings: gc.Bind, Now: func() time.Time { return goldenNow }}
	out := goldenResult{Name: gc.Name}
	if gc.Write {
		err := s.Update(func(tx *graph.Tx) error {
			res, err := Run(tx, gc.Query, opts)
			if err != nil {
				return err
			}
			out.Columns = res.Columns
			out.Rows = renderRows(res, gc.Ordered)
			out.Stats = fmt.Sprintf("%+v", res.Stats)
			out.State = dumpState(tx)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", gc.Name, err)
		}
		return out
	}
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	res, err := Run(tx, gc.Query, opts)
	if err != nil {
		t.Fatalf("%s: %v", gc.Name, err)
	}
	out.Columns = res.Columns
	out.Rows = renderRows(res, gc.Ordered)
	return out
}

// TestGolden checks the current engine against the recorded behavior of the
// legacy tree-walking interpreter. Set RKM_GOLDEN_REGEN=1 to re-record.
func TestGolden(t *testing.T) {
	cases := goldenCases()
	if os.Getenv("RKM_GOLDEN_REGEN") != "" {
		var all []goldenResult
		for _, gc := range cases {
			all = append(all, runGoldenCase(t, gc))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: recorded %d cases", len(all))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (generate with RKM_GOLDEN_REGEN=1): %v", err)
	}
	var want []goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenResult, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.Name, func(t *testing.T) {
			w, ok := byName[gc.Name]
			if !ok {
				t.Fatalf("case %s not in golden corpus; regenerate", gc.Name)
			}
			got := runGoldenCase(t, gc)
			if fmt.Sprintf("%v", got.Columns) != fmt.Sprintf("%v", w.Columns) {
				t.Errorf("columns: got %v want %v", got.Columns, w.Columns)
			}
			if normalizeFloats(fmt.Sprintf("%v", got.Rows)) != normalizeFloats(fmt.Sprintf("%v", w.Rows)) {
				t.Errorf("rows:\n got %v\nwant %v", got.Rows, w.Rows)
			}
			if got.Stats != w.Stats {
				t.Errorf("stats: got %s want %s", got.Stats, w.Stats)
			}
			if fmt.Sprintf("%v", got.State) != fmt.Sprintf("%v", w.State) {
				t.Errorf("state:\n got %v\nwant %v", got.State, w.State)
			}
		})
	}
}
