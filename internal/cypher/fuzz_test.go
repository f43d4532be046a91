package cypher

// Native fuzzers for the lexer and parser, seeded from the golden corpus:
// every recorded case's query (FuzzParse) and every projected expression of
// those queries (FuzzParseExpr). Neither may panic; every error must carry a
// byte offset inside the input; and whatever parses must prepare and compile
// against an empty store without panicking. Run one with, e.g.:
//
//	go test ./internal/cypher -run '^$' -fuzz '^FuzzParse$' -fuzztime 60s

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
)

// goldenQueries returns the query text of every case recorded in
// testdata/golden.json.
func goldenQueries(f *testing.F) []string {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		f.Fatal(err)
	}
	var recorded []goldenResult
	if err := json.Unmarshal(data, &recorded); err != nil {
		f.Fatal(err)
	}
	byName := make(map[string]string)
	for _, c := range goldenCases() {
		byName[c.Name] = c.Query
	}
	var out []string
	for _, r := range recorded {
		if q, ok := byName[r.Name]; ok {
			out = append(out, q)
		}
	}
	if len(out) == 0 {
		f.Fatal("no golden queries to seed from")
	}
	return out
}

// checkErrorOffset fails unless err is a positioned error inside src.
func checkErrorOffset(t *testing.T, src string, err error) {
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("%q: error without a position: %v", src, err)
	}
	if pe.Pos < 0 || pe.Pos > len(src) {
		t.Fatalf("%q: error offset %d outside [0, %d]: %v", src, pe.Pos, len(src), err)
	}
}

func FuzzParse(f *testing.F) {
	for _, q := range goldenQueries(f) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			checkErrorOffset(t, src, err)
			return
		}
		if _, err := Prepare(src); err != nil {
			t.Fatalf("%q parses but does not prepare: %v", src, err)
		}
		tx := graph.NewStore().Begin(graph.ReadOnly)
		defer tx.Rollback()
		_ = Explain(tx, stmt)
	})
}

func FuzzParseExpr(f *testing.F) {
	for _, q := range goldenQueries(f) {
		stmt, err := Parse(q)
		if err != nil {
			f.Fatal(err)
		}
		branches := [][]Clause{stmt.Clauses}
		for _, b := range stmt.Unions {
			branches = append(branches, b.Clauses)
		}
		for _, clauses := range branches {
			if ret, ok := clauses[len(clauses)-1].(*ReturnClause); ok {
				for _, it := range ret.Items {
					f.Add(it.Text)
				}
			}
		}
	}
	f.Add("NEW.variant IS NULL AND (NEW)-[:HasEffect]->(:Effect {level: 'critical'})")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseExpr(src); err != nil {
			checkErrorOffset(t, src, err)
			return
		}
		ce, err := PrepareExpr(src)
		if err != nil {
			t.Fatalf("%q parses but does not prepare: %v", src, err)
		}
		tx := graph.NewStore().Begin(graph.ReadOnly)
		defer tx.Rollback()
		_, _ = ce.variant(tx, []string{"NEW"})
	})
}
