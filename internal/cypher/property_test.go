package cypher

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// randomGraph builds a reproducible random graph with n nodes.
func randomGraph(t *testing.T, seed int64, n int) *graph.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := graph.NewStore()
	err := s.Update(func(tx *graph.Tx) error {
		ids := make([]graph.NodeID, 0, n)
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("L%d", rng.Intn(3))
			id, err := tx.CreateNode([]string{label}, map[string]value.Value{
				"v": value.Int(int64(rng.Intn(10))),
			})
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		for i := 0; i < n*2; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			typ := fmt.Sprintf("T%d", rng.Intn(2))
			if _, err := tx.CreateRel(a, b, typ, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOrderByProducesSortedOutput checks that ORDER BY output is actually
// sorted under value.Compare for random graphs.
func TestOrderByProducesSortedOutput(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomGraph(t, seed, 40)
		res := q(t, s, "MATCH (n) RETURN n.v AS v ORDER BY v", nil)
		for i := 1; i < len(res.Rows); i++ {
			if value.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
				t.Fatalf("seed %d: rows out of order at %d: %s > %s",
					seed, i, res.Rows[i-1][0], res.Rows[i][0])
			}
		}
		// DESC is the exact reverse ordering.
		desc := q(t, s, "MATCH (n) RETURN n.v AS v ORDER BY v DESC", nil)
		for i := 1; i < len(desc.Rows); i++ {
			if value.Compare(desc.Rows[i-1][0], desc.Rows[i][0]) < 0 {
				t.Fatalf("seed %d: DESC rows out of order at %d", seed, i)
			}
		}
	}
}

// TestDistinctYieldsUniqueRows checks DISTINCT row uniqueness.
func TestDistinctYieldsUniqueRows(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomGraph(t, seed, 40)
		res := q(t, s, "MATCH (n)-->(m) RETURN DISTINCT n.v AS a, m.v AS b", nil)
		same := func(a, b value.Value) bool {
			eq, known := value.Equal(a, b)
			return known && eq || a.IsNull() && b.IsNull()
		}
		for i, r := range res.Rows {
			for _, o := range res.Rows[:i] {
				if same(r[0], o[0]) && same(r[1], o[1]) {
					t.Fatalf("seed %d: duplicate row %v", seed, r)
				}
			}
		}
	}
}

// TestUndirectedMatchesSymmetric checks that undirected patterns match the
// same pairs regardless of which side is the anchor.
func TestUndirectedMatchesSymmetric(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomGraph(t, seed, 30)
		a := q(t, s, "MATCH (x:L0)-[r]-(y:L1) RETURN count(r)", nil)
		b := q(t, s, "MATCH (y:L1)-[r]-(x:L0) RETURN count(r)", nil)
		av, _ := a.Value()
		bv, _ := b.Value()
		if !value.SameValue(av, bv) {
			t.Fatalf("seed %d: undirected asymmetric: %s vs %s", seed, av, bv)
		}
	}
}

// TestDirectedSplitsUndirected checks |out| + |in| == |both| for matches
// between distinct label sets (no self-loops between L0 and L1 possible).
func TestDirectedSplitsUndirected(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomGraph(t, seed, 30)
		out := intOf(t, s, "MATCH (x:L0)-[r]->(y:L1) RETURN count(r)")
		in := intOf(t, s, "MATCH (x:L0)<-[r]-(y:L1) RETURN count(r)")
		both := intOf(t, s, "MATCH (x:L0)-[r]-(y:L1) RETURN count(r)")
		if out+in != both {
			t.Fatalf("seed %d: %d out + %d in != %d both", seed, out, in, both)
		}
	}
}

// TestCountMatchesRowCount checks count(*) equals the materialized row
// count for arbitrary patterns.
func TestCountMatchesRowCount(t *testing.T) {
	patterns := []string{
		"MATCH (n) ",
		"MATCH (n:L0) ",
		"MATCH (n)-->(m) ",
		"MATCH (n)-[:T0]->(m:L1) ",
		"MATCH (n)-[*1..2]->(m) ",
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := randomGraph(t, seed, 25)
		for _, p := range patterns {
			counted := intOf(t, s, p+"RETURN count(*)")
			res := q(t, s, p+"RETURN 1 AS one", nil)
			if counted != int64(len(res.Rows)) {
				t.Fatalf("seed %d pattern %q: count %d != rows %d",
					seed, p, counted, len(res.Rows))
			}
		}
	}
}

// TestAggregationConservation: the sum of group counts equals the total.
func TestAggregationConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randomGraph(t, seed, 50)
		total := intOf(t, s, "MATCH (n) RETURN count(*)")
		res := q(t, s, "MATCH (n) RETURN n.v AS v, count(*) AS c", nil)
		var sum int64
		for _, r := range res.Rows {
			c, _ := r[1].AsInt()
			sum += c
		}
		if sum != total {
			t.Fatalf("seed %d: group counts sum %d != total %d", seed, sum, total)
		}
	}
}

// TestSkipLimitPartition: SKIP k + LIMIT k slices partition the ordered
// output without gaps or duplication.
func TestSkipLimitPartition(t *testing.T) {
	s := randomGraph(t, 9, 37)
	full := q(t, s, "MATCH (n) RETURN id(n) AS i ORDER BY i", nil)
	var paged []string
	for skip := 0; ; skip += 10 {
		page := q(t, s, fmt.Sprintf("MATCH (n) RETURN id(n) AS i ORDER BY i SKIP %d LIMIT 10", skip), nil)
		if len(page.Rows) == 0 {
			break
		}
		for _, r := range page.Rows {
			paged = append(paged, r[0].String())
		}
	}
	if len(paged) != len(full.Rows) {
		t.Fatalf("pagination lost rows: %d != %d", len(paged), len(full.Rows))
	}
	for i, r := range full.Rows {
		if paged[i] != r[0].String() {
			t.Fatalf("pagination reordered row %d", i)
		}
	}
}

func intOf(t *testing.T, s *graph.Store, query string) int64 {
	t.Helper()
	res := q(t, s, query, nil)
	v, ok := res.Value()
	if !ok {
		t.Fatalf("%s: not a single value", query)
	}
	n, _ := v.AsInt()
	return n
}

// TestDeleteCreateConsistency: after deleting everything matched, the
// pattern matches nothing.
func TestDeleteCreateConsistency(t *testing.T) {
	s := randomGraph(t, 3, 30)
	q(t, s, "MATCH (n:L1) DETACH DELETE n", nil)
	if intOf(t, s, "MATCH (n:L1) RETURN count(*)") != 0 {
		t.Fatal("deleted label still matches")
	}
	// Remaining relationships never touch a deleted node.
	res := q(t, s, "MATCH (a)-[r]->(b) RETURN count(r)", nil)
	v, _ := res.Value()
	relCount, _ := v.AsInt()
	var stats graph.Stats = s.Stats()
	if relCount != int64(stats.Relationships) {
		t.Fatalf("dangling relationships: matched %d, store has %d", relCount, stats.Relationships)
	}
}
