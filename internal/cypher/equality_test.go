package cypher

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// TestIntFloatEqualityIndexedOrNot: over (:L {k: 1}), (:L {k: 1.0}), every
// way of asking for k = 1 or k = 1.0 counts both nodes, with and without an
// index on (L, k): the count-store fast path, an index seek feeding more
// clauses, and a WHERE filter.
func TestIntFloatEqualityIndexedOrNot(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := graph.NewStore()
		if indexed {
			if err := s.CreateIndex("L", "k"); err != nil {
				t.Fatal(err)
			}
		}
		q(t, s, `CREATE (:L {k: 1}), (:L {k: 1.0}), (:L {k: 1.5})`, nil)
		for _, query := range []string{
			`MATCH (n:L {k: 1}) RETURN count(n)`,
			`MATCH (n:L {k: 1.0}) RETURN count(n)`,
			`MATCH (n:L) WHERE n.k = 1 RETURN count(n)`,
			`MATCH (n:L) WHERE n.k = 1.0 RETURN count(n)`,
			`MATCH (n:L {k: 1.0}) WITH n RETURN count(n)`,
			`MATCH (n:L {k: $v}) RETURN count(n)`,
		} {
			res := q(t, s, query, &Options{Params: map[string]value.Value{"v": value.Int(1)}})
			if n, _ := res.Rows[0][0].AsInt(); n != 2 {
				t.Errorf("indexed %v: %s counts %d, want 2", indexed, query, n)
			}
		}
	}
}

// TestDistinctScalarAllocatesNoKey: a DISTINCT aggregate over a scalar it
// has seen keys it without allocating.
func TestDistinctScalarAllocatesNoKey(t *testing.T) {
	agg := newAggregator(&FuncCall{Name: "count", Distinct: true, def: functions["count"]})
	for _, v := range []value.Value{value.Int(1), value.Float(1.5), value.Str("north"), value.Node(3)} {
		if err := agg.add(v); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = agg.add(v) }); n != 0 {
			t.Errorf("DISTINCT over %v: %v allocations per row, want 0", v, n)
		}
	}
	if got, _ := agg.result().AsInt(); got != 4 {
		t.Errorf("count(DISTINCT) = %d, want 4", got)
	}
}
