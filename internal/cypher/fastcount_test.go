package cypher

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

func countStore(t *testing.T) *graph.Store {
	t.Helper()
	s := graph.NewStore()
	if err := s.CreateIndex("Patient", "regionDay"); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func(tx *graph.Tx) error {
		for i := 0; i < 40; i++ {
			key := "r0#d0"
			if i%4 == 0 {
				key = "r1#d0"
			}
			if _, err := tx.CreateNode([]string{"Patient"},
				map[string]value.Value{"regionDay": value.Str(key)}); err != nil {
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

func TestFastCountByLabel(t *testing.T) {
	s := countStore(t)
	res := q(t, s, "MATCH (p:Patient) RETURN count(p)", nil)
	if res.Rows[0][0].String() != "40" {
		t.Errorf("got %v", res.Rows)
	}
	res = q(t, s, "MATCH (p:Patient) RETURN count(*) AS n", nil)
	if res.Columns[0] != "n" || res.Rows[0][0].String() != "40" {
		t.Errorf("got %v %v", res.Columns, res.Rows)
	}
}

func TestFastCountByIndexedProp(t *testing.T) {
	s := countStore(t)
	res := q(t, s, "MATCH (p:Patient {regionDay: 'r1#d0'}) RETURN count(p)", nil)
	if res.Rows[0][0].String() != "10" {
		t.Errorf("got %v", res.Rows)
	}
	res = q(t, s, "MATCH (p:Patient {regionDay: $k}) RETURN count(*)", &Options{
		Params: map[string]value.Value{"k": value.Str("r0#d0")},
	})
	if res.Rows[0][0].String() != "30" {
		t.Errorf("param fast count got %v", res.Rows)
	}
}

func TestFastCountAllNodes(t *testing.T) {
	s := countStore(t)
	res := q(t, s, "MATCH (n) RETURN count(*)", nil)
	if res.Rows[0][0].String() != "40" {
		t.Errorf("got %v", res.Rows)
	}
}

// verifyFastPathTaken ensures the recognizer actually fires for the shapes
// above, by comparing against a store whose generic path would differ if the
// recognizer mis-fired on unsupported shapes.
func TestFastCountDoesNotMisfire(t *testing.T) {
	s := countStore(t)
	// WHERE clause present → generic path, same answer.
	res := q(t, s, "MATCH (p:Patient) WHERE p.regionDay = 'r1#d0' RETURN count(p)", nil)
	if res.Rows[0][0].String() != "10" {
		t.Errorf("generic count got %v", res.Rows)
	}
	// count(DISTINCT …) must not use the fast path blindly.
	res = q(t, s, "MATCH (p:Patient) RETURN count(DISTINCT p.regionDay)", nil)
	if res.Rows[0][0].String() != "2" {
		t.Errorf("distinct count got %v", res.Rows)
	}
	// Counting a different variable is not the fast shape.
	res = q(t, s, "MATCH (p:Patient {regionDay: 'r1#d0'}) RETURN count(p.regionDay)", nil)
	if res.Rows[0][0].String() != "10" {
		t.Errorf("prop count got %v", res.Rows)
	}
	// Unindexed property → generic scan.
	res = q(t, s, "MATCH (p:Patient {missing: 'x'}) RETURN count(p)", nil)
	if res.Rows[0][0].String() != "0" {
		t.Errorf("unindexed count got %v", res.Rows)
	}
}

func TestFastCountAgreesWithScan(t *testing.T) {
	s := countStore(t)
	fast := q(t, s, "MATCH (p:Patient {regionDay: 'r0#d0'}) RETURN count(p)", nil)
	slow := q(t, s, "MATCH (p:Patient) WHERE p.regionDay = 'r0#d0' RETURN count(p)", nil)
	if fast.Rows[0][0].String() != slow.Rows[0][0].String() {
		t.Errorf("fast %v != slow %v", fast.Rows, slow.Rows)
	}
}

func BenchmarkFastCount(b *testing.B) {
	s := graph.NewStore()
	if err := s.CreateIndex("P", "k"); err != nil {
		b.Fatal(err)
	}
	_ = s.Update(func(tx *graph.Tx) error {
		for i := 0; i < 10000; i++ {
			if _, err := tx.CreateNode([]string{"P"},
				map[string]value.Value{"k": value.Int(int64(i % 50))}); err != nil {
				return err
			}
		}
		return nil
	})
	stmt, err := Parse("MATCH (p:P {k: 7}) RETURN count(p)")
	if err != nil {
		b.Fatal(err)
	}
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Prepared().Execute(tx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanCount(b *testing.B) {
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		for i := 0; i < 10000; i++ {
			if _, err := tx.CreateNode([]string{"P"},
				map[string]value.Value{"k": value.Int(int64(i % 50))}); err != nil {
				return err
			}
		}
		return nil
	})
	stmt, err := Parse("MATCH (p:P) WHERE p.k = 7 RETURN count(p)")
	if err != nil {
		b.Fatal(err)
	}
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Prepared().Execute(tx, nil); err != nil {
			b.Fatal(err)
		}
	}
}
