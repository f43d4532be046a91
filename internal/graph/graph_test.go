package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

func mustCreateNode(t *testing.T, tx *Tx, labels []string, props map[string]value.Value) NodeID {
	t.Helper()
	id, err := tx.CreateNode(labels, props)
	if err != nil {
		t.Fatalf("CreateNode: %v", err)
	}
	return id
}

func mustCreateRel(t *testing.T, tx *Tx, start, end NodeID, typ string) RelID {
	t.Helper()
	id, err := tx.CreateRel(start, end, typ, nil)
	if err != nil {
		t.Fatalf("CreateRel: %v", err)
	}
	return id
}

func TestCreateAndReadNode(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	defer tx.Rollback()
	id := mustCreateNode(t, tx, []string{"Person", "Patient"},
		map[string]value.Value{"name": value.Str("Ada"), "age": value.Int(36)})
	n, ok := tx.Node(id)
	if !ok {
		t.Fatal("node should exist")
	}
	if len(n.Labels) != 2 || n.Labels[0] != "Patient" || n.Labels[1] != "Person" {
		t.Errorf("labels = %v", n.Labels)
	}
	if !n.HasLabel("Person") || n.HasLabel("Robot") {
		t.Error("HasLabel")
	}
	if v, ok := tx.NodeProp(id, "name"); !ok || !value.SameValue(v, value.Str("Ada")) {
		t.Error("name prop")
	}
	if _, ok := tx.NodeProp(id, "missing"); ok {
		t.Error("missing prop should not exist")
	}
	if !tx.NodeHasLabel(id, "Patient") {
		t.Error("NodeHasLabel")
	}
	if keys := tx.NodePropKeys(id); len(keys) != 2 || keys[0] != "age" {
		t.Errorf("prop keys = %v", keys)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Nodes; got != 1 {
		t.Errorf("store has %d nodes, want 1", got)
	}
}

func TestNullPropsNotStored(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		id := mustCreateNode(t, tx, []string{"N"},
			map[string]value.Value{"a": value.Null, "b": value.Int(1)})
		if _, ok := tx.NodeProp(id, "a"); ok {
			t.Error("null property should not be stored")
		}
		return nil
	})
}

func TestRollbackUndoesEverything(t *testing.T) {
	s := NewStore()
	var keep NodeID
	_ = s.Update(func(tx *Tx) error {
		keep = mustCreateNode(t, tx, []string{"Keep"}, map[string]value.Value{"v": value.Int(1)})
		return nil
	})

	tx := s.Begin(ReadWrite)
	n1 := mustCreateNode(t, tx, []string{"Temp"}, nil)
	mustCreateRel(t, tx, keep, n1, "REL")
	if err := tx.SetNodeProp(keep, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetLabel(keep, "Extra"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	err := s.View(func(tx *Tx) error {
		if tx.NodeCount() != 1 || tx.RelCount() != 0 {
			t.Errorf("rollback left %d nodes %d rels", tx.NodeCount(), tx.RelCount())
		}
		if v, _ := tx.NodeProp(keep, "v"); !value.SameValue(v, value.Int(1)) {
			t.Error("property not restored")
		}
		if tx.NodeHasLabel(keep, "Extra") {
			t.Error("label not removed on rollback")
		}
		if len(tx.NodesByLabel("Temp")) != 0 {
			t.Error("label index not cleaned")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNodeRequiresDetach(t *testing.T) {
	s := NewStore()
	var a, b NodeID
	_ = s.Update(func(tx *Tx) error {
		a = mustCreateNode(t, tx, []string{"A"}, nil)
		b = mustCreateNode(t, tx, []string{"B"}, nil)
		mustCreateRel(t, tx, a, b, "R")
		return nil
	})
	err := s.Update(func(tx *Tx) error { return tx.DeleteNode(a, false) })
	if !errors.Is(err, ErrHasRels) {
		t.Errorf("expected ErrHasRels, got %v", err)
	}
	if err := s.Update(func(tx *Tx) error { return tx.DeleteNode(a, true) }); err != nil {
		t.Fatalf("detach delete: %v", err)
	}
	_ = s.View(func(tx *Tx) error {
		if tx.NodeCount() != 1 || tx.RelCount() != 0 {
			t.Error("detach delete should remove node and rels")
		}
		if tx.Degree(b, Both) != 0 {
			t.Error("remaining node should have no rels")
		}
		return nil
	})
}

func TestRelTraversal(t *testing.T) {
	s := NewStore()
	var hub, s1, s2, s3 NodeID
	_ = s.Update(func(tx *Tx) error {
		hub = mustCreateNode(t, tx, []string{"Hub"}, nil)
		s1 = mustCreateNode(t, tx, []string{"Spoke"}, nil)
		s2 = mustCreateNode(t, tx, []string{"Spoke"}, nil)
		s3 = mustCreateNode(t, tx, []string{"Spoke"}, nil)
		mustCreateRel(t, tx, hub, s1, "LINKS")
		mustCreateRel(t, tx, hub, s2, "LINKS")
		mustCreateRel(t, tx, s3, hub, "FEEDS")
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		if got := len(tx.RelsOf(hub, Outgoing, nil)); got != 2 {
			t.Errorf("outgoing = %d, want 2", got)
		}
		if got := len(tx.RelsOf(hub, Incoming, nil)); got != 1 {
			t.Errorf("incoming = %d, want 1", got)
		}
		if got := len(tx.RelsOf(hub, Both, nil)); got != 3 {
			t.Errorf("both = %d, want 3", got)
		}
		if got := len(tx.RelsOf(hub, Both, []string{"LINKS"})); got != 2 {
			t.Errorf("typed both = %d, want 2", got)
		}
		if got := len(tx.RelsOf(hub, Outgoing, []string{"FEEDS"})); got != 0 {
			t.Errorf("typed outgoing = %d, want 0", got)
		}
		if tx.Degree(hub, Both) != 3 || tx.Degree(hub, Outgoing) != 2 || tx.Degree(hub, Incoming) != 1 {
			t.Error("degree mismatch")
		}
		rels := tx.RelsOf(s1, Incoming, nil)
		if len(rels) != 1 || rels[0].Other(s1) != hub {
			t.Error("Other endpoint")
		}
		return nil
	})
}

func TestSelfLoopCountedOnce(t *testing.T) {
	s := NewStore()
	var n NodeID
	_ = s.Update(func(tx *Tx) error {
		n = mustCreateNode(t, tx, []string{"N"}, nil)
		mustCreateRel(t, tx, n, n, "SELF")
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		if got := len(tx.RelsOf(n, Both, nil)); got != 1 {
			t.Errorf("self loop reported %d times, want 1", got)
		}
		if tx.Degree(n, Both) != 1 {
			t.Errorf("self loop degree = %d, want 1", tx.Degree(n, Both))
		}
		return nil
	})
}

// TestSelfLoopIncoming: a self-loop is an incoming relationship of its node
// as much as an outgoing one, the same as Degree counts it.
func TestSelfLoopIncoming(t *testing.T) {
	s := NewStore()
	var n NodeID
	_ = s.Update(func(tx *Tx) error {
		n = mustCreateNode(t, tx, []string{"N"}, nil)
		mustCreateRel(t, tx, n, n, "R")
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		for _, dir := range []Direction{Outgoing, Incoming} {
			if got, deg := len(tx.RelsOf(n, dir, nil)), tx.Degree(n, dir); got != 1 || deg != 1 {
				t.Errorf("direction %d: RelsOf gives %d rels, Degree %d; want 1 and 1", dir, got, deg)
			}
			if got := len(tx.RelsOf(n, dir, []string{"R"})); got != 1 {
				t.Errorf("direction %d, type R: RelsOf gives %d rels, want 1", dir, got)
			}
		}
		return nil
	})
}

func TestLabelIndexMaintained(t *testing.T) {
	s := NewStore()
	var id NodeID
	_ = s.Update(func(tx *Tx) error {
		id = mustCreateNode(t, tx, []string{"A"}, nil)
		return nil
	})
	_ = s.Update(func(tx *Tx) error {
		if err := tx.SetLabel(id, "B"); err != nil {
			return err
		}
		return tx.RemoveLabel(id, "A")
	})
	_ = s.View(func(tx *Tx) error {
		if len(tx.NodesByLabel("A")) != 0 {
			t.Error("A index should be empty")
		}
		if got := tx.NodesByLabel("B"); len(got) != 1 || got[0] != id {
			t.Error("B index should contain node")
		}
		if tx.CountByLabel("B") != 1 {
			t.Error("CountByLabel")
		}
		return nil
	})
}

func TestSetLabelIdempotent(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		id := mustCreateNode(t, tx, []string{"A"}, nil)
		if err := tx.SetLabel(id, "A"); err != nil {
			return err
		}
		if len(tx.Data().AssignedLabels) != 0 {
			t.Error("re-adding existing label should record no change")
		}
		if err := tx.RemoveLabel(id, "Z"); err != nil {
			return err
		}
		if len(tx.Data().RemovedLabels) != 0 {
			t.Error("removing absent label should record no change")
		}
		return nil
	})
}

func TestPropSetNullRemoves(t *testing.T) {
	s := NewStore()
	var id NodeID
	_ = s.Update(func(tx *Tx) error {
		id = mustCreateNode(t, tx, []string{"N"}, map[string]value.Value{"p": value.Int(1)})
		return nil
	})
	_ = s.Update(func(tx *Tx) error {
		if err := tx.SetNodeProp(id, "p", value.Null); err != nil {
			return err
		}
		if _, ok := tx.NodeProp(id, "p"); ok {
			t.Error("SET p = null should remove")
		}
		d := tx.Data()
		if len(d.RemovedProps) != 1 || len(d.AssignedProps) != 0 {
			t.Error("removal should be recorded as RemovedProps")
		}
		if !value.SameValue(d.RemovedProps[0].Old, value.Int(1)) {
			t.Error("old value recorded")
		}
		return nil
	})
}

func TestTxDataRecordsChanges(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	defer tx.Rollback()
	a := mustCreateNode(t, tx, []string{"A"}, nil)
	b := mustCreateNode(t, tx, []string{"B"}, nil)
	r := mustCreateRel(t, tx, a, b, "R")
	_ = tx.SetNodeProp(a, "x", value.Int(1))
	_ = tx.SetNodeProp(a, "x", value.Int(2))
	_ = tx.SetRelProp(r, "w", value.Float(0.5))
	_ = tx.SetLabel(b, "Extra")
	d := tx.Data()
	if len(d.CreatedNodes) != 2 || len(d.CreatedRels) != 1 {
		t.Error("created counts")
	}
	if len(d.AssignedProps) != 3 {
		t.Errorf("assigned props = %d, want 3", len(d.AssignedProps))
	}
	// Second assignment records prior value.
	if !value.SameValue(d.AssignedProps[1].Old, value.Int(1)) {
		t.Error("second assignment should record old value 1")
	}
	if len(d.AssignedLabels) != 1 || d.AssignedLabels[0].Label != "Extra" {
		t.Error("assigned labels")
	}
}

func TestTxDataCompact(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	defer tx.Rollback()
	a := mustCreateNode(t, tx, []string{"A"}, nil)
	tmp := mustCreateNode(t, tx, []string{"Tmp"}, nil)
	r := mustCreateRel(t, tx, a, tmp, "R")
	_ = tx.SetNodeProp(tmp, "x", value.Int(1))
	_ = tx.DeleteRel(r)
	_ = tx.DeleteNode(tmp, false)
	d := tx.Data()
	d.Compact()
	if len(d.CreatedNodes) != 1 || d.CreatedNodes[0] != a {
		t.Errorf("compacted created nodes = %v", d.CreatedNodes)
	}
	if len(d.DeletedNodes) != 0 || len(d.CreatedRels) != 0 || len(d.DeletedRels) != 0 {
		t.Error("created+deleted entities should vanish")
	}
	if len(d.AssignedProps) != 0 {
		t.Error("prop changes on vanished node should be dropped")
	}
}

func TestTxDataCompactKeepsPreexistingDeletes(t *testing.T) {
	s := NewStore()
	var id NodeID
	_ = s.Update(func(tx *Tx) error {
		id = mustCreateNode(t, tx, []string{"A"}, map[string]value.Value{"x": value.Int(9)})
		return nil
	})
	_ = s.Update(func(tx *Tx) error {
		_ = tx.SetNodeProp(id, "x", value.Int(10))
		_ = tx.DeleteNode(id, false)
		d := tx.Data()
		d.Compact()
		if len(d.DeletedNodes) != 1 {
			t.Error("pre-existing delete must remain")
		}
		if len(d.AssignedProps) != 0 {
			t.Error("prop change on deleted node should be dropped")
		}
		// Snapshot carries the final pre-delete state.
		if !value.SameValue(d.DeletedNodes[0].Props["x"], value.Int(10)) {
			t.Error("delete snapshot should carry final state")
		}
		return nil
	})
}

func TestTxDataMergeAndEmpty(t *testing.T) {
	a := &TxData{CreatedNodes: []NodeID{1}}
	b := &TxData{CreatedNodes: []NodeID{2}, AssignedLabels: []LabelChange{{Node: 2, Label: "L"}}}
	if a.Empty() || !(&TxData{}).Empty() {
		t.Error("Empty")
	}
	a.Merge(b)
	if len(a.CreatedNodes) != 2 || len(a.AssignedLabels) != 1 {
		t.Error("Merge")
	}
}

func TestValidatorAbortsCommit(t *testing.T) {
	s := NewStore()
	boom := errors.New("constraint violated")
	s.AddValidator(func(tx *Tx) error {
		if len(tx.Data().CreatedNodes) > 1 {
			return boom
		}
		return nil
	})
	if err := s.Update(func(tx *Tx) error {
		mustCreateNode(t, tx, []string{"A"}, nil)
		return nil
	}); err != nil {
		t.Fatalf("single create should pass: %v", err)
	}
	err := s.Update(func(tx *Tx) error {
		mustCreateNode(t, tx, []string{"A"}, nil)
		mustCreateNode(t, tx, []string{"A"}, nil)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected validator error, got %v", err)
	}
	if s.Stats().Nodes != 1 {
		t.Errorf("failed commit must roll back; have %d nodes", s.Stats().Nodes)
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadOnly)
	defer tx.Rollback()
	if _, err := tx.CreateNode(nil, nil); !errors.Is(err, ErrReadOnly) {
		t.Errorf("expected ErrReadOnly, got %v", err)
	}
	if err := tx.DeleteNode(1, false); !errors.Is(err, ErrReadOnly) {
		t.Errorf("expected ErrReadOnly, got %v", err)
	}
}

func TestTxDoneErrors(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit should fail, got %v", err)
	}
	tx.Rollback() // must be a no-op, not panic
	if _, err := tx.CreateNode(nil, nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("write after commit should fail, got %v", err)
	}
}

func TestMissingEntityErrors(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		if err := tx.DeleteNode(99, false); !errors.Is(err, ErrNodeNotFound) {
			t.Error("DeleteNode missing")
		}
		if err := tx.DeleteRel(99); !errors.Is(err, ErrRelNotFound) {
			t.Error("DeleteRel missing")
		}
		if _, err := tx.CreateRel(1, 2, "R", nil); !errors.Is(err, ErrNodeNotFound) {
			t.Error("CreateRel missing endpoint")
		}
		if err := tx.SetNodeProp(99, "k", value.Int(1)); !errors.Is(err, ErrNodeNotFound) {
			t.Error("SetNodeProp missing")
		}
		if err := tx.SetRelProp(99, "k", value.Int(1)); !errors.Is(err, ErrRelNotFound) {
			t.Error("SetRelProp missing")
		}
		if err := tx.SetLabel(99, "L"); !errors.Is(err, ErrNodeNotFound) {
			t.Error("SetLabel missing")
		}
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		if _, ok := tx.Node(99); ok {
			t.Error("Node(99) should not exist")
		}
		if _, ok := tx.Rel(99); ok {
			t.Error("Rel(99) should not exist")
		}
		if _, ok := tx.NodeLabels(99); ok {
			t.Error("NodeLabels(99)")
		}
		if tx.NodePropKeys(99) != nil || tx.RelPropKeys(99) != nil {
			t.Error("prop keys of missing entities")
		}
		if _, _, _, ok := tx.RelEndpoints(99); ok {
			t.Error("RelEndpoints(99)")
		}
		return nil
	})
}

func TestRelSnapshotAndEndpoints(t *testing.T) {
	s := NewStore()
	var a, b NodeID
	var r RelID
	_ = s.Update(func(tx *Tx) error {
		a = mustCreateNode(t, tx, []string{"A"}, nil)
		b = mustCreateNode(t, tx, []string{"B"}, nil)
		var err error
		r, err = tx.CreateRel(a, b, "KNOWS", map[string]value.Value{"since": value.Int(2020)})
		return err
	})
	_ = s.View(func(tx *Tx) error {
		rel, ok := tx.Rel(r)
		if !ok || rel.Type != "KNOWS" || rel.Start != a || rel.End != b {
			t.Error("rel snapshot")
		}
		if !value.SameValue(rel.Props["since"], value.Int(2020)) {
			t.Error("rel props")
		}
		if rel.Other(a) != b || rel.Other(b) != a {
			t.Error("rel Other")
		}
		typ, start, end, ok := tx.RelEndpoints(r)
		if !ok || typ != "KNOWS" || start != a || end != b {
			t.Error("RelEndpoints")
		}
		if v, ok := tx.RelProp(r, "since"); !ok || !value.SameValue(v, value.Int(2020)) {
			t.Error("RelProp")
		}
		if keys := tx.RelPropKeys(r); len(keys) != 1 || keys[0] != "since" {
			t.Error("RelPropKeys")
		}
		return nil
	})
}

func TestRelsByTypeIndex(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		a := mustCreateNode(t, tx, nil, nil)
		b := mustCreateNode(t, tx, nil, nil)
		mustCreateRel(t, tx, a, b, "X")
		mustCreateRel(t, tx, a, b, "X")
		mustCreateRel(t, tx, a, b, "Y")
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		if len(tx.RelsByType("X")) != 2 || len(tx.RelsByType("Y")) != 1 || len(tx.RelsByType("Z")) != 0 {
			t.Error("RelsByType")
		}
		if len(tx.AllRels()) != 3 || len(tx.AllNodes()) != 2 {
			t.Error("AllRels/AllNodes")
		}
		return nil
	})
}

func TestConcurrentReaders(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			mustCreateNode(t, tx, []string{"N"}, map[string]value.Value{"i": value.Int(int64(i))})
		}
		return nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = s.View(func(tx *Tx) error {
					if tx.NodeCount() != 100 {
						t.Error("reader saw inconsistent count")
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentWriters(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_ = s.Update(func(tx *Tx) error {
					_, err := tx.CreateNode([]string{"W"}, nil)
					return err
				})
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Nodes; got != 100 {
		t.Errorf("nodes = %d, want 100", got)
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	err := s.Update(func(tx *Tx) error {
		if _, err := tx.CreateNode([]string{"X"}, nil); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal("error should propagate")
	}
	if s.Stats().Nodes != 0 {
		t.Error("failed Update must roll back")
	}
}

func TestStatsCountsLabelsAndTypes(t *testing.T) {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		a := mustCreateNode(t, tx, []string{"A", "B"}, nil)
		b := mustCreateNode(t, tx, []string{"B"}, nil)
		mustCreateRel(t, tx, a, b, "T1")
		return nil
	})
	st := s.Stats()
	if st.Labels != 2 || st.RelTypes != 1 || st.Nodes != 2 || st.Relationships != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func BenchmarkCreateNodes(b *testing.B) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	defer tx.Rollback()
	props := map[string]value.Value{"name": value.Str("x")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.CreateNode([]string{"Bench"}, props); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraverse(b *testing.B) {
	s := NewStore()
	var hub NodeID
	_ = s.Update(func(tx *Tx) error {
		hub, _ = tx.CreateNode([]string{"Hub"}, nil)
		for i := 0; i < 100; i++ {
			n, _ := tx.CreateNode([]string{"Spoke"}, nil)
			if _, err := tx.CreateRel(hub, n, "LINKS", nil); err != nil {
				return err
			}
		}
		return nil
	})
	tx := s.Begin(ReadOnly)
	defer tx.Rollback()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels := tx.RelsOf(hub, Outgoing, nil)
		if len(rels) != 100 {
			b.Fatal("bad degree")
		}
	}
}

func ExampleStore_Update() {
	s := NewStore()
	_ = s.Update(func(tx *Tx) error {
		region, _ := tx.CreateNode([]string{"Region"}, map[string]value.Value{
			"name": value.Str("Lombardy"),
		})
		hospital, _ := tx.CreateNode([]string{"Hospital"}, nil)
		_, _ = tx.CreateRel(hospital, region, "LocatedIn", nil)
		_ = region
		return nil
	})
	_ = s.View(func(tx *Tx) error {
		fmt.Println(tx.NodeCount(), tx.RelCount())
		return nil
	})
	// Output: 2 1
}

// TestPropIndexFollowsEquality: an index seek finds exactly the nodes whose
// property = the value sought — INTEGER 1 and FLOAT 1.0 one posting, a
// string "1" another, numbers compared exactly beyond 2⁵³ — and a value not
// equal to itself (NULL, NaN, a list holding NULL) finds nothing, although
// NaN and such a list are stored and posted.
func TestPropIndexFollowsEquality(t *testing.T) {
	vals := []value.Value{
		value.Int(1), value.Float(1), value.Float(1.5), value.Int(-3), value.Float(-3),
		value.Int(0), value.Float(math.Copysign(0, -1)), value.Str("1"), value.Str(""),
		value.Bool(true), value.Bool(false), value.Int(1<<53 + 1), value.Float(1 << 53),
		value.Float(math.NaN()), value.Float(math.Inf(1)),
		value.ListOf([]value.Value{value.Int(1), value.Int(2)}), value.ListOf([]value.Value{value.Float(1), value.Int(2)}),
		value.ListOf([]value.Value{value.Int(1), value.Null}),
	}
	s := NewStore()
	if err := s.CreateIndex("L", "k"); err != nil {
		t.Fatal(err)
	}
	ids := make([]NodeID, len(vals))
	if err := s.Update(func(tx *Tx) error {
		for i, v := range vals {
			ids[i] = mustCreateNode(t, tx, []string{"L"}, map[string]value.Value{"k": v})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		for _, probe := range append(vals, value.Null) {
			var want []NodeID
			for i, v := range vals {
				if eq, known := value.Equal(v, probe); known && eq {
					want = append(want, ids[i])
				}
			}
			got, indexed := tx.NodesByProp("L", "k", probe)
			n, _ := tx.CountByProp("L", "k", probe)
			slices.Sort(got)
			if !indexed || len(got) != len(want) || !slices.Equal(got, want) || n != len(want) {
				t.Errorf("seek %v: %v (count %d), want %v", probe, got, n, want)
			}
		}
		return nil
	})
}

// TestDerivedEntriesFollowTheirFolds: derived entries survive a commit only
// when every change was folded; a transaction that folded only part of its
// changes drops them (which part is unknown), and KeepDerived drops the
// slots not named.
func TestDerivedEntriesFollowTheirFolds(t *testing.T) {
	s := NewStore()
	tx := s.Begin(ReadWrite)
	n := mustCreateNode(t, tx, []string{"N"}, nil)
	if !tx.DerivedBehind() {
		t.Fatal("a write nobody folded: want DerivedBehind")
	}
	tx.FoldDerived()
	k := value.Node(int64(n)).Key()
	tx.SetDerived(1, k, DerivedEntry{N: 5})
	tx.SetDerived(2, k, DerivedEntry{N: 7})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin(ReadWrite)
	if got, ok := tx.Derived(1, k); !ok || got.N != 5 || !tx.DerivedCurrent() || tx.DerivedBehind() {
		t.Fatalf("after a folded commit: entry %d, %v; current %v", got.N, ok, tx.DerivedCurrent())
	}
	tx.KeepDerived([]int{2})
	if tx.DerivedLen(1) != 0 || tx.DerivedLen(2) != 1 {
		t.Fatalf("KeepDerived([2]) left %d and %d entries under slots 1 and 2", tx.DerivedLen(1), tx.DerivedLen(2))
	}
	mustCreateNode(t, tx, []string{"N"}, nil)
	tx.FoldDerived()
	mustCreateNode(t, tx, []string{"N"}, nil)
	if tx.DerivedCurrent() || tx.DerivedBehind() || tx.DerivedLen(2) != 0 {
		t.Fatalf("part folded: current %v, entries %d; want the entries dropped", tx.DerivedCurrent(), tx.DerivedLen(2))
	}
	tx.SetDerived(2, k, DerivedEntry{N: 7})
	tx.Rollback()

	if err := s.Update(func(tx *Tx) error {
		_, err := tx.CreateNode([]string{"N"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		if tx.DerivedLen(2) != 0 {
			t.Error("a commit with unfolded changes kept its derived entries")
		}
		return nil
	})
}
