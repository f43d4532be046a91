package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestDetachDeleteOrder pins the order in which DETACH DELETE removes a
// node's relationships: outgoing in ID order, then incoming in ID order,
// a self-loop once among the outgoing. TxData.DeletedRels and the WAL
// record's deleteRel ops follow it, so both are the same on every run.
func TestDetachDeleteOrder(t *testing.T) {
	s := graph.NewStore()
	setup := s.Begin(graph.ReadWrite)
	node := func() graph.NodeID {
		id, err := setup.CreateNode([]string{"N"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	rel := func(from, to graph.NodeID) graph.RelID {
		id, err := setup.CreateRel(from, to, "R", nil)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	hub := node()
	var out, in []graph.RelID
	for i := 0; i < 12; i++ {
		// Alternate which direction is created first, so the two ID sets
		// interleave.
		leaf := node()
		if i%2 == 0 {
			out = append(out, rel(hub, leaf))
			in = append(in, rel(leaf, hub))
		} else {
			in = append(in, rel(leaf, hub))
			out = append(out, rel(hub, leaf))
		}
	}
	out = append(out, rel(hub, hub))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(slices.Clone(out), in...)

	tx := s.Begin(graph.ReadWrite)
	defer tx.Rollback()
	if err := tx.DeleteNode(hub, true); err != nil {
		t.Fatal(err)
	}
	var got []graph.RelID
	for _, r := range tx.Data().DeletedRels {
		got = append(got, r.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DeletedRels = %v, want %v", got, want)
	}

	var ops []string
	for _, op := range wal.RecordFromTx(tx).Ops {
		ops = append(ops, fmt.Sprintf("%s %d", op.Op, op.Rel+op.Node))
	}
	var wantOps []string
	for _, id := range want {
		wantOps = append(wantOps, fmt.Sprintf("%s %d", wal.OpDeleteRel, id))
	}
	wantOps = append(wantOps, fmt.Sprintf("%s %d", wal.OpDeleteNode, hub))
	if !slices.Equal(ops, wantOps) {
		t.Fatalf("WAL ops = %v, want %v", ops, wantOps)
	}
}

// TestScansAscending checks that every identifier scan of a Tx comes out
// in ascending ID order, whatever order the entities were created and
// deleted in: callers (Export, bookkeeping scans, alert paging) rely on it
// and do not sort.
func TestScansAscending(t *testing.T) {
	s := graph.NewStore()
	if err := s.CreateIndex("P", "k"); err != nil {
		t.Fatal(err)
	}
	// IDs created out of order and far apart, so the trie has several
	// levels and a raised root.
	ids := []graph.NodeID{70000, 3, 5000, 40, 33, 1 << 20, 64, 2, 1025}
	if err := s.Update(func(tx *graph.Tx) error {
		for _, id := range ids {
			if err := tx.CreateNodeWithID(id, []string{"P"}, map[string]value.Value{"k": value.Int(1)}); err != nil {
				return err
			}
		}
		for i := 1; i < len(ids); i++ {
			rid := graph.RelID(ids[len(ids)-i]) * 7
			if err := tx.CreateRelWithID(rid, ids[i-1], ids[i], "R", nil); err != nil {
				return err
			}
		}
		return tx.DeleteNode(40, true)
	}); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(graph.ReadOnly)
	defer tx.Rollback()
	byProp, _ := tx.NodesByProp("P", "k", value.Int(1))
	for name, got := range map[string][]int64{
		"NodesByLabel": int64s(tx.NodesByLabel("P")),
		"NodesByProp":  int64s(byProp),
		"AllNodes":     int64s(tx.AllNodes()),
		"AllRels":      int64s(tx.AllRels()),
		"RelsByType":   int64s(tx.RelsByType("R")),
	} {
		if len(got) < 5 || !slices.IsSorted(got) {
			t.Errorf("%s = %v, want at least 5 IDs in ascending order", name, got)
		}
	}
}

func int64s[ID graph.NodeID | graph.RelID](ids []ID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}
