package hub

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

func fourHubs(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, h := range []struct{ name, desc string }{
		{"E", "Experimental hub: mutation effects"},
		{"A", "Analysis hub: sequencing"},
		{"C", "Clinical hub: hospital"},
		{"R", "Regional hub: policies"},
	} {
		if _, err := r.Define(h.name, h.desc); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Own("E", "Mutation", "Effect"))
	must(r.Own("A", "Lab", "Sequence", "Variant"))
	must(r.Own("C", "Hospital", "Patient", "Treatment"))
	must(r.Own("R", "Region"))
	return r
}

func TestDefineAndGet(t *testing.T) {
	r := fourHubs(t)
	if h, ok := r.Get("E"); !ok || h.Description == "" {
		t.Error("Get")
	}
	if _, ok := r.Get("Z"); ok {
		t.Error("unknown hub")
	}
	if len(r.Hubs()) != 4 || r.Hubs()[0].Name != "A" {
		t.Error("Hubs should be sorted")
	}
	if _, err := r.Define("E", "dup"); !errors.Is(err, ErrHubExists) {
		t.Error("duplicate define")
	}
}

func TestOwnership(t *testing.T) {
	r := fourHubs(t)
	if owner, ok := r.OwnerOfLabel("Sequence"); !ok || owner != "A" {
		t.Error("OwnerOfLabel")
	}
	if _, ok := r.OwnerOfLabel("Nope"); ok {
		t.Error("unowned label")
	}
	if err := r.Own("E", "Sequence"); !errors.Is(err, ErrLabelClaimed) {
		t.Error("label reclaim should fail")
	}
	if err := r.Own("A", "Sequence"); err != nil {
		t.Error("re-own by same hub is idempotent")
	}
	if err := r.Own("Z", "X"); !errors.Is(err, ErrUnknownHub) {
		t.Error("own by unknown hub")
	}
	labels := r.OwnedLabels("A")
	if len(labels) != 3 || labels[0] != "Lab" {
		t.Errorf("OwnedLabels = %v", labels)
	}
}

func TestOwnerOfNode(t *testing.T) {
	r := fourHubs(t)
	s := graph.NewStore()
	var byProp, byLabel, neither graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		byProp, _ = tx.CreateNode([]string{"Whatever"}, HubProp("C"))
		byLabel, _ = tx.CreateNode([]string{"Region"}, nil)
		neither, _ = tx.CreateNode([]string{"Floating"}, nil)
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		if h, ok := r.OwnerOfNode(tx, byProp); !ok || h != "C" {
			t.Error("hub property wins")
		}
		if h, ok := r.OwnerOfNode(tx, byLabel); !ok || h != "R" {
			t.Error("label fallback")
		}
		if _, ok := r.OwnerOfNode(tx, neither); ok {
			t.Error("unowned node")
		}
		return nil
	})
}

// TestClassifyEdge pins how ComputeStats scopes each relationship: both
// endpoints in one hub is intra-hub, two hubs is inter-hub (a knowledge
// bridge), and an edge touching an unowned node is neither.
func TestClassifyEdge(t *testing.T) {
	r := fourHubs(t)
	cases := []struct {
		name         string
		from, to     string
		intra, inter int
	}{
		{"intra", "A", "A", 1, 0},
		{"inter", "A", "R", 0, 1},
		{"unowned", "A", "", 0, 0},
	}
	labels := map[string]string{"A": "Lab", "R": "Region", "": "Loose"}
	for _, c := range cases {
		s := graph.NewStore()
		_ = s.Update(func(tx *graph.Tx) error {
			from, _ := tx.CreateNode([]string{"Sequence"}, HubProp(c.from))
			var props map[string]value.Value
			if c.to != "" {
				props = HubProp(c.to)
			}
			to, _ := tx.CreateNode([]string{labels[c.to]}, props)
			_, _ = tx.CreateRel(from, to, "Edge", nil)
			return nil
		})
		var st Stats
		_ = s.View(func(tx *graph.Tx) error {
			st = r.ComputeStats(tx)
			return nil
		})
		if st.IntraEdges != c.intra || st.InterEdges != c.inter {
			t.Errorf("%s: intra=%d inter=%d, want %d/%d", c.name, st.IntraEdges, st.InterEdges, c.intra, c.inter)
		}
	}
}

func TestEnforceHubProperty(t *testing.T) {
	r := fourHubs(t)
	s := graph.NewStore()
	r.Enforce(s)
	r.Enforce(s) // idempotent

	// Owned label without hub property → rejected.
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Patient"}, nil)
		return err
	})
	if !errors.Is(err, ErrMissingHub) {
		t.Errorf("missing hub: %v", err)
	}
	// Wrong hub value → rejected.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Patient"}, HubProp("A"))
		return err
	})
	if !errors.Is(err, ErrWrongOwner) {
		t.Errorf("wrong owner: %v", err)
	}
	// Correct hub → accepted.
	if err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Patient"}, HubProp("C"))
		return err
	}); err != nil {
		t.Errorf("valid node rejected: %v", err)
	}
	// Unowned labels remain unconstrained.
	if err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"ScratchPad"}, nil)
		return err
	}); err != nil {
		t.Errorf("unowned label rejected: %v", err)
	}
	// Labels from two different hubs on one node → rejected.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Patient", "Region"}, HubProp("C"))
		return err
	})
	if !errors.Is(err, ErrLabelClaimed) {
		t.Errorf("cross-hub labels: %v", err)
	}
}

func TestEnforceOnLabelAssignment(t *testing.T) {
	r := fourHubs(t)
	s := graph.NewStore()
	r.Enforce(s)
	var id graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		id, _ = tx.CreateNode([]string{"Scratch"}, nil)
		return nil
	})
	// Assigning an owned label to a node without the hub property fails.
	err := s.Update(func(tx *graph.Tx) error { return tx.SetLabel(id, "Region") })
	if !errors.Is(err, ErrMissingHub) {
		t.Errorf("label assignment: %v", err)
	}
	// Setting the hub property first, then the label, passes.
	err = s.Update(func(tx *graph.Tx) error {
		if err := tx.SetNodeProp(id, HubProperty, value.Str("R")); err != nil {
			return err
		}
		return tx.SetLabel(id, "Region")
	})
	if err != nil {
		t.Errorf("valid label assignment rejected: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	r := fourHubs(t)
	s := graph.NewStore()
	_ = s.Update(func(tx *graph.Tx) error {
		lab, _ := tx.CreateNode([]string{"Lab"}, HubProp("A"))
		seq1, _ := tx.CreateNode([]string{"Sequence"}, HubProp("A"))
		seq2, _ := tx.CreateNode([]string{"Sequence"}, HubProp("A"))
		region, _ := tx.CreateNode([]string{"Region"}, HubProp("R"))
		_, _ = tx.CreateNode([]string{"Loose"}, nil)
		_, _ = tx.CreateRel(seq1, lab, "SequencedAt", nil)
		_, _ = tx.CreateRel(seq2, lab, "SequencedAt", nil)
		_, _ = tx.CreateRel(lab, region, "LocatedIn", nil)
		return nil
	})
	var st Stats
	_ = s.View(func(tx *graph.Tx) error {
		st = r.ComputeStats(tx)
		return nil
	})
	if st.NodesPerHub["A"] != 3 || st.NodesPerHub["R"] != 1 || st.Unassigned != 1 {
		t.Errorf("nodes: %+v", st.NodesPerHub)
	}
	if st.IntraEdges != 2 || st.InterEdges != 1 {
		t.Errorf("edges: intra=%d inter=%d", st.IntraEdges, st.InterEdges)
	}
	if len(st.Bridges) != 1 || st.Bridges[0].Type != "LocatedIn" ||
		st.Bridges[0].FromHub != "A" || st.Bridges[0].ToHub != "R" || st.Bridges[0].Count != 1 {
		t.Errorf("bridges: %+v", st.Bridges)
	}
}
