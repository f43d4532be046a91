package core

// Behavior tests for hubs on the one store: declaring them, knowledge
// bridges between them, ownership enforcement, checkpoints of a knowledge
// base with hubs, and the refusal of the per-hub shard-NNN/ directory
// layout. The Sharded names date from when each hub was a graph shard; the
// behaviour they pin is what remains. Everything that behaves the same for
// any number of hubs runs over the constructor table instead (see
// variants_test.go and table_test.go).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

func twoHubs() []HubDecl {
	return []HubDecl{
		{Hub: "A", Description: "analysis", Labels: []string{"Sequence", "Lab"}},
		{Hub: "B", Description: "trials", Labels: []string{"Trial"}},
	}
}

func newShardedKB(t *testing.T) *KnowledgeBase {
	t.Helper()
	kb := New(Config{Clock: periodic.NewManualClock(sim0)})
	DeclareHubs(t, kb, twoHubs())
	return kb
}

func TestShardedLayoutAndErrors(t *testing.T) {
	kb := newShardedKB(t)
	if owner, ok := kb.Hubs().OwnerOfLabel("Trial"); !ok || owner != "B" {
		t.Fatalf("OwnerOfLabel(Trial) = %q, %v", owner, ok)
	}
	if err := kb.DefineHub("A", "again"); !errors.Is(err, hub.ErrHubExists) {
		t.Fatalf("duplicate hub err = %v, want ErrHubExists", err)
	}
	if err := kb.DefineHub("C", "claims a label of A", "Lab"); !errors.Is(err, hub.ErrLabelClaimed) {
		t.Fatalf("claimed label err = %v, want ErrLabelClaimed", err)
	}
	if kb.Durable() {
		t.Fatal("in-memory kb claims durability")
	}
	if err := kb.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint err = %v, want ErrNotDurable", err)
	}
}

// TestOpenDurableRefusesShardedLayout checks that a data directory in the
// per-hub layout of earlier versions (one shard-NNN/ log stream per hub) is
// refused with an error naming that layout, and that the refusal writes no
// flat log beside the shard streams.
func TestOpenDurableRefusesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-001"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() error{
		"OpenDurable": func() error {
			_, _, err := OpenDurable(dir, Config{}, wal.Options{})
			return err
		},
		"OpenFollowerDurable": func() error {
			_, _, err := OpenFollowerDurable(dir, Config{}, wal.Options{})
			return err
		},
	} {
		err := open()
		if !errors.Is(err, wal.ErrShardedLayout) {
			t.Fatalf("%s err = %v, want wal.ErrShardedLayout", name, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "shard-001" {
		t.Fatalf("refused opens left %v in the directory, want only shard-001", entries)
	}
}

// TestHubsBridgeWrite writes a knowledge bridge — a relationship from a
// node of hub A to a node of hub B — in one ordinary transaction: rules
// fire on both ends and the hub statistics count it as an inter-hub edge.
func TestHubsBridgeWrite(t *testing.T) {
	kb := newShardedKB(t)
	kb.EnforceHubOwnership()
	if err := kb.InstallRule(trigger.Rule{
		Name:  "watchTrial",
		Hub:   "B",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Trial"},
		Alert: "RETURN 1 AS one",
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := kb.WriteTx(func(tx *graph.Tx) error {
		a, err := tx.CreateNode([]string{"Sequence"}, hub.HubProp("A"))
		if err != nil {
			return err
		}
		b, err := tx.CreateNode([]string{"Trial"}, hub.HubProp("B"))
		if err != nil {
			return err
		}
		_, err = tx.CreateRel(a, b, "TESTED_IN", nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlertNodes != 1 {
		t.Fatalf("bridge report = %+v, want one alert node", rep)
	}
	if st := kb.GraphStats(); st.Relationships != 1 {
		t.Errorf("relationships = %d, want 1", st.Relationships)
	}
	hs, err := kb.HubStats()
	if err != nil {
		t.Fatal(err)
	}
	// Hub B holds the Trial and the alert its rule raised.
	if hs.InterEdges != 1 || hs.IntraEdges != 0 || hs.NodesPerHub["A"] != 1 || hs.NodesPerHub["B"] != 2 {
		t.Errorf("hub stats = %+v, want one inter-hub edge, one node in A and two in B", hs)
	}
	if len(hs.Bridges) != 1 || hs.Bridges[0] != (hub.Bridge{Type: "TESTED_IN", FromHub: "A", ToHub: "B", Count: 1}) {
		t.Errorf("bridges = %+v", hs.Bridges)
	}
}

func TestShardedHubOwnershipEnforced(t *testing.T) {
	kb := newShardedKB(t)
	kb.EnforceHubOwnership()
	create := func(label string, props map[string]value.Value) error {
		_, err := kb.WriteTx(func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{label}, props)
			return err
		})
		return err
	}
	// Owned label without the hub property: rejected for every hub.
	for _, label := range []string{"Sequence", "Trial"} {
		if err := create(label, nil); !errors.Is(err, hub.ErrMissingHub) {
			t.Fatalf("%s without hub err = %v, want ErrMissingHub", label, err)
		}
	}
	// A label owned by another hub: rejected.
	if err := create("Trial", hub.HubProp("A")); !errors.Is(err, hub.ErrWrongOwner) {
		t.Fatalf("Trial in hub A err = %v, want ErrWrongOwner", err)
	}
	// Declaring the owning hub passes; unowned labels are unconstrained.
	if err := create("Sequence", hub.HubProp("A")); err != nil {
		t.Fatal(err)
	}
	if err := create("Doc", nil); err != nil {
		t.Fatal(err)
	}
	// Enforcing twice must not double-install validators (one error, and
	// valid writes still pass).
	kb.EnforceHubOwnership()
	if err := create("Trial", hub.HubProp("B")); err != nil {
		t.Fatal(err)
	}
	if n := kb.GraphStats().Nodes; n != 3 {
		t.Errorf("nodes = %d, want the 3 accepted ones", n)
	}
}

func TestShardedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	open := func() (*KnowledgeBase, *wal.RecoveryInfo) {
		kb, info, err := OpenDurable(dir, Config{}, wal.Options{Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		DeclareHubs(t, kb, twoHubs())
		kb.EnforceHubOwnership()
		return kb, info
	}
	kb, _ := open()
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		a, err := tx.CreateNode([]string{"Sequence"}, hub.HubProp("A"))
		if err != nil {
			return err
		}
		b, err := tx.CreateNode([]string{"Trial"}, hub.HubProp("B"))
		if err != nil {
			return err
		}
		_, err = tx.CreateRel(a, b, "TESTED_IN", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Write past the first checkpoint, then checkpoint again: the second
	// cut must cover the new write.
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Trial"}, hub.HubProp("B"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := Export(t, kb)
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	kb2, info := open()
	defer kb2.Close()
	if got := Export(t, kb2); got != want {
		t.Fatal("export differs after checkpointed recovery")
	}
	if info.SnapshotSeq == 0 || info.RecordsReplayed != 0 {
		t.Fatalf("did not recover from the second checkpoint alone: %+v", info)
	}
}

// TestHubsDoNotGateSingleStoreFeatures checks that every operation that once
// refused a knowledge base with more than one hub shard — Execute, WriteTx,
// the Essential Summary, Fork, schema binding, SaveGraph/LoadGraph and the
// replication snapshot view — works with hubs declared and enforced.
func TestHubsDoNotGateSingleStoreFeatures(t *testing.T) {
	dir := t.TempDir()
	kb, _, err := OpenDurable(dir, Config{Clock: periodic.NewManualClock(sim0)}, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	DeclareHubs(t, kb, twoHubs())
	kb.EnforceHubOwnership()

	if _, err := kb.ApplySchema("CREATE GRAPH TYPE G LOOSE { (st: Sequence {id STRING, hub STRING}) }"); err != nil {
		t.Fatalf("ApplySchema: %v", err)
	}
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatalf("EnableSummaries: %v", err)
	}
	if _, err := kb.Execute("CREATE (:Sequence {id: 'S1', hub: 'A'})", nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Trial"}, hub.HubProp("B"))
		return err
	}); err != nil {
		t.Fatalf("WriteTx: %v", err)
	}
	fork, err := kb.Fork(nil)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if got, want := fork.GraphStats().Nodes, kb.GraphStats().Nodes; got != want {
		t.Errorf("fork has %d nodes, parent %d", got, want)
	}
	if _, err := fork.Execute("CREATE (:Trial)", nil); !errors.Is(err, hub.ErrMissingHub) {
		t.Errorf("fork hubless Trial err = %v, want ErrMissingHub (the fork shares the hubs)", err)
	}
	var doc bytes.Buffer
	if err := kb.SaveGraph(&doc); err != nil {
		t.Fatalf("SaveGraph: %v", err)
	}
	into := New(Config{})
	if err := into.LoadGraph(&doc); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if got, want := into.GraphStats(), kb.GraphStats(); got != want {
		t.Errorf("loaded stats %+v, want %+v", got, want)
	}
	view, seq, err := kb.ReplicaSnapshotView()
	if err != nil {
		t.Fatalf("ReplicaSnapshotView: %v", err)
	}
	defer view.Rollback()
	if seq != kb.WAL().LastSeq() || view.NodeCount() != kb.GraphStats().Nodes {
		t.Errorf("snapshot view at seq %d with %d nodes, want seq %d with %d",
			seq, view.NodeCount(), kb.WAL().LastSeq(), kb.GraphStats().Nodes)
	}
}
