package core

// Behavior tests for what is genuinely multi-shard: the hub-to-shard layout
// and routing, bridge writes, hub-ownership enforcement on both sides of a
// bridge, per-shard checkpoints, and the typed error single-store features
// return once there is more than one shard. Everything that behaves the same
// for any number of shards runs over the constructor table instead (see
// variants_test.go and table_test.go).

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/wal"
)

func twoHubs() []HubShard {
	return []HubShard{
		{Hub: "A", Description: "analysis", Labels: []string{"Sequence", "Lab"}},
		{Hub: "B", Description: "trials", Labels: []string{"Trial"}},
	}
}

func newShardedKB(t *testing.T) *KnowledgeBase {
	t.Helper()
	kb, err := NewSharded(Config{Clock: periodic.NewManualClock(sim0)}, twoHubs())
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestShardedLayoutAndErrors(t *testing.T) {
	kb := newShardedKB(t)
	if kb.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", kb.NumShards())
	}
	if i, ok := kb.ShardOf("B"); !ok || i != 1 {
		t.Fatalf("ShardOf(B) = %d, %v", i, ok)
	}
	if _, ok := kb.ShardOf("nope"); ok {
		t.Fatal("ShardOf on unknown hub reported ok")
	}
	if got := kb.HubOfShard(0); got != "A" {
		t.Fatalf("HubOfShard(0) = %q", got)
	}
	if got := kb.HubOfShard(9); got != "" {
		t.Fatalf("HubOfShard(9) = %q, want empty", got)
	}
	if _, err := NewSharded(Config{}, nil); err == nil {
		t.Fatal("NewSharded with no hubs succeeded")
	}
	if _, err := NewSharded(Config{}, []HubShard{{Hub: "A"}, {Hub: "A"}}); err == nil {
		t.Fatal("duplicate hub declaration accepted")
	}
	if _, _, err := kb.ExecuteInHub("nope", "CREATE (:Doc)", nil); !errors.Is(err, ErrUnknownShardHub) {
		t.Fatalf("ExecuteInHub(nope) err = %v, want ErrUnknownShardHub", err)
	}
	if _, err := kb.QueryInHub("nope", "MATCH (n) RETURN n", nil); !errors.Is(err, ErrUnknownShardHub) {
		t.Fatalf("QueryInHub(nope) err = %v, want ErrUnknownShardHub", err)
	}
	if _, err := kb.UpdateShard(5, func(tx *graph.Tx) error { return nil }); err == nil {
		t.Fatal("UpdateShard(5) accepted")
	}
	if kb.Durable() {
		t.Fatal("in-memory sharded kb claims durability")
	}
	if err := kb.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint err = %v, want ErrNotDurable", err)
	}
}

func TestShardedBridgeWrite(t *testing.T) {
	kb := newShardedKB(t)
	if err := kb.InstallRule(trigger.Rule{
		Name:  "watchTrial",
		Hub:   "B",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Trial"},
		Alert: "RETURN 1 AS one",
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := kb.UpdateBridgeShards(shardOf(t, kb, "A"), shardOf(t, kb, "B"), func(bt *graph.BridgeTx) error {
		a, err := bt.CreateNodeIn(0, []string{"Sequence"}, nil)
		if err != nil {
			return err
		}
		b, err := bt.CreateNodeIn(1, []string{"Trial"}, nil)
		if err != nil {
			return err
		}
		_, err = bt.CreateRel(a, b, "TESTED_IN", nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rule fired on the hi-shard side of the bridge commit.
	if rep.AlertNodes != 1 {
		t.Fatalf("bridge report = %+v, want one alert node", rep)
	}
	if st := kb.GraphStats(); st.Relationships != 1 {
		t.Errorf("relationships = %d, want 1 (both halves of the bridge count once)", st.Relationships)
	}
	if got := kb.Shards().LabelCount("Sequence"); got != 1 {
		t.Errorf("sequences = %d, want 1", got)
	}
	if _, err := kb.UpdateBridgeShards(0, 5, func(bt *graph.BridgeTx) error { return nil }); err == nil {
		t.Fatal("UpdateBridgeShards(0, 5) accepted")
	}
}

func TestShardedHubOwnershipEnforced(t *testing.T) {
	kb := newShardedKB(t)
	kb.EnforceHubOwnership()
	// Owned label without the hub property: rejected on every shard.
	for i, label := range []string{"Sequence", "Trial"} {
		if _, err := kb.UpdateShard(i, func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{label}, nil)
			return err
		}); !errors.Is(err, hub.ErrMissingHub) {
			t.Fatalf("shard %d unowned create err = %v, want ErrMissingHub", i, err)
		}
	}
	// Declaring the owning hub passes.
	if _, err := kb.UpdateShard(0, func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Sequence"}, hub.HubProp("A"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Enforcement also gates both sides of a bridge transaction.
	if _, err := kb.UpdateBridgeShards(0, 1, func(bt *graph.BridgeTx) error {
		_, err := bt.CreateNodeIn(1, []string{"Trial"}, nil)
		return err
	}); !errors.Is(err, hub.ErrMissingHub) {
		t.Fatalf("bridge unowned create err = %v, want ErrMissingHub", err)
	}
	// Enforcing twice must not double-install validators (one error, and
	// valid writes still pass).
	kb.EnforceHubOwnership()
	if _, err := kb.UpdateShard(1, func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Trial"}, hub.HubProp("B"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	kb, _, err := OpenShardedDurable(dir, Config{}, twoHubs(), wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	SeedShards(t, kb)
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Write past the first checkpoint, then checkpoint again: the second
	// cut must cover the new write on its shard.
	if _, err := kb.UpdateShard(0, func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Doc"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := Exports(t, kb)
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}

	kb2, infos, err := OpenShardedDurable(dir, Config{}, twoHubs(), wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer kb2.Close()
	got := Exports(t, kb2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d: export differs after checkpointed recovery", i)
		}
	}
	for i, info := range infos {
		if info.SnapshotSeq == 0 || info.RecordsReplayed != 0 {
			t.Fatalf("shard %d did not recover from the second checkpoint alone: %+v", i, info)
		}
	}
}

// TestShardedSingleStoreFeaturesTypedError pins the N>1 feature matrix:
// everything that acts on one graph store refuses with ErrMultiShard
// instead of silently acting on shard 0.
func TestShardedSingleStoreFeaturesTypedError(t *testing.T) {
	kb := newShardedKB(t)
	calls := map[string]func() error{
		"Execute": func() error { _, err := kb.Execute("CREATE (:X)", nil); return err },
		"WriteTx": func() error {
			_, err := kb.WriteTx(func(tx *graph.Tx) error { return nil })
			return err
		},
		"EnableSummaries": func() error { return kb.EnableSummaries(24 * time.Hour) },
		"Fork":            func() error { _, err := kb.Fork(nil); return err },
		"ApplySchema": func() error {
			_, err := kb.ApplySchema("CREATE GRAPH TYPE G STRICT { (xt: X {id STRING}) }")
			return err
		},
		"SaveGraph": func() error { return kb.SaveGraph(io.Discard) },
		"LoadGraph": func() error { return kb.LoadGraph(strings.NewReader("{}")) },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrMultiShard) {
			t.Errorf("%s on two shards: err = %v, want ErrMultiShard", name, err)
		}
	}
	if n := kb.GraphStats().Nodes; n != 0 {
		t.Errorf("refused operations left %d node(s) behind", n)
	}

	dir := t.TempDir()
	dkb, _, err := OpenShardedDurable(dir, Config{}, twoHubs(), wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dkb.Close()
	if _, _, err := dkb.ReplicaSnapshotView(); !errors.Is(err, ErrMultiShard) {
		t.Errorf("ReplicaSnapshotView on two shards: err = %v, want ErrMultiShard", err)
	}
}
