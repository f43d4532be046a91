package core

// Behaviour suites over the constructor table (variants_test.go) that have no
// older single-configuration home: where an alert lands, the synchronous
// queue drain, durable reopen, follower apply, and the prepare-latency
// metric. The rule/cascade, async-pipeline, plan-variant and golden-corpus
// suites run over the same table from core_test.go, async_test.go,
// async_fault_test.go, shard_plan_test.go and golden_parity_test.go.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestRuleFiresInWritingShard checks that a rule's alert materializes in the
// shard whose transaction triggered it and nowhere else, through both the
// programmatic and the Cypher write path.
func TestRuleFiresInWritingShard(t *testing.T) { ForEachVariant(t, testRuleFiresInWritingShard) }

func testRuleFiresInWritingShard(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	if err := kb.InstallRule(trigger.Rule{
		Name:  "watch",
		Hub:   v.LastHub(),
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
		Alert: "RETURN NEW.id AS sid",
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := kb.UpdateShard(shardOf(t, kb, v.LastHub()), func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Sequence"}, map[string]value.Value{"id": value.Str("S1")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlertNodes != 1 {
		t.Fatalf("report = %+v, want one alert node", rep)
	}
	if _, rep, err := kb.ExecuteInHub(v.LastHub(), "CREATE (:Sequence {id: 'S2'})", nil); err != nil {
		t.Fatal(err)
	} else if rep.AlertNodes != 1 {
		t.Fatalf("ExecuteInHub report = %+v", rep)
	}
	for i := 0; i < v.Shards; i++ {
		want := int64(0)
		if i == v.Shards-1 {
			want = 2
		}
		res, err := kb.QueryInHub(v.Hub(i), "MATCH (a:Alert) RETURN count(a) AS n", nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.Rows[0][0].AsInt()
		if got != want {
			t.Errorf("alerts in %s = %d, want %d", v.Hub(i), got, want)
		}
	}
	if n := queryInt(t, kb, "MATCH (s:Sequence) RETURN count(s) AS n"); n != 2 {
		t.Fatalf("sequences over the whole graph = %d, want 2", n)
	}
}

func installEcho(t *testing.T, kb *KnowledgeBase) {
	t.Helper()
	if err := kb.InstallRule(trigger.Rule{
		Name:  "echo",
		Hub:   "H",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Reading"},
		Alert: "RETURN NEW.v AS v",
		Phase: trigger.AfterAsync,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncDrainSinglePass stages an activation on an enqueue-only pipeline
// and drains it with the synchronous DrainAsync pass.
func TestAsyncDrainSinglePass(t *testing.T) { ForEachVariant(t, testAsyncDrainSinglePass) }

func testAsyncDrainSinglePass(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	installEcho(t, kb)
	if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
		t.Fatal(err)
	}
	rep := exec(t, kb, "CREATE (:Reading {v: 7})")
	if rep.AsyncEnqueued != 1 || rep.AlertNodes != 0 {
		t.Fatalf("report = %+v, want one staged activation and no sync alert", rep)
	}
	if kb.AsyncDepth() != 1 {
		t.Fatalf("AsyncDepth = %d, want 1", kb.AsyncDepth())
	}
	done, err := kb.DrainAsync()
	if err != nil || done != 1 {
		t.Fatalf("DrainAsync = (%d, %v), want (1, nil)", done, err)
	}
	if kb.AsyncDepth() != 0 {
		t.Fatalf("AsyncDepth after drain = %d, want 0", kb.AsyncDepth())
	}
	if n := queryInt(t, kb, "MATCH (a:Alert) RETURN count(a) AS n"); n != 1 {
		t.Fatalf("alerts = %d, want 1", n)
	}
	if got := kb.asyncM.evaluated.Value(); got != 1 {
		t.Fatalf("evaluated counter = %d, want 1", got)
	}
	// Draining again is a no-op.
	if done, err := kb.DrainAsync(); err != nil || done != 0 {
		t.Fatalf("second DrainAsync = (%d, %v)", done, err)
	}
}

// TestAsyncPendingSurvivesRecovery stages an AfterAsync activation, crashes
// before the drain, and checks the recovered queue drains to the same alert.
func TestAsyncPendingSurvivesRecovery(t *testing.T) {
	ForEachDurableVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		installEcho(t, kb)
		if err := kb.StartAsync(AsyncOptions{Workers: -1}); err != nil {
			t.Fatal(err)
		}
		exec(t, kb, "CREATE (:Reading {v: 9})")
		if err := kb.Close(); err != nil { // crash before draining
			t.Fatal(err)
		}

		kb2 := v.Open(t, dir, Config{})
		installEcho(t, kb2)
		if kb2.AsyncDepth() != 1 {
			t.Fatalf("recovered AsyncDepth = %d, want 1", kb2.AsyncDepth())
		}
		if done, err := kb2.DrainAsync(); err != nil || done != 1 {
			t.Fatalf("DrainAsync after recovery = (%d, %v), want (1, nil)", done, err)
		}
		if n := queryInt(t, kb2, "MATCH (a:Alert) RETURN count(a) AS n"); n != 1 {
			t.Fatalf("alerts after recovered drain = %d, want 1", n)
		}
	})
}

// TestDurableReopen checks that a closed directory reopens to byte-identical
// per-shard exports (bridges included where there are several shards), that
// a checkpointed directory does too, and that a recovered shard keeps
// allocating identifiers in its own band.
func TestDurableReopen(t *testing.T) {
	ForEachDurableVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		SeedShards(t, kb)
		want := Exports(t, kb)
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}

		kb2 := v.Open(t, dir, Config{})
		if got := Exports(t, kb2); !equalStrings(got, want) {
			t.Fatal("recovered exports differ from the pre-close ones")
		}
		for i := 0; i < v.Shards; i++ {
			if _, err := kb2.UpdateShard(i, func(tx *graph.Tx) error {
				id, err := tx.CreateNode([]string{"Doc"}, nil)
				if err == nil && graph.ShardOfNode(id) != i {
					t.Errorf("post-recovery allocation in shard %d landed in band %d", i, graph.ShardOfNode(id))
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := kb2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		exec(t, kb2, "CREATE (:Doc {after: 'checkpoint'})")
		want = Exports(t, kb2)
		if err := kb2.Close(); err != nil {
			t.Fatal(err)
		}

		kb3 := v.Open(t, dir, Config{})
		if got := Exports(t, kb3); !equalStrings(got, want) {
			t.Fatal("exports differ after a checkpointed recovery")
		}
	})
}

// TestDurableReopenAfterLoadGraph checks that a graph loaded into a durable
// knowledge base is in its log: a later logged write that refers to loaded
// entities must replay on reopen (LoadGraph used to publish without a log
// record, leaving a directory that no longer opened). Rows with several
// shards refuse LoadGraph with ErrMultiShard, which is the durable answer
// there.
func TestDurableReopenAfterLoadGraph(t *testing.T) {
	src := New(Config{})
	exec(t, src, "CREATE (:A {k: 1})-[:R]->(:A {k: 1})")
	var doc bytes.Buffer
	if err := src.SaveGraph(&doc); err != nil {
		t.Fatal(err)
	}
	ForEachDurableVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		err := kb.LoadGraph(bytes.NewReader(doc.Bytes()))
		if v.Shards > 1 {
			if !errors.Is(err, ErrMultiShard) {
				t.Fatalf("LoadGraph on %d shards: err = %v, want ErrMultiShard", v.Shards, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		exec(t, kb, "MATCH (a:A) SET a.k = 2")
		want := Exports(t, kb)
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		kb2 := v.Open(t, dir, Config{})
		if got := Exports(t, kb2); !equalStrings(got, want) {
			t.Fatal("recovered exports differ from the pre-close ones")
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFollowerApply ships every shard stream of a durable leader to a
// follower of each row's kind and checks the apply contract: contiguous
// batches only, per-shard cursors, writes refused, exports identical, and a
// durable follower's mirrored logs recover the same state stand-alone.
func TestFollowerApply(t *testing.T) { ForEachVariant(t, testFollowerApply) }

func testFollowerApply(t *testing.T, v Variant) {
	lv := Variant{Name: v.Name + " leader", Shards: v.Shards, Durable: true}
	leader := lv.Open(t, lv.Dir(t), Config{})
	SeedShards(t, leader)
	want := Exports(t, leader)

	fdir := v.Dir(t)
	fol := v.OpenFollower(t, fdir, Config{})
	if !fol.Follower() || fol.Role() != "follower" {
		t.Fatalf("follower reports Follower()=%v Role()=%q", fol.Follower(), fol.Role())
	}
	if _, err := fol.UpdateShard(0, func(tx *graph.Tx) error { return nil }); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower UpdateShard err = %v, want ErrFollower", err)
	}
	if _, err := fol.DrainAsync(); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower DrainAsync err = %v, want ErrFollower", err)
	}
	if err := fol.StartAsync(AsyncOptions{}); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower StartAsync err = %v, want ErrFollower", err)
	}
	if err := leader.ApplyReplicated(0, nil); err == nil {
		t.Fatal("leader accepted ApplyReplicated")
	}
	if err := fol.ApplyReplicated(v.Shards, nil); err == nil {
		t.Fatal("ApplyReplicated accepted an out-of-range shard")
	}

	// Ship each shard's stream independently, as the replica layer would.
	for i := 0; i < v.Shards; i++ {
		cur := leader.WALSet().Log(i).Cursor(fol.ReplicaAppliedSeq(i))
		var recs []*wal.Record
		for {
			batch, err := cur.Next(0)
			if err != nil {
				t.Fatalf("shard %d cursor: %v", i, err)
			}
			if len(batch) == 0 {
				break
			}
			recs = append(recs, batch...)
		}
		cur.Close()
		if len(recs) == 0 {
			t.Fatalf("shard %d: no records to ship", i)
		}
		if err := fol.ApplyReplicated(i, recs); err != nil {
			t.Fatalf("shard %d apply: %v", i, err)
		}
		if got := fol.ReplicaAppliedSeq(i); got != recs[len(recs)-1].Seq {
			t.Fatalf("shard %d applied seq = %d, want %d", i, got, recs[len(recs)-1].Seq)
		}
		// Replays of the same batch are rejected as non-contiguous.
		if err := fol.ApplyReplicated(i, recs); err == nil {
			t.Fatalf("shard %d: duplicate batch accepted", i)
		}
	}
	if got := Exports(t, fol); !equalStrings(got, want) {
		t.Fatal("follower exports differ from the leader's")
	}
	if !v.Durable {
		return
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Exports(t, v.Open(t, fdir, Config{})); !equalStrings(got, want) {
		t.Fatal("recovered follower exports differ from the leader's")
	}
}

// TestPrepareObservesLatency checks that resolving a statement to its plan
// is timed on every path that prepares one.
func TestPrepareObservesLatency(t *testing.T) { ForEachVariant(t, testPrepareObservesLatency) }

func testPrepareObservesLatency(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	count := func() int64 { return histCount(kb.Metrics(), mPrepareSeconds, "") }
	if count() != 0 {
		t.Fatalf("prepare histogram count before any statement = %d", count())
	}
	exec(t, kb, "CREATE (:N)")
	if _, err := kb.QueryInHub(v.LastHub(), "MATCH (n:N) RETURN count(n)", nil); err != nil {
		t.Fatal(err)
	}
	queryInt(t, kb, "MATCH (n:N) RETURN count(n)")
	if _, err := kb.ExplainQuery("MATCH (n:N) RETURN n"); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 4 {
		t.Fatalf("prepare histogram count = %d, want 4 (execute, hub query, query, explain)", got)
	}
}
