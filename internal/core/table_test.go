package core

// Behaviour suites over the constructor table (variants_test.go) that have no
// older single-configuration home: where an alert lands, the synchronous
// queue drain, durable reopen, follower apply, and the prepare-latency
// metric. The rule/cascade, async-pipeline, plan-variant and golden-corpus
// suites run over the same table from core_test.go, async_test.go,
// async_fault_test.go, plan_variants_test.go and golden_parity_test.go.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestRuleFiresInWritingShard checks that a rule's alert materializes
// under the rule's hub and no other, through both the programmatic and the
// Cypher write path. (The name dates from one graph shard per hub.)
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
	rep, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Sequence"}, map[string]value.Value{"id": value.Str("S1")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlertNodes != 1 {
		t.Fatalf("report = %+v, want one alert node", rep)
	}
	if rep := exec(t, kb, "CREATE (:Sequence {id: 'S2'})"); rep.AlertNodes != 1 {
		t.Fatalf("Execute report = %+v", rep)
	}
	for i := 0; i < v.Hubs; i++ {
		want := int64(0)
		if i == v.Hubs-1 {
			want = 2
		}
		res, err := kb.Query("MATCH (a:Alert) WHERE a.hub = $hub RETURN count(a) AS n",
			map[string]value.Value{"hub": value.Str(v.Hub(i))})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res.Rows[0][0].AsInt()
		if got != want {
			t.Errorf("alerts of %s = %d, want %d", v.Hub(i), got, want)
		}
	}
	if n := queryInt(t, kb, "MATCH (s:Sequence) RETURN count(s) AS n"); n != 2 {
		t.Fatalf("sequences = %d, want 2", n)
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

// TestDurableReopen checks that a closed directory reopens to a
// byte-identical export (the inter-hub edge included), that a checkpointed
// directory does too, and that a recovered store resumes identifier
// allocation where the closed one stopped.
func TestDurableReopen(t *testing.T) {
	ForEachDurableVariant(t, func(t *testing.T, v Variant) {
		dir := v.Dir(t)
		kb := v.Open(t, dir, Config{})
		SeedHubs(t, kb, v)
		want := Export(t, kb)
		wantNode, wantRel := counters(kb)
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}

		kb2 := v.Open(t, dir, Config{})
		if got := Export(t, kb2); got != want {
			t.Fatal("recovered export differs from the pre-close one")
		}
		if n, r := counters(kb2); n != wantNode || r != wantRel {
			t.Fatalf("recovered counters (%d, %d), want (%d, %d)", n, r, wantNode, wantRel)
		}
		if err := kb2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		exec(t, kb2, "CREATE (:Doc {after: 'checkpoint'})")
		want = Export(t, kb2)
		if err := kb2.Close(); err != nil {
			t.Fatal(err)
		}

		kb3 := v.Open(t, dir, Config{})
		if got := Export(t, kb3); got != want {
			t.Fatal("export differs after a checkpointed recovery")
		}
	})
}

// counters reads the store's identifier-allocation counters.
func counters(kb *KnowledgeBase) (graph.NodeID, graph.RelID) {
	tx := kb.Store().Begin(graph.ReadOnly)
	defer tx.Rollback()
	return tx.Counters()
}

// TestDurableReopenAfterLoadGraph checks that a graph loaded into a durable
// knowledge base is in its log: a later logged write that refers to loaded
// entities must replay on reopen (LoadGraph used to publish without a log
// record, leaving a directory that no longer opened).
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
		if err := kb.LoadGraph(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
		exec(t, kb, "MATCH (a:A) SET a.k = 2")
		want := Export(t, kb)
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		kb2 := v.Open(t, dir, Config{})
		if got := Export(t, kb2); got != want {
			t.Fatal("recovered export differs from the pre-close one")
		}
	})
}

// TestFollowerApply ships the log of a durable leader to a follower of each
// row's kind and checks the apply contract: contiguous batches only, writes
// refused, exports identical, and a durable follower's mirrored log
// recovers the same state stand-alone.
func TestFollowerApply(t *testing.T) { ForEachVariant(t, testFollowerApply) }

func testFollowerApply(t *testing.T, v Variant) {
	lv := Variant{Name: v.Name + " leader", Hubs: v.Hubs, Durable: true}
	leader := lv.Open(t, lv.Dir(t), Config{})
	SeedHubs(t, leader, v)
	want := Export(t, leader)

	fdir := v.Dir(t)
	fol := v.OpenFollower(t, fdir, Config{})
	if !fol.Follower() || fol.Role() != "follower" {
		t.Fatalf("follower reports Follower()=%v Role()=%q", fol.Follower(), fol.Role())
	}
	if _, err := fol.WriteTx(func(tx *graph.Tx) error { return nil }); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower WriteTx err = %v, want ErrFollower", err)
	}
	if _, err := fol.DrainAsync(); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower DrainAsync err = %v, want ErrFollower", err)
	}
	if err := fol.StartAsync(AsyncOptions{}); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower StartAsync err = %v, want ErrFollower", err)
	}
	if err := leader.ApplyReplicated(nil); err == nil {
		t.Fatal("leader accepted ApplyReplicated")
	}

	// Ship the stream as the replica layer would.
	cur := leader.WAL().Cursor(fol.ReplicaAppliedSeq())
	var recs []*wal.Record
	for {
		batch, err := cur.Next(0)
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		recs = append(recs, batch...)
	}
	cur.Close()
	if len(recs) == 0 {
		t.Fatal("no records to ship")
	}
	if err := fol.ApplyReplicated(recs); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := fol.ReplicaAppliedSeq(); got != recs[len(recs)-1].Seq {
		t.Fatalf("applied seq = %d, want %d", got, recs[len(recs)-1].Seq)
	}
	// Replays of the same batch are rejected as non-contiguous.
	if err := fol.ApplyReplicated(recs); err == nil {
		t.Fatal("duplicate batch accepted")
	}
	if got := Export(t, fol); got != want {
		t.Fatal("follower export differs from the leader's")
	}
	if !v.Durable {
		return
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Export(t, v.Open(t, fdir, Config{})); got != want {
		t.Fatal("recovered follower export differs from the leader's")
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
	queryInt(t, kb, "MATCH (n:N) RETURN count(n)")
	queryInt(t, kb, "MATCH (n:N) RETURN count(n)")
	if _, err := kb.ExplainQuery("MATCH (n:N) RETURN n"); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 4 {
		t.Fatalf("prepare histogram count = %d, want 4 (execute, two queries, explain)", got)
	}
}
