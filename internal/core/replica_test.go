package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
	"repro/internal/wal"
)

// replicaSnapshot exports the leader's pinned bootstrap view, as the
// replication leader's snapshot handler does.
func replicaSnapshot(t *testing.T, kb *core.KnowledgeBase) ([]byte, uint64) {
	t.Helper()
	view, seq, err := kb.ReplicaSnapshotView()
	if err != nil {
		t.Fatalf("ReplicaSnapshotView: %v", err)
	}
	defer view.Rollback()
	var buf bytes.Buffer
	if err := view.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes(), seq
}

// pullRecords drains every durable record after seq from the leader's log.
func pullRecords(t *testing.T, kb *core.KnowledgeBase, after uint64) []*wal.Record {
	t.Helper()
	cur := kb.WAL().Cursor(after)
	defer cur.Close()
	var out []*wal.Record
	for {
		recs, err := cur.Next(0)
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if len(recs) == 0 {
			return out
		}
		out = append(out, recs...)
	}
}

func leaderWrite(t *testing.T, kb *core.KnowledgeBase, i int) {
	t.Helper()
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Doc"}, map[string]value.Value{"i": value.Int(int64(i))})
		return err
	}); err != nil {
		t.Fatalf("leader write: %v", err)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	fol := core.NewFollower(core.Config{})
	if fol.Role() != "follower" || !fol.Follower() {
		t.Fatalf("role = %q", fol.Role())
	}
	if _, err := fol.Execute("CREATE (:X)", nil); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("Execute on follower: %v, want ErrFollower", err)
	}
	if err := fol.StartAsync(core.AsyncOptions{}); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("StartAsync on follower: %v, want ErrFollower", err)
	}
	// Reads are fine.
	if _, err := fol.Query("MATCH (n) RETURN count(n)", nil); err != nil {
		t.Fatalf("Query on follower: %v", err)
	}
}

func TestInMemoryFollowerBootstrapAndApply(t *testing.T) {
	leader, _ := openDurableKB(t, t.TempDir())
	for i := 0; i < 5; i++ {
		leaderWrite(t, leader, i)
	}
	snap, seq := replicaSnapshot(t, leader)
	if seq != 5 {
		t.Fatalf("snapshot seq = %d, want 5", seq)
	}

	fol := core.NewFollower(core.Config{})
	if err := fol.BootstrapReplica(strings.NewReader(string(snap)), seq); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if got := fol.ReplicaAppliedSeq(); got != seq {
		t.Fatalf("applied seq after bootstrap = %d, want %d", got, seq)
	}

	for i := 5; i < 12; i++ {
		leaderWrite(t, leader, i)
	}
	recs := pullRecords(t, leader, seq)
	if len(recs) != 7 {
		t.Fatalf("pulled %d records, want 7", len(recs))
	}
	if err := fol.ApplyReplicated(recs); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got, want := saveGraph(t, fol), saveGraph(t, leader); got != want {
		t.Fatalf("follower export differs from leader:\n%s\nvs\n%s", got, want)
	}
	if got := fol.ReplicaAppliedSeq(); got != leader.WAL().LastSeq() {
		t.Fatalf("applied seq = %d, want %d", got, leader.WAL().LastSeq())
	}

	// Non-contiguous batches are refused outright.
	if err := fol.ApplyReplicated(recs); err == nil {
		t.Fatal("re-applying an old batch succeeded")
	}
}

// TestDurableFollowerCursorNeverAheadOfReads: a durable follower's apply
// cursor covers only records whose effects a read already sees, so a caller
// that waits for the cursor and then reads finds everything up to it.
func TestDurableFollowerCursorNeverAheadOfReads(t *testing.T) {
	leader, _ := openDurableKB(t, t.TempDir())
	for i := 0; i < 200; i++ {
		leaderWrite(t, leader, i)
	}
	recs := pullRecords(t, leader, 0)
	fol, _, err := core.OpenFollowerDurable(t.TempDir(), core.Config{}, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	done := make(chan error, 1)
	go func() {
		for _, rec := range recs {
			if err := fol.ApplyReplicated([]*wal.Record{rec}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for applied := false; !applied; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			applied = true // one last check below, at the final cursor
		default:
		}
		seq := fol.ReplicaAppliedSeq()
		res, err := fol.Query("MATCH (d:Doc) RETURN count(d) AS n", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every leader record creates one Doc.
		if n, _ := res.Rows[0][0].AsInt(); uint64(n) < seq {
			t.Fatalf("cursor at %d but a read sees %d docs", seq, n)
		}
	}
	if got, want := fol.ReplicaAppliedSeq(), recs[len(recs)-1].Seq; got != want {
		t.Fatalf("cursor = %d after applying every record, want %d", got, want)
	}
}

func TestDurableFollowerSeedApplyRestart(t *testing.T) {
	leader, _ := openDurableKB(t, t.TempDir())
	for i := 0; i < 6; i++ {
		leaderWrite(t, leader, i)
	}
	snap, seq := replicaSnapshot(t, leader)

	fdir := t.TempDir()
	if err := wal.SeedSnapshot(fdir, seq, snap); err != nil {
		t.Fatalf("seed: %v", err)
	}
	fol, info, err := core.OpenFollowerDurable(fdir, core.Config{}, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("OpenFollowerDurable: %v", err)
	}
	if info.SnapshotSeq != seq || fol.ReplicaAppliedSeq() != seq {
		t.Fatalf("recovered seq %d/%d, want %d", info.SnapshotSeq, fol.ReplicaAppliedSeq(), seq)
	}
	if _, err := fol.Execute("CREATE (:X)", nil); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("durable follower accepted a write: %v", err)
	}

	for i := 6; i < 10; i++ {
		leaderWrite(t, leader, i)
	}
	if err := fol.ApplyReplicated(pullRecords(t, leader, fol.ReplicaAppliedSeq())); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got, want := saveGraph(t, fol), saveGraph(t, leader); got != want {
		t.Fatal("follower export differs from leader after apply")
	}
	cursorBefore := fol.ReplicaAppliedSeq()
	if err := fol.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart resumes at the durable cursor; no re-bootstrap, no re-apply.
	fol2, info2, err := core.OpenFollowerDurable(fdir, core.Config{}, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fol2.Close()
	if fol2.ReplicaAppliedSeq() != cursorBefore {
		t.Fatalf("restart cursor %d, want %d", fol2.ReplicaAppliedSeq(), cursorBefore)
	}
	if info2.RecordsReplayed != 4 {
		t.Fatalf("replayed %d records, want 4", info2.RecordsReplayed)
	}
	if got, want := saveGraph(t, fol2), saveGraph(t, leader); got != want {
		t.Fatal("follower export differs from leader after restart")
	}

	// And continues applying fresh leader records.
	leaderWrite(t, leader, 10)
	if err := fol2.ApplyReplicated(pullRecords(t, leader, fol2.ReplicaAppliedSeq())); err != nil {
		t.Fatalf("apply after restart: %v", err)
	}
	if got, want := saveGraph(t, fol2), saveGraph(t, leader); got != want {
		t.Fatal("follower export differs after post-restart apply")
	}
}

func TestReplicaSnapshotPairsWithTail(t *testing.T) {
	leader, _ := openDurableKB(t, t.TempDir())
	for i := 0; i < 3; i++ {
		leaderWrite(t, leader, i)
	}
	view, seq, err := leader.ReplicaSnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Rollback()
	// Records committed after the view must all carry sequence numbers
	// above seq — the snapshot/tail split is exact.
	leaderWrite(t, leader, 3)
	recs := pullRecords(t, leader, seq)
	if len(recs) != 1 || recs[0].Seq != seq+1 {
		t.Fatalf("tail after snapshot: %d records, first seq %d; want 1 record at %d",
			len(recs), recs[0].Seq, seq+1)
	}
	// The pinned view itself does not see the later write.
	if n := len(view.NodesByLabel("Doc")); n != 3 {
		t.Fatalf("pinned view sees %d Doc nodes, want 3", n)
	}
}
