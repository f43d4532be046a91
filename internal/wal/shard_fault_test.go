package wal

// Fault injection for the two-shard bridge commit protocol: a workload with
// a cross-shard bridge transaction is committed under FsyncAlways, then the
// shard directory tree is copied and mutilated to the exact file states a
// crash could leave at each stage of AppendBridge — prepare durable but
// commit lost, commit durable but prepare lost, both durable but the done
// marker lost — and recovery must land on the committed outcome every time:
// an aborted bridge leaves no trace, a committed bridge is applied exactly
// once (reconciled from the embedded copy when the prepare was torn away),
// and two recoveries of the same crash image export byte-identical shards.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// copyTree copies a shard directory tree (one level of subdirectories).
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Fatalf("unexpected file %s at shard-set root", e.Name())
		}
		sub := filepath.Join(dst, e.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, e.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// shardHarness is a sharded store wired to a ShardSet the way
// core.OpenShardedDurable wires them.
type shardHarness struct {
	t     *testing.T
	dir   string
	set   *ShardSet
	ss    *graph.ShardedStore
	infos []*RecoveryInfo
}

func openShardHarness(t *testing.T, dir string, n int, opts Options) *shardHarness {
	t.Helper()
	set, stores, infos, err := OpenShardSet(dir, n, opts)
	if err != nil {
		t.Fatalf("OpenShardSet: %v", err)
	}
	ss, err := graph.AttachShards(stores)
	if err != nil {
		t.Fatalf("AttachShards: %v", err)
	}
	for i := 0; i < n; i++ {
		l := set.Log(i)
		ss.Shard(i).SetCommitHook(func(tx *graph.Tx) error {
			rec := RecordFromTx(tx)
			if rec == nil {
				return nil
			}
			seq, err := l.AppendAsync(rec)
			if err != nil {
				return err
			}
			return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
		})
	}
	h := &shardHarness{t: t, dir: dir, set: set, ss: ss, infos: infos}
	t.Cleanup(func() { _ = set.Close() })
	return h
}

func (h *shardHarness) update(shard int, fn func(tx *graph.Tx) error) {
	h.t.Helper()
	if err := h.ss.Update(shard, fn); err != nil {
		h.t.Fatalf("update shard %d: %v", shard, err)
	}
}

// bridge commits fn through the two-shard protocol, sealing with
// AppendBridge exactly like core's sealBridge.
func (h *shardHarness) bridge(a, b int, fn func(bt *graph.BridgeTx) error) {
	h.t.Helper()
	bt, err := h.ss.BeginBridge(a, b)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := fn(bt); err != nil {
		bt.Rollback()
		h.t.Fatal(err)
	}
	lo, hi := bt.Shards()
	err = bt.Commit(func(loTx, hiTx *graph.Tx) error {
		loRec, hiRec := RecordFromTx(loTx), RecordFromTx(hiTx)
		committed, err := h.set.AppendBridge(lo, hi, loRec, hiRec)
		if err != nil && !committed {
			return err
		}
		return err
	})
	if err != nil {
		h.t.Fatalf("bridge commit: %v", err)
	}
}

func (h *shardHarness) export(shard int) string {
	h.t.Helper()
	var b strings.Builder
	if err := h.ss.Shard(shard).Export(&b); err != nil {
		h.t.Fatalf("export shard %d: %v", shard, err)
	}
	return b.String()
}

func (h *shardHarness) exports(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = h.export(i)
	}
	return out
}

func (h *shardHarness) close() {
	h.t.Helper()
	if err := h.set.Close(); err != nil {
		h.t.Fatal(err)
	}
}

// buildBridgeWorkload commits two intra-shard transactions per shard and
// then one bridge transaction between shards 0 and 1, returning the
// per-shard exports before and after the bridge.
func buildBridgeWorkload(t *testing.T, h *shardHarness) (pre, post []string) {
	t.Helper()
	ends := make([]graph.NodeID, 2)
	for s := 0; s < 2; s++ {
		s := s
		for i := 0; i < 2; i++ {
			i := i
			h.update(s, func(tx *graph.Tx) error {
				id, err := tx.CreateNode([]string{"Event"}, map[string]value.Value{
					"shard": value.Int(int64(s)), "i": value.Int(int64(i)),
				})
				ends[s] = id
				return err
			})
		}
	}
	pre = h.exports(2)
	h.bridge(0, 1, func(bt *graph.BridgeTx) error {
		a, err := bt.CreateNodeIn(0, []string{"Span"}, nil)
		if err != nil {
			return err
		}
		b, err := bt.CreateNodeIn(1, []string{"Span"}, nil)
		if err != nil {
			return err
		}
		if _, err := bt.CreateRel(a, b, "BRIDGES", map[string]value.Value{"w": value.Int(7)}); err != nil {
			return err
		}
		// A shard-local side effect inside the bridge, so each half carries
		// more than the bridge rel itself.
		return bt.SetNodeProp(ends[0], "bridged", value.Bool(true))
	})
	return pre, h.exports(2)
}

// segOffsets locates shard i's single segment and the frame offsets within.
func segOffsets(t *testing.T, dir string, shard int) (path string, offs []int64, size int64) {
	t.Helper()
	sdir := ShardDir(dir, shard)
	segs := listFiles(t, sdir, segSuffix)
	if len(segs) != 1 {
		t.Fatalf("shard %d segments = %v, want one", shard, segs)
	}
	path = filepath.Join(sdir, segs[0])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, frameOffsets(t, path), st.Size()
}

// TestBridgeCrashStages mutilates a crash image at each stage of the
// two-shard commit protocol and checks each recovery outcome.
func TestBridgeCrashStages(t *testing.T) {
	dir := t.TempDir()
	h := openShardHarness(t, dir, 2, Options{Fsync: FsyncAlways})
	pre, post := buildBridgeWorkload(t, h)
	h.close()

	// Stream shapes: shard 0 (lo) holds [intra, intra, bridge commit];
	// shard 1 (hi) holds [intra, intra, bridge prepare, done marker].
	_, loOffs, _ := segOffsets(t, dir, 0)
	if len(loOffs) != 3 {
		t.Fatalf("lo stream has %d records, want 3", len(loOffs))
	}
	_, hiOffs, _ := segOffsets(t, dir, 1)
	if len(hiOffs) != 4 {
		t.Fatalf("hi stream has %d records, want 4", len(hiOffs))
	}

	// Crash after the prepare fsync, before the commit record reached disk:
	// the lo stream misses the commit, the hi stream misses the done marker
	// (it is only appended after the commit is durable). The bridge never
	// committed — recovery must skip the dangling prepare.
	t.Run("commit-lost", func(t *testing.T) {
		crash := copyTree(t, dir)
		loSeg, loOffs, _ := segOffsets(t, crash, 0)
		hiSeg, hiOffs, _ := segOffsets(t, crash, 1)
		if err := os.Truncate(loSeg, loOffs[2]); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(hiSeg, hiOffs[3]); err != nil {
			t.Fatal(err)
		}
		h2 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if got := h2.export(s); got != pre[s] {
				t.Fatalf("shard %d: aborted bridge left a trace in recovered state", s)
			}
		}
		if h2.infos[1].PreparesAborted != 1 {
			t.Fatalf("hi PreparesAborted = %d, want 1", h2.infos[1].PreparesAborted)
		}
		if h2.infos[0].RecordsReplayed != 2 || h2.infos[1].RecordsReplayed != 2 {
			t.Fatalf("replayed = (%d, %d), want (2, 2)",
				h2.infos[0].RecordsReplayed, h2.infos[1].RecordsReplayed)
		}
		// The set must keep working: a fresh bridge after recovery survives
		// another round trip.
		h2.bridge(0, 1, func(bt *graph.BridgeTx) error {
			a, err := bt.CreateNodeIn(0, []string{"Retry"}, nil)
			if err != nil {
				return err
			}
			b, err := bt.CreateNodeIn(1, []string{"Retry"}, nil)
			if err != nil {
				return err
			}
			_, err = bt.CreateRel(a, b, "BRIDGES", nil)
			return err
		})
		want := h2.exports(2)
		h2.close()
		h3 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if got := h3.export(s); got != want[s] {
				t.Fatalf("shard %d: post-crash bridge lost on second recovery", s)
			}
		}
	})

	// Crash that tears the prepare out of the hi stream while the commit
	// record survives in lo: the bridge committed, so recovery must reapply
	// the hi half from the commit record's embedded copy — exactly once,
	// with the repair itself durable across further recoveries.
	t.Run("prepare-lost", func(t *testing.T) {
		crash := copyTree(t, dir)
		hiSeg, hiOffs, _ := segOffsets(t, crash, 1)
		if err := os.Truncate(hiSeg, hiOffs[2]); err != nil {
			t.Fatal(err)
		}
		h2 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if got := h2.export(s); got != post[s] {
				t.Fatalf("shard %d: recovered state differs from committed bridge state", s)
			}
		}
		if h2.infos[1].BridgesReconciled != 1 {
			t.Fatalf("BridgesReconciled = %d, want 1", h2.infos[1].BridgesReconciled)
		}
		h2.close()
		// Second recovery: the reconcile record replays as the hi half; no
		// second reconciliation, identical bytes (exactly-once application).
		h3 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if got := h3.export(s); got != post[s] {
				t.Fatalf("shard %d: second recovery diverged", s)
			}
		}
		if h3.infos[1].BridgesReconciled != 0 {
			t.Fatalf("second recovery reconciled %d bridges, want 0",
				h3.infos[1].BridgesReconciled)
		}
	})

	// Crash between the commit fsync and the done-marker append: both halves
	// are durable, only the compaction license is missing. Recovery replays
	// normally and repairs the marker.
	t.Run("done-marker-lost", func(t *testing.T) {
		crash := copyTree(t, dir)
		hiSeg, hiOffs, _ := segOffsets(t, crash, 1)
		if err := os.Truncate(hiSeg, hiOffs[3]); err != nil {
			t.Fatal(err)
		}
		h2 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if got := h2.export(s); got != post[s] {
				t.Fatalf("shard %d: recovered state differs from committed bridge state", s)
			}
		}
		if h2.infos[1].BridgesReconciled != 0 || h2.infos[1].PreparesAborted != 0 {
			t.Fatalf("info = %+v, want plain replay", h2.infos[1])
		}
		h2.close()
		// The repaired marker must now be durable in the hi stream.
		if !hiStreamHasDoneMarker(t, crash, 3) {
			t.Fatal("done marker not repaired in the hi stream")
		}
	})
}

// hiStreamHasDoneMarker reports whether shard 1's stream holds a durable
// done or reconcile marker for the given prepare sequence.
func hiStreamHasDoneMarker(t *testing.T, dir string, prepSeq uint64) bool {
	t.Helper()
	sdir := ShardDir(dir, 1)
	for _, name := range listFiles(t, sdir, segSuffix) {
		res, err := scanSegment(filepath.Join(sdir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.records {
			if b := rec.Bridge; b != nil && b.PrepareSeq == prepSeq &&
				(b.Stage == BridgeDone || b.Stage == BridgeReconcile) {
				return true
			}
		}
	}
	return false
}

// TestBridgeCommitTornEveryOffset truncates the lo stream at every byte
// offset within the bridge commit record (the hi stream consistently missing
// its done marker, as in a real crash): any partial commit record aborts the
// bridge, the full record commits it, and re-recovering the same image is
// byte-identical in both shards.
func TestBridgeCommitTornEveryOffset(t *testing.T) {
	dir := t.TempDir()
	h := openShardHarness(t, dir, 2, Options{Fsync: FsyncAlways})
	pre, post := buildBridgeWorkload(t, h)
	h.close()

	_, loOffs, loLen := segOffsets(t, dir, 0)
	commitStart := loOffs[2]
	for cut := commitStart; cut <= loLen; cut++ {
		crash := copyTree(t, dir)
		loSeg, _, _ := segOffsets(t, crash, 0)
		hiSeg, hiOffs, _ := segOffsets(t, crash, 1)
		if err := os.Truncate(loSeg, cut); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(hiSeg, hiOffs[3]); err != nil {
			t.Fatal(err)
		}
		want := pre
		if cut == loLen {
			want = post
		}
		h2 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		got := h2.exports(2)
		for s := 0; s < 2; s++ {
			if got[s] != want[s] {
				t.Fatalf("cut at %d/%d: shard %d recovered wrong state", cut, loLen, s)
			}
		}
		h2.close()
		// Recovery is deterministic and repairs are durable: recovering the
		// recovered image again exports byte-identical shards.
		h3 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
		for s := 0; s < 2; s++ {
			if h3.export(s) != got[s] {
				t.Fatalf("cut at %d: shard %d second recovery not byte-identical", cut, s)
			}
		}
		h3.close()
	}
}

// TestShardCheckpointKeepsBridgeEvidence checkpoints the lo shard (compacting
// its commit record away) and then tears the prepare out of the hi stream:
// because checkpoints SyncAll first, the done marker must already be durable
// and the hi shard must still recover the bridge (from marker-licensed
// replay, never by losing it).
func TestShardCheckpointKeepsBridgeEvidence(t *testing.T) {
	dir := t.TempDir()
	h := openShardHarness(t, dir, 2, Options{Fsync: FsyncAlways})
	_, post := buildBridgeWorkload(t, h)

	// Checkpoint shard 0 alone, in the steps core.Checkpoint runs for each
	// shard: cut, SyncAll, export, compact.
	var seq uint64
	view, err := h.ss.Shard(0).SnapshotView(func() error {
		var err error
		seq, err = h.set.Log(0).Cut()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	exportErr := view.Export(&buf)
	view.Rollback()
	if exportErr != nil {
		t.Fatal(exportErr)
	}
	if err := h.set.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := h.set.Log(0).Checkpoint(seq, []byte(buf.String())); err != nil {
		t.Fatal(err)
	}
	h.close()

	// The commit record is compacted out of lo; the hi stream still holds
	// prepare + done. A crash image cannot lose the prepare without a torn
	// tail, which also consumes the done marker that followed it.
	crash := copyTree(t, dir)
	_, hiOffs, _ := segOffsets(t, crash, 1)
	if len(hiOffs) != 4 {
		t.Fatalf("hi stream has %d records, want 4", len(hiOffs))
	}
	h2 := openShardHarness(t, crash, 2, Options{Fsync: FsyncAlways})
	for s := 0; s < 2; s++ {
		if got := h2.export(s); got != post[s] {
			t.Fatalf("shard %d: state lost after lo-only checkpoint", s)
		}
	}
	if h2.infos[0].SnapshotSeq != seq {
		t.Fatalf("lo SnapshotSeq = %d, want %d", h2.infos[0].SnapshotSeq, seq)
	}
	h2.close()
}

// TestConcurrentBridgeRecovery runs many bridge and intra-shard commits
// concurrently, closes cleanly, and checks recovery reproduces every shard
// byte-for-byte — the protocol under contention, not just one staged tx.
func TestConcurrentBridgeRecovery(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	h := openShardHarness(t, dir, shards, Options{Fsync: FsyncAlways})
	done := make(chan error, 2*shards)
	for s := 0; s < shards; s++ {
		s := s
		go func() {
			for i := 0; i < 10; i++ {
				if err := h.ss.Update(s, func(tx *graph.Tx) error {
					_, err := tx.CreateNode([]string{"Intra"}, map[string]value.Value{
						"s": value.Int(int64(s)), "i": value.Int(int64(i)),
					})
					return err
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			peer := (s + 1) % shards
			for i := 0; i < 10; i++ {
				bt, err := h.ss.BeginBridge(s, peer)
				if err == nil {
					var a, b graph.NodeID
					a, err = bt.CreateNodeIn(s, []string{"End"}, nil)
					if err == nil {
						b, err = bt.CreateNodeIn(peer, []string{"End"}, nil)
					}
					if err == nil {
						_, err = bt.CreateRel(a, b, "BRIDGES", nil)
					}
					if err != nil {
						bt.Rollback()
					} else {
						lo, hi := bt.Shards()
						err = bt.Commit(func(loTx, hiTx *graph.Tx) error {
							committed, err := h.set.AppendBridge(lo, hi,
								RecordFromTx(loTx), RecordFromTx(hiTx))
							if err != nil && !committed {
								return err
							}
							return err
						})
					}
				}
				if err != nil {
					done <- fmt.Errorf("bridge %d->%d: %w", s, peer, err)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2*shards; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := h.exports(shards)
	h.close()

	h2 := openShardHarness(t, dir, shards, Options{Fsync: FsyncAlways})
	for s := 0; s < shards; s++ {
		if got := h2.export(s); got != want[s] {
			t.Fatalf("shard %d: recovery differs from pre-close state", s)
		}
	}
	var aborted, reconciled int
	for _, info := range h2.infos {
		aborted += info.PreparesAborted
		reconciled += info.BridgesReconciled
	}
	if aborted != 0 || reconciled != 0 {
		t.Fatalf("clean shutdown recovered with %d aborts, %d reconciles", aborted, reconciled)
	}
}
