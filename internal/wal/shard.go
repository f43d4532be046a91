package wal

// Sharded durability: one write-ahead-log stream per graph shard, plus the
// two-stream commit protocol for cross-shard ("knowledge bridge")
// transactions.
//
// A ShardSet is a directory of per-shard subdirectories (shard-000,
// shard-001, ...), each an ordinary Log — same segment framing, same
// snapshots, same group commit, same cursor/streaming API — so intra-shard
// commits are appended, fsynced and compacted fully independently. What the
// set adds is the bridge protocol:
//
//	hi stream:  [prepare: hi's ops]            ... [done: prepareSeq]
//	lo stream:               [commit: lo's ops + embedded copy of hi's ops]
//
// The commit record in the lower-indexed shard's stream is the single
// commit point. It embeds the prepared half verbatim, so every crash
// outcome recovers:
//
//   - prepare durable, commit lost  → the bridge never committed; replay
//     skips the prepare (its effects were never published in memory either,
//     because the engine holds both shard locks until both records are
//     appended).
//   - commit durable, prepare lost  → the bridge committed; recovery
//     replays the embedded copy into the higher shard and logs a durable
//     reconcile record in its stream, so the repair itself survives the
//     next crash.
//   - both durable                  → ordinary replay, each stream
//     independently.
//
// The done marker licenses compaction: the lower stream may only compact a
// commit record once the higher stream durably knows the bridge committed
// (done or reconcile), otherwise a later crash could leave a prepare with
// no surviving evidence of its commit. AppendBridge writes the marker
// before the shard locks are released, recovery repairs any marker lost to
// a crash, and checkpoints call SyncAll before removing segments —
// together these keep the invariant without cross-shard checkpoint
// coordination: each shard still checkpoints and compacts on its own.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// ShardDir returns the log directory of one shard within a sharded data
// directory.
func ShardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// ShardSet is a group of per-shard write-ahead logs sharing one data
// directory, with the two-stream commit protocol for cross-shard
// transactions. Per-shard appends go straight to Log(i); only AppendBridge
// spans streams.
type ShardSet struct {
	logs []*Log
}

// NumShards returns the number of shard streams.
func (s *ShardSet) NumShards() int { return len(s.logs) }

// Log returns shard i's write-ahead log — an ordinary Log: AppendAsync,
// WaitDurable, Cut, Checkpoint and Cursor all work per shard.
func (s *ShardSet) Log(i int) *Log { return s.logs[i] }

// SyncAll forces every shard's buffered appends to stable storage. A
// checkpoint of any one shard must call it before compacting segments, so
// done/reconcile markers referencing the compacted records are durable
// first.
func (s *ShardSet) SyncAll() error {
	for _, l := range s.logs {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard's log.
func (s *ShardSet) Close() error {
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AppendBridge appends a cross-shard transaction to both streams: hiRec
// (the higher-indexed shard's half) as a prepare record in stream hi, then
// loRec extended with an embedded copy of the prepared half as the commit
// record in stream lo. Both shard locks MUST be held by the caller for the
// whole call — the protocol's recovery guarantees depend on nothing else
// entering either stream between the two appends and the done marker.
//
// The returned committed flag tells the caller the transaction's fate: once
// the commit record has been appended, the transaction is committed and any
// later error (a failed durability wait or done-marker append) is reported
// alongside committed=true — the in-memory publication must proceed, exactly
// like a group-commit fsync error on a single-shard commit. With
// committed=false nothing reached the commit point and the caller must roll
// back; a dangling prepare record is harmless (replay skips it).
func (s *ShardSet) AppendBridge(lo, hi int, loRec, hiRec *Record) (committed bool, err error) {
	if lo < 0 || hi >= len(s.logs) || lo >= hi {
		return false, fmt.Errorf("wal: bridge shards (%d, %d) out of range", lo, hi)
	}
	hiRec.Bridge = &BridgeInfo{Stage: BridgePrepare}
	prepSeq, err := s.logs[hi].AppendAsync(hiRec)
	if err != nil {
		return false, fmt.Errorf("wal: bridge prepare: %w", err)
	}
	loRec.Bridge = &BridgeInfo{
		Stage:        BridgeCommit,
		PeerShard:    hi,
		PrepareSeq:   prepSeq,
		PeerOps:      hiRec.Ops,
		PeerNextNode: hiRec.NextNode,
		PeerNextRel:  hiRec.NextRel,
	}
	commitSeq, err := s.logs[lo].AppendAsync(loRec)
	if err != nil {
		return false, fmt.Errorf("wal: bridge commit: %w", err)
	}
	// Commit point passed. Make both records durable — each wait joins its
	// own log's group-commit round, sharing the fsync with whatever
	// intra-shard commits are in flight there — then mark the higher stream.
	if err := s.logs[hi].WaitDurable(prepSeq); err != nil {
		return true, fmt.Errorf("wal: bridge prepare durability: %w", err)
	}
	if err := s.logs[lo].WaitDurable(commitSeq); err != nil {
		return true, fmt.Errorf("wal: bridge commit durability: %w", err)
	}
	done := &Record{Bridge: &BridgeInfo{Stage: BridgeDone, PrepareSeq: prepSeq}}
	if _, err := s.logs[hi].AppendAsync(done); err != nil {
		return true, fmt.Errorf("wal: bridge done marker: %w", err)
	}
	return true, nil
}

// OpenFlat opens dir itself as a one-stream set: the unsharded layout,
// whose segments and snapshots sit at the directory root rather than under
// shard-000/. A single stream carries no bridge records, so recovery is
// exactly Open's.
func OpenFlat(dir string, opts Options) (*ShardSet, []*graph.Store, []*RecoveryInfo, error) {
	l, store, info, err := Open(dir, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return &ShardSet{logs: []*Log{l}}, []*graph.Store{store}, []*RecoveryInfo{info}, nil
}

// OpenShardSet recovers an n-shard data directory: every shard's stream is
// scanned, prepare records are classified against the commit evidence of
// all streams, each shard is replayed independently, and bridge
// transactions whose prepare record was lost are reconciled from the
// embedded copy in their commit record (writing a durable reconcile record
// into the repaired stream). The returned stores hold exactly the committed
// state; identifier counters are NOT yet banded — callers wrap the stores
// with graph.AttachShards, which seeds each shard's allocation band.
func OpenShardSet(dir string, n int, opts Options) (*ShardSet, []*graph.Store, []*RecoveryInfo, error) {
	opts = opts.withDefaults()
	if n < 1 {
		return nil, nil, nil, fmt.Errorf("wal: open shard set: need at least 1 shard, got %d", n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: open shard set: %w", err)
	}

	// Every stream's records are collected before any is replayed: a
	// prepare record can only be classified against all streams' evidence.
	scans := make([]*streamScan, n)
	records := make([][]*Record, n)
	for i := range scans {
		sc, err := scanStream(ShardDir(dir, i), opts, func(_ *streamScan, rec *Record) error {
			records[i] = append(records[i], rec)
			return nil
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wal: open shard %d: %w", i, err)
		}
		scans[i] = sc
	}

	// Commit evidence: a prepare record in shard H at sequence p is
	// committed iff some live stream holds a commit record naming (H, p), or
	// H's own live stream holds a done/reconcile marker for p. Compacted
	// evidence needs no lookup — the compaction invariants guarantee the
	// prepare was compacted (or marked) along with it.
	committed := make([]map[uint64]bool, n)
	for i := range committed {
		committed[i] = make(map[uint64]bool)
	}
	for i := range scans {
		for _, rec := range records[i] {
			b := rec.Bridge
			if b == nil {
				continue
			}
			switch b.Stage {
			case BridgeCommit:
				if b.PeerShard >= 0 && b.PeerShard < n {
					committed[b.PeerShard][b.PrepareSeq] = true
				}
			case BridgeDone, BridgeReconcile:
				committed[i][b.PrepareSeq] = true
			}
		}
	}

	// Independent per-shard replay. An uncommitted prepare is skipped but
	// its sequence number stays consumed: its effects were never published
	// (the engine holds both shard locks until the commit record is
	// appended), so later records cannot depend on it.
	hasEffect := make([]map[uint64]bool, n) // prepare effects present post-replay
	hasMarker := make([]map[uint64]bool, n) // done/reconcile present in stream
	for i := range hasEffect {
		hasEffect[i] = make(map[uint64]bool)
		hasMarker[i] = make(map[uint64]bool)
	}
	for i, sc := range scans {
		for _, rec := range records[i] {
			stage := ""
			if rec.Bridge != nil {
				stage = rec.Bridge.Stage
			}
			switch stage {
			case BridgePrepare:
				if !committed[i][rec.Seq] {
					sc.info.PreparesAborted++
					log.Printf("wal: shard %d: skipping uncommitted bridge prepare (seq %d)", i, rec.Seq)
					continue
				}
				hasEffect[i][rec.Seq] = true
			case BridgeDone:
				hasMarker[i][rec.Bridge.PrepareSeq] = true
				continue // marker only, no ops
			case BridgeReconcile:
				hasEffect[i][rec.Bridge.PrepareSeq] = true
				hasMarker[i][rec.Bridge.PrepareSeq] = true
			}
			if err := sc.replay(rec); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: shard %d: %w", i, err)
			}
		}
	}

	logs := make([]*Log, n)
	for i, sc := range scans {
		logs[i] = newLog(ShardDir(dir, i), opts, sc.info.LastSeq)
	}
	set := &ShardSet{logs: logs}

	// Reconciliation: a live commit record whose peer stream shows neither
	// the prepare's effect (snapshot coverage or replay) nor a marker lost
	// that prepare to a torn tail — reapply the embedded half and log it.
	for i := range scans {
		for _, rec := range records[i] {
			b := rec.Bridge
			if b == nil || b.Stage != BridgeCommit || b.PeerShard < 0 || b.PeerShard >= n {
				continue
			}
			peer := scans[b.PeerShard]
			if b.PrepareSeq <= peer.info.SnapshotSeq || hasEffect[b.PeerShard][b.PrepareSeq] {
				continue
			}
			repair := &Record{
				Ops:      b.PeerOps,
				NextNode: b.PeerNextNode,
				NextRel:  b.PeerNextRel,
				Bridge:   &BridgeInfo{Stage: BridgeReconcile, PrepareSeq: b.PrepareSeq},
			}
			if err := applyToStore(peer.store, repair); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: shard %d: reconcile prepare %d: %w",
					b.PeerShard, b.PrepareSeq, err)
			}
			if _, err := logs[b.PeerShard].AppendAsync(repair); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: shard %d: reconcile prepare %d: %w",
					b.PeerShard, b.PrepareSeq, err)
			}
			hasEffect[b.PeerShard][b.PrepareSeq] = true
			hasMarker[b.PeerShard][b.PrepareSeq] = true
			peer.info.BridgesReconciled++
			peer.info.LastSeq = logs[b.PeerShard].lastSeq
			log.Printf("wal: shard %d: reconciled bridge prepare %d from shard commit record",
				b.PeerShard, b.PrepareSeq)
		}
	}

	// Marker repair: a replayed committed prepare without a done/reconcile
	// marker (the crash hit between the commit fsync and the marker append)
	// gets its marker now, restoring the compaction license.
	for i, sc := range scans {
		for _, rec := range records[i] {
			if rec.Bridge == nil || rec.Bridge.Stage != BridgePrepare {
				continue
			}
			if !committed[i][rec.Seq] || hasMarker[i][rec.Seq] {
				continue
			}
			done := &Record{Bridge: &BridgeInfo{Stage: BridgeDone, PrepareSeq: rec.Seq}}
			if _, err := logs[i].AppendAsync(done); err != nil {
				return nil, nil, nil, fmt.Errorf("wal: shard %d: done marker repair: %w", i, err)
			}
			hasMarker[i][rec.Seq] = true
			sc.info.LastSeq = logs[i].lastSeq
		}
	}
	if err := set.SyncAll(); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: open shard set: %w", err)
	}

	// Background fsync loops start only after recovery appends are durable.
	for _, l := range logs {
		l.startSyncLoop()
	}

	stores := make([]*graph.Store, n)
	infos := make([]*RecoveryInfo, n)
	for i, sc := range scans {
		stores[i], infos[i] = sc.store, sc.info
	}
	return set, stores, infos, nil
}
