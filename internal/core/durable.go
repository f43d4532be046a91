package core

import (
	"bytes"
	"errors"

	"repro/internal/graph"
	"repro/internal/wal"
)

// ErrNotDurable is returned by durability operations on an in-memory
// knowledge base.
var ErrNotDurable = errors.New("core: knowledge base is not durable")

// OpenDurable opens (or creates) a knowledge base whose graph is persisted
// under dir: committed transactions append to a write-ahead log, Checkpoint
// compacts the log into a snapshot, and OpenDurable itself recovers the
// pre-crash committed state by replaying the newest snapshot and then the
// log, stopping at (and discarding) a torn tail.
//
// Recovery replays raw graph changes with rule triggering suppressed:
// alerts and other rule effects produced before the crash were committed
// transactions themselves and are therefore already in the log. Rules,
// schemas, hubs and indexes are configuration, not data — the caller
// re-installs them after OpenDurable returns, exactly as with New, and only
// transactions committed after that are logged.
func OpenDurable(dir string, cfg Config, wopts wal.Options) (*KnowledgeBase, *wal.RecoveryInfo, error) {
	kb, infos, err := open(dir, cfg, nil, wopts, false)
	if err != nil {
		return nil, nil, err
	}
	return kb, infos[0], nil
}

// attachWAL makes the recovered logs the knowledge base's own: their
// metrics are wired, and unless the knowledge base is a follower — whose
// apply path appends the leader's records itself, preserving leader
// sequence numbers — every shard gets the commit hook that logs its
// transactions.
func (kb *KnowledgeBase) attachWAL(set *wal.ShardSet, policy wal.FsyncPolicy, infos []*wal.RecoveryInfo) {
	kb.wal = set
	kb.wireWALMetrics(policy, infos)
	if kb.follower {
		return
	}
	for i := 0; i < set.NumShards(); i++ {
		l := set.Log(i)
		kb.store.Shard(i).SetCommitHook(func(tx *graph.Tx) error {
			rec := wal.RecordFromTx(tx)
			if rec == nil {
				return nil
			}
			// Append under the write lock (the log record order must match
			// the commit order), but defer the durability wait until the
			// snapshot is published and the lock released: concurrent
			// committers then share one batched fsync instead of each paying
			// their own (group commit).
			seq, err := l.AppendAsync(rec)
			if err != nil {
				return err
			}
			return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
		})
	}
}

// Durable reports whether the knowledge base persists to write-ahead logs.
func (kb *KnowledgeBase) Durable() bool { return kb.wal != nil }

// WAL exposes the write-ahead log of a durable one-shard knowledge base
// (shard 0's log of a larger one; see WALSet), nil for in-memory ones;
// tests and diagnostics use it.
func (kb *KnowledgeBase) WAL() *wal.Log {
	if kb.wal == nil {
		return nil
	}
	return kb.wal.Log(0)
}

// WALSet exposes the per-shard write-ahead logs (nil for in-memory).
func (kb *KnowledgeBase) WALSet() *wal.ShardSet { return kb.wal }

// Checkpoint snapshots every shard at one cross-shard-consistent cut and
// compacts each shard's log down to it. The logs are cut inside a
// BarrierView — all shard locks taken in ascending order, like a bridge,
// and commits quiesced for exactly that instant — so each pinned snapshot
// and its log position agree: every record up to the cut is in the
// snapshot, every later commit stays in the log. The exports and the disk
// I/O then run on the pinned (immutable) snapshots with the locks released,
// so writers wait only for the cut, never for the serialization or the
// disk.
//
// The SyncAll before compaction is a correctness requirement, not an
// optimization: a bridge's commit record (in the lower shard's stream) may
// only be compacted away once the higher shard durably holds the matching
// BridgeDone marker — otherwise a crash could leave a prepare with no
// surviving evidence of commitment. Any marker at or below the cut was
// appended before the barrier (bridges hold both locks through the marker
// append), so one SyncAll here durably covers them all. With one shard
// there are no markers and the logs were just cut, so it finds nothing to
// flush.
func (kb *KnowledgeBase) Checkpoint() error {
	if kb.wal == nil {
		return ErrNotDurable
	}
	kb.ckptMu.Lock()
	defer kb.ckptMu.Unlock()
	n := kb.store.NumShards()
	seqs := make([]uint64, n)
	view, err := kb.store.BarrierView(func() error {
		for i := 0; i < n; i++ {
			seq, err := kb.wal.Log(i).Cut()
			if err != nil {
				return err
			}
			seqs[i] = seq
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer view.Rollback()
	if err := kb.wal.SyncAll(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := kb.installSnapshot(i, view.ShardTx(i), seqs[i]); err != nil {
			return err
		}
	}
	return nil
}

// installSnapshot exports a pinned view of shard i covering its log up to
// seq and compacts that log down to it.
func (kb *KnowledgeBase) installSnapshot(i int, view *graph.Tx, seq uint64) error {
	var buf bytes.Buffer
	if err := view.Export(&buf); err != nil {
		return err
	}
	return kb.wal.Log(i).Checkpoint(seq, buf.Bytes())
}

// Close stops the async alert pipeline (in-flight evaluations finish,
// pending entries stay queued for the next open), then flushes and closes
// the write-ahead logs. It does not checkpoint; callers wanting a compact
// restart run Checkpoint first. Closing an in-memory knowledge base only
// stops the pipeline.
func (kb *KnowledgeBase) Close() error {
	kb.StopAsync()
	if kb.wal == nil {
		return nil
	}
	return kb.wal.Close()
}
