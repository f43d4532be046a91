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
//
// A directory in the hub-sharded layout of earlier versions (one
// shard-NNN/ log stream per hub) is refused with wal.ErrShardedLayout;
// nothing is written to it.
func OpenDurable(dir string, cfg Config, wopts wal.Options) (*KnowledgeBase, *wal.RecoveryInfo, error) {
	return open(dir, cfg, wopts, false)
}

// attachWAL makes the recovered log the knowledge base's own: its metrics
// are wired, and unless the knowledge base is a follower — whose apply path
// appends the leader's records itself, preserving leader sequence numbers —
// the store gets the commit hook that logs its transactions.
func (kb *KnowledgeBase) attachWAL(l *wal.Log, policy wal.FsyncPolicy, info *wal.RecoveryInfo) {
	kb.wal = l
	kb.wireWALMetrics(policy, info)
	if kb.follower {
		return
	}
	kb.store.SetCommitHook(func(tx *graph.Tx) error {
		rec := wal.RecordFromTx(tx)
		if rec == nil {
			return nil
		}
		// Append under the write lock (the log record order must match the
		// commit order), but defer the durability wait until the snapshot
		// is published and the lock released: concurrent committers then
		// share one batched fsync instead of each paying their own (group
		// commit).
		seq, err := l.AppendAsync(rec)
		if err != nil {
			return err
		}
		return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
	})
}

// Durable reports whether the knowledge base persists to a write-ahead log.
func (kb *KnowledgeBase) Durable() bool { return kb.wal != nil }

// WAL exposes the write-ahead log of a durable knowledge base, nil for
// in-memory ones; tests and diagnostics use it.
func (kb *KnowledgeBase) WAL() *wal.Log { return kb.wal }

// Checkpoint snapshots the graph and compacts the log down to it. The log
// is cut inside a SnapshotView — the write lock held for exactly that
// instant — so the pinned snapshot and the log position agree: every record
// up to the cut is in the snapshot, every later commit stays in the log.
// The export and the disk I/O then run on the pinned (immutable) snapshot
// with the lock released, so writers wait only for the cut, never for the
// serialization or the disk.
func (kb *KnowledgeBase) Checkpoint() error {
	if kb.wal == nil {
		return ErrNotDurable
	}
	kb.ckptMu.Lock()
	defer kb.ckptMu.Unlock()
	var seq uint64
	view, err := kb.store.SnapshotView(func() error {
		var err error
		seq, err = kb.wal.Cut()
		return err
	})
	if err != nil {
		return err
	}
	defer view.Rollback()
	var buf bytes.Buffer
	if err := view.Export(&buf); err != nil {
		return err
	}
	return kb.wal.Checkpoint(seq, buf.Bytes())
}

// Close stops the async alert pipeline (in-flight evaluations finish,
// pending entries stay queued for the next open), then flushes and closes
// the write-ahead log. It does not checkpoint; callers wanting a compact
// restart run Checkpoint first. Closing an in-memory knowledge base only
// stops the pipeline.
func (kb *KnowledgeBase) Close() error {
	kb.StopAsync()
	if kb.wal == nil {
		return nil
	}
	return kb.wal.Close()
}
