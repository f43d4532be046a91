package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/wal"
)

// This file is the knowledge-base half of WAL-shipping replication (see
// internal/replica for the wire protocol). A follower knowledge base is a
// read-only mirror: its shards reject ordinary writes with a typed error,
// and the only mutations it accepts are leader records applied in leader
// order, one shard's stream at a time, through ApplyReplicated, which
// mirrors them into the follower's own write-ahead log with the leader's
// sequence numbers preserved. A shard log's LastSeq therefore IS that
// shard's durable apply cursor — a restart recovers the graph by the
// ordinary replay path and resumes streaming from exactly the next record.

// ErrFollower is returned by write operations on a follower knowledge base.
// Writes belong on the leader; followers serve reads at bounded staleness.
var ErrFollower = errors.New("core: knowledge base is a replication follower (read-only)")

// ErrReplicaDiverged marks a follower whose in-memory graph and local log no
// longer agree (a partial batch apply failed mid-way). The durable state is
// still consistent — the log is authoritative and a restart replays it — but
// the running process must not apply further records.
var ErrReplicaDiverged = errors.New("core: replica diverged in memory; restart to recover from the local log")

// NewFollower creates an empty in-memory one-shard follower knowledge base:
// reads work as usual, ordinary writes fail with ErrFollower, and state
// arrives only via BootstrapReplica and ApplyReplicated. An in-memory
// follower keeps its apply cursor in memory too, so every restart
// re-bootstraps.
func NewFollower(cfg Config) *KnowledgeBase {
	kb, _, err := open("", cfg, nil, wal.Options{}, true)
	if err != nil {
		panic(err) // one in-memory shard and no hub declarations cannot fail
	}
	return kb
}

// OpenFollowerDurable opens (or creates) a durable one-shard follower
// knowledge base under dir. Unlike OpenDurable it installs no commit hook —
// the apply path appends the leader's records itself, preserving leader
// sequence numbers — and flips the store into follower mode. Recovery is
// the ordinary replay path: the recovered info.LastSeq is the apply cursor
// to resume from. A fresh directory can be pre-seeded with a leader
// snapshot via wal.SeedSnapshot before calling this.
func OpenFollowerDurable(dir string, cfg Config, wopts wal.Options) (*KnowledgeBase, *wal.RecoveryInfo, error) {
	kb, infos, err := open(dir, cfg, nil, wopts, true)
	if err != nil {
		return nil, nil, err
	}
	return kb, infos[0], nil
}

// Follower reports whether this knowledge base is a replication follower.
func (kb *KnowledgeBase) Follower() bool { return kb.follower }

// Role names the knowledge base's replication role for status surfaces.
func (kb *KnowledgeBase) Role() string {
	if kb.follower {
		return "follower"
	}
	return "leader"
}

// ReplicaAppliedSeq returns a follower shard's durable apply cursor: the
// leader sequence number of the last record of that shard's stream applied
// (and, for a durable follower, persisted). Reads already see every record
// up to it. Streaming resumes at the next record.
func (kb *KnowledgeBase) ReplicaAppliedSeq(shard int) uint64 {
	return kb.replicaSeqs[shard].Load()
}

// BootstrapReplica loads a leader snapshot (a graph Export document covering
// leader records up to and including seq) into an empty in-memory follower
// and positions the apply cursor at seq. Durable followers bootstrap on disk
// instead: wal.SeedSnapshot before OpenFollowerDurable.
func (kb *KnowledgeBase) BootstrapReplica(r io.Reader, seq uint64) error {
	if !kb.follower {
		return errors.New("core: BootstrapReplica on a leader knowledge base")
	}
	if kb.wal != nil {
		return errors.New("core: durable followers bootstrap via wal.SeedSnapshot before open")
	}
	if err := kb.single("BootstrapReplica"); err != nil {
		return err
	}
	if err := kb.Store().Import(r); err != nil {
		return err
	}
	kb.replicaSeqs[0].Store(seq)
	return nil
}

// ApplyReplicated applies a contiguous batch of one leader shard's records,
// which must start exactly at ReplicaAppliedSeq(shard)+1, in one
// transaction on that shard: the records are replayed into the graph,
// mirrored into the follower's own log with leader sequence numbers
// preserved, committed, and made durable with a single group-commit wait.
// On success the shard's apply cursor has advanced past the batch. Each
// shard's stream replicates independently; bridge records need no special
// handling — each stream carries its own shard's half of every bridge.
//
// Errors before anything reached the local log are clean: the transaction
// rolls back and the same batch can simply be retried. An error after some
// records were appended wraps ErrReplicaDiverged — the log (authoritative)
// is ahead of the in-memory graph, so the process must stop applying and be
// restarted, at which point ordinary recovery replays the log and streaming
// resumes seamlessly.
func (kb *KnowledgeBase) ApplyReplicated(shard int, recs []*wal.Record) error {
	if !kb.follower {
		return errors.New("core: ApplyReplicated on a leader knowledge base")
	}
	if err := kb.checkShard(shard); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	want := kb.ReplicaAppliedSeq(shard) + 1
	for i, rec := range recs {
		if rec.Seq != want+uint64(i) {
			return fmt.Errorf("core: shard %d replicated batch not contiguous: record %d has seq %d, want %d",
				shard, i, rec.Seq, want+uint64(i))
		}
	}
	tx := kb.store.Shard(shard).BeginApply()
	for _, rec := range recs {
		if err := wal.ApplyRecord(tx, rec); err != nil {
			tx.Rollback()
			return fmt.Errorf("core: shard %d apply record %d: %w", shard, rec.Seq, err)
		}
	}
	var l *wal.Log
	if kb.wal != nil {
		l = kb.wal.Log(shard)
	}
	appended := 0
	if l != nil {
		for i, rec := range recs {
			if err := l.AppendReplicated(rec); err != nil {
				tx.Rollback()
				if i > 0 {
					return fmt.Errorf("core: shard %d mirror record %d: %v: %w", shard, rec.Seq, err, ErrReplicaDiverged)
				}
				return fmt.Errorf("core: shard %d mirror record %d: %w", shard, rec.Seq, err)
			}
			appended = i + 1
		}
	}
	if err := tx.Commit(); err != nil {
		if appended > 0 {
			return fmt.Errorf("core: shard %d commit replicated batch: %v: %w", shard, err, ErrReplicaDiverged)
		}
		return fmt.Errorf("core: shard %d commit replicated batch: %w", shard, err)
	}
	last := recs[len(recs)-1].Seq
	if l != nil {
		if err := l.WaitDurable(last); err != nil {
			return fmt.Errorf("core: shard %d replicated batch durability: %v: %w", shard, err, ErrReplicaDiverged)
		}
	}
	kb.replicaSeqs[shard].Store(last)
	return nil
}

// ReplicaSnapshotView pins a read-only view of the committed graph together
// with the exact log position it covers, for serving follower bootstrap
// snapshots: every record at or below the returned sequence number is in the
// view, every later commit is in the log tail, and the log has been synced
// so a cursor positioned at the sequence number can stream the rest. The
// caller must Rollback the view.
func (kb *KnowledgeBase) ReplicaSnapshotView() (*graph.Tx, uint64, error) {
	if kb.wal == nil {
		return nil, 0, ErrNotDurable
	}
	if err := kb.single("ReplicaSnapshotView"); err != nil {
		return nil, 0, err
	}
	l := kb.WAL()
	var seq uint64
	view, err := kb.Store().SnapshotView(func() error {
		if err := l.Sync(); err != nil {
			return err
		}
		seq = l.LastSeq()
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return view, seq, nil
}
