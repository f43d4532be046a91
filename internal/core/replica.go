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
// read-only mirror: its store rejects ordinary writes with a typed error,
// and the only mutations it accepts are leader records applied in leader
// order through ApplyReplicated, which mirrors them into the follower's own
// write-ahead log with the leader's sequence numbers preserved. The log's
// LastSeq therefore IS the durable apply cursor — a restart recovers the
// graph by the ordinary replay path and resumes streaming from exactly the
// next record.

// ErrFollower is returned by write operations on a follower knowledge base.
// Writes belong on the leader; followers serve reads at bounded staleness.
var ErrFollower = errors.New("core: knowledge base is a replication follower (read-only)")

// ErrReplicaDiverged marks a follower whose in-memory graph and local log no
// longer agree (a partial batch apply failed mid-way). The durable state is
// still consistent — the log is authoritative and a restart replays it — but
// the running process must not apply further records.
var ErrReplicaDiverged = errors.New("core: replica diverged in memory; restart to recover from the local log")

// NewFollower creates an empty in-memory follower knowledge base:
// reads work as usual, ordinary writes fail with ErrFollower, and state
// arrives only via BootstrapReplica and ApplyReplicated. An in-memory
// follower keeps its apply cursor in memory too, so every restart
// re-bootstraps.
func NewFollower(cfg Config) *KnowledgeBase {
	kb, _, err := open("", cfg, wal.Options{}, true)
	if err != nil {
		panic(err) // an in-memory store cannot fail to open
	}
	return kb
}

// OpenFollowerDurable opens (or creates) a durable follower
// knowledge base under dir. Unlike OpenDurable it installs no commit hook —
// the apply path appends the leader's records itself, preserving leader
// sequence numbers — and flips the store into follower mode. Recovery is
// the ordinary replay path: the recovered info.LastSeq is the apply cursor
// to resume from. A fresh directory can be pre-seeded with a leader
// snapshot via wal.SeedSnapshot before calling this.
func OpenFollowerDurable(dir string, cfg Config, wopts wal.Options) (*KnowledgeBase, *wal.RecoveryInfo, error) {
	return open(dir, cfg, wopts, true)
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

// ReplicaAppliedSeq returns a follower's durable apply cursor: the leader
// sequence number of the last record applied (and, for a durable follower,
// persisted). Reads already see every record up to it. Streaming resumes at
// the next record.
func (kb *KnowledgeBase) ReplicaAppliedSeq() uint64 {
	return kb.replicaSeq.Load()
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
	if err := kb.store.Import(r); err != nil {
		return err
	}
	kb.replicaSeq.Store(seq)
	return nil
}

// ApplyReplicated applies a contiguous batch of leader records, which must
// start exactly at ReplicaAppliedSeq()+1, in one transaction: the records
// are replayed into the graph, mirrored into the follower's own log with
// leader sequence numbers preserved, committed, and made durable with a
// single group-commit wait. On success the apply cursor has advanced past
// the batch.
//
// Errors before anything reached the local log are clean: the transaction
// rolls back and the same batch can simply be retried. An error after some
// records were appended wraps ErrReplicaDiverged — the log (authoritative)
// is ahead of the in-memory graph, so the process must stop applying and be
// restarted, at which point ordinary recovery replays the log and streaming
// resumes seamlessly.
func (kb *KnowledgeBase) ApplyReplicated(recs []*wal.Record) error {
	if !kb.follower {
		return errors.New("core: ApplyReplicated on a leader knowledge base")
	}
	if len(recs) == 0 {
		return nil
	}
	want := kb.ReplicaAppliedSeq() + 1
	for i, rec := range recs {
		if rec.Seq != want+uint64(i) {
			return fmt.Errorf("core: replicated batch not contiguous: record %d has seq %d, want %d",
				i, rec.Seq, want+uint64(i))
		}
	}
	tx := kb.store.BeginApply()
	for _, rec := range recs {
		if err := wal.ApplyRecord(tx, rec); err != nil {
			tx.Rollback()
			return fmt.Errorf("core: apply record %d: %w", rec.Seq, err)
		}
	}
	l := kb.wal
	appended := 0
	if l != nil {
		for i, rec := range recs {
			if err := l.AppendReplicated(rec); err != nil {
				tx.Rollback()
				if i > 0 {
					return fmt.Errorf("core: mirror record %d: %v: %w", rec.Seq, err, ErrReplicaDiverged)
				}
				return fmt.Errorf("core: mirror record %d: %w", rec.Seq, err)
			}
			appended = i + 1
		}
	}
	if err := tx.Commit(); err != nil {
		if appended > 0 {
			return fmt.Errorf("core: commit replicated batch: %v: %w", err, ErrReplicaDiverged)
		}
		return fmt.Errorf("core: commit replicated batch: %w", err)
	}
	last := recs[len(recs)-1].Seq
	if l != nil {
		if err := l.WaitDurable(last); err != nil {
			return fmt.Errorf("core: replicated batch durability: %v: %w", err, ErrReplicaDiverged)
		}
	}
	kb.replicaSeq.Store(last)
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
	l := kb.wal
	var seq uint64
	view, err := kb.store.SnapshotView(func() error {
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
