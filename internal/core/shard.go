package core

// What is genuinely multi-shard: the paper's hub partition (§III-A) turned
// into a storage layout. Declaring hubs gives every hub its own graph shard
// — a full single-writer MVCC store with its own write lock, WAL segment
// stream and atomically published snapshot — so transactions that stay
// inside one hub (the common case: guards are intra-hub by design, §III-B)
// commit fully in parallel. Knowledge bridges, the relationships that cross
// hub borders, take a two-shard commit path: both shard locks are held in
// deterministic (ascending index) order and a single durable commit record
// spanning both WAL streams decides the outcome (see
// wal.ShardSet.AppendBridge).
//
// Everything else — rules, plan cache, queries, the async pipeline,
// checkpointing, follower apply — is the one KnowledgeBase of core.go
// iterating its shards; trigger.Engine.Process is concurrency-safe, so
// concurrent per-shard writers cascade rules at the same time.

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrUnknownShardHub is returned when a hub name is not mapped to a shard.
var ErrUnknownShardHub = errors.New("core: hub is not mapped to a shard")

// HubShard declares one hub of a sharded knowledge base: the hub's name and
// description (registered on the shared hub registry) and the node labels it
// owns. The slice order fixes the shard indexes — it must be identical on
// every open of a durable directory, since shard i recovers from the
// shard-i WAL stream.
type HubShard struct {
	Hub         string
	Description string
	Labels      []string
}

// NewSharded creates an empty in-memory knowledge base with one shard per
// declared hub: shard i holds hub i's nodes and its halves of the knowledge
// bridges touching them.
func NewSharded(cfg Config, hubs []HubShard) (*KnowledgeBase, error) {
	kb, _, err := openHubs("", cfg, hubs, wal.Options{}, false)
	return kb, err
}

// OpenShardedDurable opens (or creates) a durable knowledge base with one
// shard per declared hub under dir: shard i persists to the shard-i WAL
// stream (a subdirectory of dir), recovery replays the shards independently
// and then reconciles bridge commits whose prepare half was torn away (see
// wal.OpenShardSet). The hubs slice must match the one the directory was
// created with. As with OpenDurable, rules, schemas and indexes are
// configuration: the caller re-installs them after opening.
func OpenShardedDurable(dir string, cfg Config, hubs []HubShard, wopts wal.Options) (*KnowledgeBase, []*wal.RecoveryInfo, error) {
	return openHubs(dir, cfg, hubs, wopts, false)
}

// OpenShardedDurableFollower is OpenShardedDurable for a replication
// follower (compare OpenFollowerDurable): no commit hooks, every shard in
// follower mode, and each recovered stream's LastSeq is that shard's apply
// cursor to resume from.
func OpenShardedDurableFollower(dir string, cfg Config, hubs []HubShard, wopts wal.Options) (*KnowledgeBase, []*wal.RecoveryInfo, error) {
	return openHubs(dir, cfg, hubs, wopts, true)
}

// openHubs is open for the constructors that take hub declarations, where
// none is an error rather than the one-shard flat layout.
func openHubs(dir string, cfg Config, hubs []HubShard, wopts wal.Options, follower bool) (*KnowledgeBase, []*wal.RecoveryInfo, error) {
	if len(hubs) == 0 {
		return nil, nil, errors.New("core: sharded knowledge base needs at least one hub")
	}
	return open(dir, cfg, hubs, wopts, follower)
}

// ---- Hub routing ----

// ShardOf returns the shard index a hub's nodes live in: the declared one,
// or the only one for a hub defined on a one-shard knowledge base.
func (kb *KnowledgeBase) ShardOf(hubName string) (int, bool) {
	if i, ok := kb.shardOf[hubName]; ok {
		return i, true
	}
	if _, ok := kb.hubs.Get(hubName); ok && kb.store.NumShards() == 1 {
		return 0, true
	}
	return 0, false
}

// HubOfShard returns the hub declared for a shard index ("" when the
// knowledge base was not built from hub declarations).
func (kb *KnowledgeBase) HubOfShard(i int) string {
	if i < 0 || i >= len(kb.hubOf) {
		return ""
	}
	return kb.hubOf[i]
}

func (kb *KnowledgeBase) shardOfHub(hubName string) (int, error) {
	i, ok := kb.ShardOf(hubName)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownShardHub, hubName)
	}
	return i, nil
}

// ExecuteInHub is ExecuteReport on the named hub's shard.
func (kb *KnowledgeBase) ExecuteInHub(hubName, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	i, err := kb.shardOfHub(hubName)
	if err != nil {
		return nil, nil, err
	}
	return kb.execute(i, query, params)
}

// QueryInHub runs a read-only statement against the named hub's shard,
// lock-free on its committed snapshot. The query sees that hub's nodes and
// its halves of the knowledge bridges touching them.
func (kb *KnowledgeBase) QueryInHub(hubName, query string, params map[string]value.Value) (*cypher.Result, error) {
	i, err := kb.shardOfHub(hubName)
	if err != nil {
		return nil, err
	}
	return kb.query(i, query, params)
}

// ---- Bridge writes ----

// UpdateBridgeShards runs fn in a two-shard bridge transaction spanning
// shards a and b (ShardOf resolves a hub name to its shard): both shard
// locks are taken in ascending index order (the deterministic order that
// makes concurrent bridges deadlock-free), fn may create knowledge bridges
// between the hubs through the BridgeTx, the reactive rules fire over each
// side's changes, and the commit appends a single durable commit record
// spanning both WAL streams before either shard's snapshot is published.
//
// The rule cascade runs per side: a rule triggered by the lower shard's
// changes reads and writes the lower shard only (guards are intra-hub by
// design, so this is the paper's locality assumption made physical).
//
// A non-nil error with a non-nil report means the bridge committed but a
// post-commit durability wait failed — the same contract as the group
// commit path of a single-shard write.
func (kb *KnowledgeBase) UpdateBridgeShards(a, b int, fn func(bt *graph.BridgeTx) error) (*trigger.Report, error) {
	if err := kb.checkShard(a); err != nil {
		return nil, err
	}
	if err := kb.checkShard(b); err != nil {
		return nil, err
	}
	if kb.follower {
		return nil, ErrFollower
	}
	bt, err := kb.store.BeginBridge(a, b)
	if err != nil {
		return nil, err
	}
	if err := fn(bt); err != nil {
		bt.Rollback()
		return nil, err
	}
	lo, hi := bt.Shards()
	total := &trigger.Report{}
	for _, idx := range []int{lo, hi} {
		tx, err := bt.ShardTx(idx)
		if err != nil {
			bt.Rollback()
			return nil, err
		}
		data := tx.ResetData()
		data.Compact()
		rep, err := kb.engine.Process(tx, data)
		total.Merge(rep)
		if err != nil {
			bt.Rollback()
			return total, err
		}
	}
	var durErr error
	if err := bt.Commit(kb.sealBridge(lo, hi, &durErr)); err != nil {
		return total, err
	}
	kb.mCross.Inc()
	return total, durErr
}

// sealBridge builds the seal callback for a bridge commit: while both shard
// locks are held it appends the two-stream commit record pair and waits for
// durability, so the bridge outcome is decided on disk before either
// snapshot becomes visible. An error after the commit record was appended
// does not abort the commit (the record may have reached disk; aborting
// could diverge memory from log) — it is stashed in *durErr and surfaced by
// UpdateBridgeShards, mirroring the group-commit fsync contract.
func (kb *KnowledgeBase) sealBridge(lo, hi int, durErr *error) func(loTx, hiTx *graph.Tx) error {
	if kb.wal == nil {
		return nil
	}
	return func(loTx, hiTx *graph.Tx) error {
		loRec := wal.RecordFromTx(loTx)
		hiRec := wal.RecordFromTx(hiTx)
		switch {
		case loRec == nil && hiRec == nil:
			return nil
		case hiRec == nil:
			// Only one side changed: an ordinary single-stream commit.
			return kb.appendOne(lo, loTx, loRec)
		case loRec == nil:
			return kb.appendOne(hi, hiTx, hiRec)
		}
		committed, err := kb.wal.AppendBridge(lo, hi, loRec, hiRec)
		if err != nil && !committed {
			return err
		}
		*durErr = err
		return nil
	}
}

// appendOne appends a record to one shard's log under the held locks and
// defers the durability wait to after publication (group commit).
func (kb *KnowledgeBase) appendOne(idx int, tx *graph.Tx, rec *wal.Record) error {
	l := kb.wal.Log(idx)
	seq, err := l.AppendAsync(rec)
	if err != nil {
		return err
	}
	return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
}

// ---- Per-shard metric labels ----

// shardStoreMetrics gives shard i of a multi-shard store the instruments
// that only mean something per shard: its own commit counter and its
// writers' lock-queueing delay.
func (kb *KnowledgeBase) shardStoreMetrics(i int, gm *graph.Metrics) {
	label := strconv.Itoa(i)
	gm.TxCommits = kb.metrics.CounterVec(mShardCommits, "shard",
		"Committed read-write transactions, by shard.").With(label)
	gm.LockWaitSeconds = kb.metrics.HistogramVec(mShardLockWait, "shard",
		"Time writers waited for a shard's write lock, in seconds, by shard.", nil).With(label)
}

// shardWALMetrics gives stream i of a multi-stream log set its own fsync
// latency series.
func (kb *KnowledgeBase) shardWALMetrics(i int, wm *wal.Metrics) {
	wm.FsyncSeconds = kb.metrics.HistogramVec(mShardWALFsync, "shard",
		"Latency of per-shard write-ahead-log fsyncs, in seconds, by shard.", nil).With(strconv.Itoa(i))
}
