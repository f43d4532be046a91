package core

import (
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trigger"
	"repro/internal/wal"
)

// Metric names exposed by a knowledge base. Every name, with its meaning
// and how to read it, is documented in OBSERVABILITY.md; the CI docs job
// checks the two stay in sync (scripts/check_metrics_docs.sh).
const (
	mTxCommits   = "rkm_graph_tx_commits_total"
	mTxRollbacks = "rkm_graph_tx_rollbacks_total"
	mTxSeconds   = "rkm_graph_tx_seconds"
	mNodes       = "rkm_graph_nodes"
	mRels        = "rkm_graph_relationships"
	mAlertNodes  = "rkm_graph_alert_nodes"

	mSnapPublished = "rkm_graph_snapshot_published_total"
	mSnapReads     = "rkm_graph_snapshot_reads_total"
	mSnapCloned    = "rkm_graph_snapshot_cow_records_total"
	mSnapCopied    = "rkm_graph_snapshot_cow_nodes_total"

	mRuleFired     = "rkm_trigger_rule_fired_total"
	mGuardRejected = "rkm_trigger_guard_rejected_total"
	mAlertQuery    = "rkm_trigger_alert_query_seconds"
	mAlertsCreated = "rkm_trigger_alerts_created_total"
	mRuleAlertUS   = "rkm_trigger_rule_alert_microseconds_total"
	mCountReads    = "rkm_trigger_count_reads_total"
	mCountDrops    = "rkm_trigger_count_drops_total"

	mRollovers       = "rkm_summary_rollovers_total"
	mRolloverSeconds = "rkm_summary_rollover_seconds"
	mChainLength     = "rkm_summary_chain_length"

	mWALRecords    = "rkm_wal_records_appended_total"
	mWALBytes      = "rkm_wal_bytes_appended_total"
	mWALFsync      = "rkm_wal_fsync_seconds"
	mWALSegments   = "rkm_wal_segments_opened_total"
	mWALCheckpoint = "rkm_wal_checkpoint_seconds"
	mWALLastSeq    = "rkm_wal_last_seq"
	mWALReplayed   = "rkm_wal_recovery_records_replayed"
	mWALDiscarded  = "rkm_wal_recovery_discarded_bytes"

	mWALGroupTxs   = "rkm_wal_group_commit_txs_total"
	mWALGroupSyncs = "rkm_wal_group_commit_syncs_total"
	mWALGroupBatch = "rkm_wal_group_commit_batch_txs"

	mPlanCacheHits      = "rkm_cypher_plan_cache_hits_total"
	mPlanCacheMisses    = "rkm_cypher_plan_cache_misses_total"
	mPlanCacheEvictions = "rkm_cypher_plan_cache_evictions_total"
	mPlanCacheSize      = "rkm_cypher_plan_cache_size"
	mPlansCompiled      = "rkm_cypher_plans_compiled_total"
	mPrepareSeconds     = "rkm_cypher_prepare_seconds"

	mAsyncEnqueued     = "rkm_trigger_async_enqueued_total"
	mAsyncShed         = "rkm_trigger_async_shed_total"
	mAsyncEvaluated    = "rkm_trigger_async_evaluated_total"
	mAsyncFailures     = "rkm_trigger_async_failures_total"
	mAsyncOrphaned     = "rkm_trigger_async_orphaned_total"
	mAsyncRecovered    = "rkm_trigger_async_recovered_total"
	mAsyncQueueDepth   = "rkm_trigger_async_queue_depth"
	mAsyncEvalSeconds  = "rkm_trigger_async_eval_seconds"
	mAsyncBlockSeconds = "rkm_trigger_async_block_seconds"
)

// asyncMetrics holds the asynchronous alert pipeline's instruments,
// resolved once at construction so StartAsync/StopAsync cycles accumulate
// into the same counters.
type asyncMetrics struct {
	enqueued  *metrics.Counter
	shed      *metrics.Counter
	evaluated *metrics.Counter
	failed    *metrics.Counter
	orphaned  *metrics.Counter
	recovered *metrics.Counter

	evalSeconds  *metrics.Histogram
	blockSeconds *metrics.Histogram
}

// Metrics returns the knowledge base's metrics registry. Expose it over
// HTTP with Registry.WritePrometheus, or inspect it programmatically with
// Registry.Gather.
func (kb *KnowledgeBase) Metrics() *metrics.Registry { return kb.metrics }

// wireMetrics registers the knowledge base's instruments on reg and
// installs them into the store and the rule engine. It runs
// once per KnowledgeBase (from assemble, so forks too), before any rule is
// installed, so per-rule counters resolve at install time. Registration is
// idempotent, so a shared registry (Config.Metrics) across knowledge bases
// is safe — instruments are then also shared and counts aggregate.
func (kb *KnowledgeBase) wireMetrics(reg *metrics.Registry) {
	kb.metrics = reg
	kb.store.SetMetrics(graph.Metrics{
		TxCommits: reg.Counter(mTxCommits,
			"Committed read-write transactions."),
		TxRollbacks: reg.Counter(mTxRollbacks,
			"Rolled-back read-write transactions (explicit and aborted commits)."),
		TxSeconds: reg.Histogram(mTxSeconds,
			"Read-write transaction latency (write-lock hold time), in seconds.", nil),
		SnapshotsPublished: reg.Counter(mSnapPublished,
			"Committed snapshot versions published (write commits, index changes, imports)."),
		SnapshotReads: reg.Counter(mSnapReads,
			"Read-only transactions served lock-free from a published snapshot."),
		RecordsCloned: reg.Counter(mSnapCloned,
			"Node and relationship records cloned copy-on-write by write transactions."),
		NodesCopied: reg.Counter(mSnapCopied,
			"Table trie nodes copied copy-on-write by snapshot builders."),
	})
	kb.engine.Metrics = trigger.EngineMetrics{
		RuleFired: reg.CounterVec(mRuleFired, "rule",
			"Guard passes (rule activations), by rule."),
		GuardRejected: reg.CounterVec(mGuardRejected, "rule",
			"Guard evaluations that returned false, by rule."),
		AlertQuerySeconds: reg.Histogram(mAlertQuery,
			"Latency of alert-query executions, in seconds.", nil),
		AlertsCreated: reg.Counter(mAlertsCreated,
			"Alert nodes materialized by the rule engine."),
		RuleAlertMicros: reg.CounterVec(mRuleAlertUS, "rule",
			"Time spent in alert-query executions, in microseconds, by rule."),
		CountReads: reg.CounterVec(mCountReads, "result",
			"Reads of maintained alert aggregates: hit (kept entry) or recount."),
		CountDrops: reg.Counter(mCountDrops,
			"Times the rule engine dropped an alert's maintained aggregates."),
	}
	kb.asyncM = asyncMetrics{
		enqueued: reg.Counter(mAsyncEnqueued,
			"AfterAsync activations committed onto the pending queue."),
		shed: reg.Counter(mAsyncShed,
			"AfterAsync activations dropped by shed backpressure."),
		evaluated: reg.Counter(mAsyncEvaluated,
			"Pending entries evaluated and materialized by the async workers."),
		failed: reg.Counter(mAsyncFailures,
			"Pending entries whose evaluation or materialization failed."),
		orphaned: reg.Counter(mAsyncOrphaned,
			"Pending entries discarded because their rule was dropped."),
		recovered: reg.Counter(mAsyncRecovered,
			"Pending entries already queued when the pipeline started (crash/restart drain)."),
		evalSeconds: reg.Histogram(mAsyncEvalSeconds,
			"End-to-end async entry processing latency (evaluate + materialize), in seconds.", nil),
		blockSeconds: reg.Histogram(mAsyncBlockSeconds,
			"Time writers spent blocked on async backpressure, in seconds.", nil),
	}
	kb.plans.SetMetrics(
		reg.Counter(mPlanCacheHits,
			"Plan-cache lookups served from the cache."),
		reg.Counter(mPlanCacheMisses,
			"Plan-cache lookups that had to parse the query."),
		reg.Counter(mPlanCacheEvictions,
			"Plans evicted from the cache by capacity pressure."))
	kb.mPrepare = reg.Histogram(mPrepareSeconds,
		"Latency of resolving a query to its prepared plan (cache hits included), in seconds.", nil)
	reg.GaugeFunc(mPlanCacheSize,
		"Prepared plans currently held by this knowledge base's plan cache.",
		func() float64 { return float64(kb.plans.Len()) })
	reg.GaugeFunc(mPlansCompiled,
		"Plan variants compiled process-wide (recompiles on statistics drift included).",
		func() float64 { return float64(cypher.PlansCompiled()) })
	reg.GaugeFunc(mAsyncQueueDepth,
		"PendingAlert entries currently on the async queue.",
		func() float64 { return float64(kb.AsyncDepth()) })
	reg.GaugeFunc(mNodes, "Nodes currently in the graph.",
		func() float64 { return float64(kb.store.Stats().Nodes) })
	reg.GaugeFunc(mRels, "Relationships currently in the graph.",
		func() float64 { return float64(kb.store.Stats().Relationships) })
	reg.GaugeFunc(mAlertNodes, "Alert nodes currently in the graph.",
		func() float64 { return float64(kb.store.LabelCount(trigger.AlertLabel)) })
}

// wireWALMetrics instruments the write-ahead log and records the recovery
// outcome; called by attachWAL.
func (kb *KnowledgeBase) wireWALMetrics(policy wal.FsyncPolicy, info *wal.RecoveryInfo) {
	reg := kb.metrics
	kb.wal.SetMetrics(wal.Metrics{
		RecordsAppended: reg.Counter(mWALRecords,
			"Records appended to the write-ahead log."),
		BytesAppended: reg.Counter(mWALBytes,
			"Framed bytes appended to the write-ahead log."),
		FsyncSeconds: reg.HistogramVec(mWALFsync, "policy",
			"Latency of write-ahead-log fsyncs, in seconds, by fsync policy.", nil).
			With(policy.String()),
		SegmentsOpened: reg.Counter(mWALSegments,
			"Write-ahead-log segment files opened (first open and rotations)."),
		CheckpointSeconds: reg.Histogram(mWALCheckpoint,
			"End-to-end checkpoint duration, in seconds.", nil),
		GroupCommitTxs: reg.Counter(mWALGroupTxs,
			"Transactions that went through the group-commit durability wait."),
		GroupCommitSyncs: reg.Counter(mWALGroupSyncs,
			"Shared fsyncs issued by group commit (txs/syncs = batch factor)."),
		GroupCommitBatchTxs: reg.Histogram(mWALGroupBatch,
			"Transactions made durable by each shared group-commit fsync.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
	})
	reg.GaugeFunc(mWALLastSeq,
		"Sequence number of the most recently appended or recovered record.",
		func() float64 { return float64(kb.wal.LastSeq()) })
	reg.Gauge(mWALReplayed,
		"Records replayed on top of the snapshot during the last recovery.").
		Set(float64(info.RecordsReplayed))
	reg.Gauge(mWALDiscarded,
		"Bytes of torn log tail discarded during the last recovery.").
		Set(float64(info.DiscardedBytes))
}
