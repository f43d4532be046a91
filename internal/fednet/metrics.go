package fednet

import (
	"repro/internal/backoff"
	"repro/internal/metrics"
)

// Metric names registered by a node. Every name is documented in
// OBSERVABILITY.md; the CI docs job keeps the two in sync
// (scripts/check_metrics_docs.sh, via scripts/metricnames).
const (
	mPushTotal    = "rkm_fed_push_total"
	mPushErrors   = "rkm_fed_push_errors_total"
	mPushSeconds  = "rkm_fed_push_seconds"
	mRetries      = "rkm_fed_retries_total"
	mOutboxDepth  = "rkm_fed_outbox_depth"
	mBreakerState = "rkm_fed_breaker_state"
	mApplied      = "rkm_fed_apply_total"
	mDuplicates   = "rkm_fed_apply_duplicates_total"
)

// nodeMetrics caches the node's instruments (nil-safe when the registry is
// nil, like every instrument in internal/metrics).
type nodeMetrics struct {
	push        *metrics.CounterVec
	pushErrors  *metrics.CounterVec
	pushSeconds *metrics.Histogram
	retries     *metrics.CounterVec
	outboxDepth *metrics.Gauge
	applied     *metrics.CounterVec
	duplicates  *metrics.CounterVec
}

// wireMetrics registers the federation instruments on the knowledge base's
// registry. Registration is idempotent, so a node rebuilt over the same
// knowledge base (process restart without restart of the registry) reuses
// the existing families.
func (n *Node) wireMetrics(reg *metrics.Registry) {
	n.nm = nodeMetrics{
		push: reg.CounterVec(mPushTotal, "peer",
			"Alert batches successfully pushed and acknowledged, by peer."),
		pushErrors: reg.CounterVec(mPushErrors, "peer",
			"Failed push attempts (network errors, timeouts, non-2xx responses), by peer."),
		pushSeconds: reg.Histogram(mPushSeconds,
			"Latency of individual push attempts, in seconds.", nil),
		retries: reg.CounterVec(mRetries, "peer",
			"Push attempts retried after a retryable failure, by peer."),
		outboxDepth: reg.Gauge(mOutboxDepth,
			"Pending (unacknowledged) alerts across all peers, as of the last sync round."),
		applied: reg.CounterVec(mApplied, "origin",
			"Remote alerts materialized by the receiver, by origin."),
		duplicates: reg.CounterVec(mDuplicates, "origin",
			"Redelivered alerts suppressed by the (origin, originId) duplicate check, by origin."),
	}
	reg.GaugeFunc(mBreakerState,
		"Most severe per-peer circuit-breaker state (0 closed, 1 half-open, 2 open).",
		func() float64 {
			worst := backoff.Closed
			for _, p := range n.peerList() {
				if s := p.breaker.Current(); s > worst {
					worst = s
				}
			}
			return float64(worst)
		})
}

// updateDepth refreshes the outbox-depth gauge after a sync round.
func (n *Node) updateDepth() {
	depth := 0
	for _, p := range n.peerList() {
		depth += n.pendingFor(p)
	}
	n.nm.outboxDepth.Set(float64(depth))
}
