package cep

import "repro/internal/metrics"

// Metric names (documented in OBSERVABILITY.md; check_metrics_docs.sh
// keeps the catalog in sync).
const (
	mPartialsOpen = "rkm_cep_partials_open"
	mOpened       = "rkm_cep_opened_total"
	mSteps        = "rkm_cep_steps_total"
	mCompleted    = "rkm_cep_completed_total"
	mExpired      = "rkm_cep_expired_total"
	mKilled       = "rkm_cep_killed_total"
	mEvictions    = "rkm_cep_window_evictions_total"
	mAlerts       = "rkm_cep_alerts_total"
	mOrphaned     = "rkm_cep_orphaned_total"
	mRecovered    = "rkm_cep_recovered_total"
	mMatchSeconds = "rkm_cep_match_seconds"
)

// cepMetrics holds the manager's instruments (nil-safe when unregistered).
type cepMetrics struct {
	opened       *metrics.Counter
	steps        *metrics.Counter
	completed    *metrics.Counter
	expired      *metrics.Counter
	killed       *metrics.Counter
	evictions    *metrics.Counter
	alerts       *metrics.Counter
	orphaned     *metrics.Counter
	recovered    *metrics.Counter
	matchSeconds *metrics.Histogram
}

// matchBuckets cover event-time spans from sub-second to hours: composite
// windows are typically minutes, and absence matches complete a full
// window after they open.
var matchBuckets = []float64{1, 5, 15, 60, 300, 900, 1800, 3600, 7200}

func (m *Manager) wireMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc(mPartialsOpen,
		"Durable partial-match nodes currently on the graph (open and completed-but-undrained).",
		func() float64 { return float64(m.Depth()) })
	m.m.opened = reg.Counter(mOpened, "Partial matches opened.")
	m.m.steps = reg.Counter(mSteps, "Composite-step occurrences handled by the automaton.")
	m.m.completed = reg.Counter(mCompleted, "Partial matches completed (composite event detected).")
	m.m.expired = reg.Counter(mExpired, "Partial matches evicted because their window closed before completion.")
	m.m.killed = reg.Counter(mKilled, "Armed absence matches killed by an occurrence of the negated event.")
	m.m.evictions = reg.Counter(mEvictions, "Occurrence timestamps evicted from sliding count windows.")
	m.m.alerts = reg.Counter(mAlerts, "Alert nodes materialized from completed composite matches.")
	m.m.orphaned = reg.Counter(mOrphaned, "Partial matches discarded because their rule was dropped.")
	m.m.recovered = reg.Counter(mRecovered, "Partial matches recovered from a previous run at Enable.")
	m.m.matchSeconds = reg.Histogram(mMatchSeconds,
		"Event-time span from a match's opening occurrence to its completion, in seconds.",
		matchBuckets)
}
