package main

import (
	"time"

	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/workload"
)

// Traced runs of the two in-process workloads: the same seeded streams,
// alternating between the staged copy of the write path, with a span per
// layer, and the product's own untraced entry points. The difference between
// the two is the tracing overhead, and the stage sum is reconciled against
// the untraced operation.

const libNote = "In-process workload: no HTTP, no WAL."

func traceLibIngest(cfg runConfig) (*outcome, error) {
	var st ingestState
	warm := newCollector()
	if err := st.setup(cfg, warm); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	microProbes(m, cfg.smoke)
	recA, recB := newRecorder(), newRecorder()
	// Phase A: Fig. 9 on the small graph. Phase B: the same on the large one.
	cA := newCollector()
	st.small.ex = newStaged(st.small.kb, recA)
	st.small.naivePhase(cA, phaseEnd(cfg, 0.15))
	cB := newCollector()
	stB := newStaged(st.large.kb, recB)
	st.large.ex = stB
	st.large.readOne(warm, workload.RegionDayKey(workload.RegionName(0), 0)) // fills the staged plan cache
	alt := newAlternating(stB)
	st.large.ex = alt
	delta := startDelta(st.large.kb)
	st.large.rep = trigger.Report{}
	st.large.naivePhase(cB, phaseEnd(cfg, 0.55))
	writesB := len(cB.lat[classWrite])
	delta.finish(m, writesB)
	triggerLayers(m, st.large.rep, writesB)
	m["trigger.alert_nodes"] = float64(st.large.rep.AlertNodes)
	planCacheLayers(m, stB)

	// Phase C: Fig. 10 on the large graph.
	cC := newCollector()
	var closeMS []float64
	days, err := st.large.summaryPhase(cC, phaseEnd(cfg, 0.30), 40, &closeMS)
	if err != nil {
		return nil, err
	}
	checkEquivalence(cC, st.small, days)

	spanLayers(m, recB.spans)
	knodes := m["graph.nodes"] / 1000
	m["graph.commit_us_per_knode"] = (m["graph.mutate_us"] + m["graph.commit_us"]) / knodes
	graphProbes(m, st.large.kb, "Patient", "regionDay", value.Str(workload.RegionDayKey(workload.RegionName(3), 0)), cfg.smoke)
	a, b := median(msOf(cA.lat[classWrite])), median(msOf(alt.untraced.lat[classWrite]))
	m["paper.e1_trigger_us"] = b * 1e3
	m["paper.e1_size_ratio"] = b / a
	m["paper.e2_summary_us"] = median(msOf(cC.lat[classWrite])) * 1e3
	m["paper.e2_trigger_ms"] = median(closeMS)
	rows, _ := reconcile(m, recB.spans, alt)
	if err := finishTrace(cfg, rows, libNote, recB.spans); err != nil {
		return nil, err
	}
	return layerOutcome(m, cB, warm, cA, cC), nil
}

func traceLibFanout(cfg runConfig) (*outcome, error) {
	var st fanoutState
	warm := newCollector()
	if err := st.setup(cfg, warm); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	microProbes(m, cfg.smoke)
	rec := newRecorder()
	stg := newStaged(st.kb, rec)
	st.ex = stg
	st.runMinute(warm) // fills the staged plan cache
	alt := newAlternating(stg)
	st.ex = alt
	st.reports, st.drainMS, st.maxPartials = trigger.Report{}, nil, 0
	delta := startDelta(st.kb)
	cT := newCollector()
	for end := phaseEnd(cfg, 1); time.Now().Before(end); {
		st.runMinute(cT)
	}
	st.verify(cT)
	writes := len(cT.lat[classWrite])
	delta.finish(m, writes)
	triggerLayers(m, st.reports, writes)
	planCacheLayers(m, stg)
	m["cep.drain_us"] = median(st.drainMS) * 1e3
	m["cep.partials_depth_max"] = float64(st.maxPartials)
	m["trigger.alert_nodes"] = float64(st.kb.Store().LabelCount("Alert"))

	spanLayers(m, rec.spans)
	m["graph.commit_us_per_knode"] = (m["graph.mutate_us"] + m["graph.commit_us"]) / (m["graph.nodes"] / 1000)
	graphProbes(m, st.kb, "Txn", "account", value.Str(workload.AccountName(7)), cfg.smoke)
	rows, _ := reconcile(m, rec.spans, alt)
	if err := finishTrace(cfg, rows, libNote, rec.spans); err != nil {
		return nil, err
	}
	return layerOutcome(m, cT, warm), nil
}
