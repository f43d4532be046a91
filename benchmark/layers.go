package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
)

// ms of a sample slice.
func msOf(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

// spanLayers fills the metrics that come straight from spans: the median
// self time of each layer's span (WAL children are their own spans, so
// graph.commit excludes them; validators run inside Commit and stay in).
func spanLayers(m map[string]float64, spans []span) {
	self, dur := selfTimes(spans), durations(spans)
	m["cypher.plan_lookup_ns"] = median(self[spanPlanLookup])
	m["cypher.exec_write_us"] = median(self[spanExec]) / 1e3
	m["cypher.exec_read_us"] = median(self[spanExecRead]) / 1e3
	m["graph.begin_ns"] = median(dur[spanBegin])
	m["graph.mutate_us"] = median(self[spanMutate]) / 1e3
	m["graph.commit_us"] = median(self[spanCommit]) / 1e3
	m["wal.append_us"] = median(self[spanWALAppend]) / 1e3
	m["wal.fsync_wait_us"] = median(self[spanWALFsync]) / 1e3
	m["trigger.process_us"] = median(self[spanTrigger]) / 1e3
}

// triggerLayers fills the rule-engine counts from the summed reports of n
// write operations.
func triggerLayers(m map[string]float64, rep trigger.Report, n int) {
	if n == 0 {
		return
	}
	m["trigger.guard_checks_per_op"] = float64(rep.GuardChecks) / float64(n)
	m["trigger.alert_runs_per_op"] = float64(rep.AlertRuns) / float64(n)
	m["trigger.rounds_per_op"] = float64(rep.Rounds) / float64(n)
	if rep.GuardChecks > 0 {
		m["trigger.guard_pass_ratio"] = float64(rep.GuardPasses) / float64(rep.GuardChecks)
	}
}

func addReport(sum *trigger.Report, rep *trigger.Report) {
	sum.Rounds += rep.Rounds
	sum.GuardChecks += rep.GuardChecks
	sum.GuardPasses += rep.GuardPasses
	sum.AlertRuns += rep.AlertRuns
	sum.AlertNodes += rep.AlertNodes
}

// registryDelta charges the growth of the knowledge base's own counters over
// a traced section to that section: start before it, finish after.
type registryDelta struct {
	kb               *core.KnowledgeBase
	before           registryValues
	parses, compiled int64
}

func startDelta(kb *core.KnowledgeBase) *registryDelta {
	return &registryDelta{kb: kb, before: readRegistry(kb.Metrics()),
		parses: cypher.ParseCount(), compiled: cypher.PlansCompiled()}
}

// finish charges the counters' growth to writes write operations.
func (d *registryDelta) finish(m map[string]float64, writes int) {
	after := readRegistry(d.kb.Metrics())
	grew := func(name string) float64 { return after.value[name] - d.before.value[name] }
	m["cypher.parse_count"] = float64(cypher.ParseCount() - d.parses)
	m["cypher.plans_compiled"] = float64(cypher.PlansCompiled() - d.compiled)
	const alertQuery = "rkm_trigger_alert_query_seconds"
	if n := after.count[alertQuery] - d.before.count[alertQuery]; n > 0 {
		m["trigger.alert_query_us"] = (after.sum[alertQuery] - d.before.sum[alertQuery]) / n * 1e6
	}
	m["cep.matches"] = grew("rkm_cep_completed_total")
	st := d.kb.GraphStats()
	m["graph.nodes"], m["graph.rels"] = float64(st.Nodes), float64(st.Relationships)
	if writes == 0 {
		return
	}
	m["graph.cow_records_per_op"] = grew("rkm_graph_snapshot_cow_records_total") / float64(writes)
	m["wal.bytes_per_op"] = grew("rkm_wal_bytes_appended_total") / float64(writes)
	if txs := grew("rkm_wal_group_commit_txs_total"); txs > 0 {
		m["wal.fsyncs_per_op"] = grew("rkm_wal_group_commit_syncs_total") / txs
	}
}

// planCacheLayers reads the staged path's own plan cache.
func planCacheLayers(m map[string]float64, s *staged) {
	st := s.plans.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		m["cypher.plan_cache_hit_ratio"] = float64(st.Hits) / float64(total)
	}
}

var probeSink any // keeps the micro-probes' results alive

// microProbes times the value layer and a cold Prepare from outside: short
// loops over the public functions, one number each.
func microProbes(m map[string]float64, smoke bool) {
	n := 1_000_000
	if smoke {
		n /= 20
	}
	per := func(calls int, fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		return float64(time.Since(t0)) / float64(calls)
	}
	row := map[string]any{"id": "s000123", "n": 42, "ok": true, "score": 0.5}
	m["value.fromgo_ns"] = per(n, func(i int) { probeSink = value.FromGo(row) })
	a, b := value.Str("s000123"), value.Str("s000124")
	m["value.compare_ns"] = per(n, func(i int) { probeSink = value.Compare(a, b) })
	v := value.FromGo(row)
	m["value.json_ns"] = per(n/10, func(i int) {
		raw, _ := json.Marshal(v.Go())
		probeSink = raw
	})
	m["cypher.prepare_cold_us"] = per(200, func(i int) {
		p, _ := cypher.Prepare(qCrosshub)
		probeSink = p
	}) / 1e3
}

// graphProbes times index lookups and a label scan on a read view of kb.
func graphProbes(m map[string]float64, kb *core.KnowledgeBase, label, prop string, key value.Value, smoke bool) {
	n := 100_000
	if smoke {
		n /= 20
	}
	_ = kb.Store().View(func(tx *graph.Tx) error {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ids, _ := tx.NodesByProp(label, prop, key)
			if len(ids) > 0 {
				probeSink, _ = tx.NodeProp(ids[0], prop)
			}
		}
		m["graph.lookup_ns"] = float64(time.Since(t0)) / float64(n)
		var scans []float64
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			probeSink = tx.NodesByLabel(label)
			scans = append(scans, float64(time.Since(t0))/1e3)
		}
		m["graph.label_scan_us"] = median(scans)
		return nil
	})
}

// budgetRows is the order of a budget table.
var budgetRows = []string{"http", "cypher.plan_lookup", "cypher.exec", "graph", "trigger", "wal.append", "wal.fsync_wait", "other"}

// budget decomposes the mean write operation of a traced run into layers:
// self times of the spans below each write's root, and the root's own self
// time as "other". The "http" row is the caller's to fill. It also returns,
// as medians over the write operations, the sum of the stages directly below
// the root and the root's own duration, in microseconds.
func budget(spans []span) (rows map[string]float64, stageSumUS, rootUS float64) {
	// A write operation is a root span with a graph.commit child.
	isWrite := make(map[int]bool)
	for _, s := range spans {
		if s.Name == spanCommit && s.Parent >= 0 {
			isWrite[s.Parent] = true
		}
	}
	rootOf := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	rows = make(map[string]float64)
	stages := make(map[int]float64) // root -> sum of its direct children
	var roots []float64
	for i, s := range spans {
		root := rootOf(i)
		if !isWrite[root] {
			continue
		}
		self := float64(s.End-s.Start-covered[i]) / 1e3
		switch s.Name {
		case spanExecute:
			rows["other"] += self
			roots = append(roots, float64(s.End-s.Start)/1e3)
		case spanPlanLookup:
			rows["cypher.plan_lookup"] += self
		case spanExec:
			rows["cypher.exec"] += self
		case spanBegin, spanMutate, spanCommit:
			rows["graph"] += self
		case spanTrigger:
			rows["trigger"] += self
		case spanWALAppend:
			rows["wal.append"] += self
		case spanWALFsync:
			rows["wal.fsync_wait"] += self
		}
		if s.Parent == root {
			stages[root] += float64(s.End-s.Start) / 1e3
		}
	}
	if len(roots) == 0 {
		return rows, 0, 0
	}
	for k := range rows {
		rows[k] /= float64(len(roots))
	}
	var sums []float64
	for _, v := range stages {
		sums = append(sums, v)
	}
	return rows, median(sums), median(roots)
}

// reconcile fills the core.* metrics from the spans of the traced
// operations and the latencies alternating kept per path; it returns the
// budget rows and the median traced write, in microseconds.
func reconcile(m map[string]float64, spans []span, alt *alternating) (rows map[string]float64, rootUS float64) {
	rows, stageSum, root := budget(spans)
	un := median(msOf(alt.untraced.lat[classWrite])) * 1e3
	m["core.execute_us"] = un
	if un > 0 {
		m["core.stage_sum_ratio"] = stageSum / un
		m["core.trace_overhead_ratio"] = root/un - 1
	}
	m["core.write_p90_us"] = windowed(alt.untraced.lat[classWrite], 0.90, windowP90) * 1e3
	m["core.read_p90_us"] = windowed(alt.untraced.lat[classRead], 0.90, windowP90) * 1e3
	return rows, root
}

// finishTrace writes one workload's budget table to out/budget-<workload>.md
// and its spans to out/trace-<workload>.json.
func finishTrace(cfg runConfig, rows map[string]float64, note string, spans []span) error {
	total := 0.0
	for _, r := range budgetRows {
		total += rows[r]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\nMean write operation, traced run, seed %d: %.1f us. %s\n\n", cfg.workload, cfg.seed, total, note)
	fmt.Fprintf(&b, "| layer | us per op | share |\n|---|---:|---:|\n")
	for _, r := range budgetRows {
		share := 0.0
		if total > 0 {
			share = 100 * rows[r] / total
		}
		fmt.Fprintf(&b, "| %s | %.1f | %.1f %% |\n", r, rows[r], share)
	}
	b.WriteString("\n")
	if err := os.WriteFile(filepath.Join(cfg.out, "budget-"+cfg.workload+".md"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), spans)
}

// layerOutcome is the outcome of a traced run: the metric map, the verdicts
// of every collector, and the traced section's samples.
func layerOutcome(m map[string]float64, timed *collector, others ...*collector) *outcome {
	all := newCollector()
	all.merge(timed)
	for _, c := range others {
		all.merge(c)
	}
	return &outcome{attempted: all.attempted, failed: all.failed, notes: all.notes, metrics: m, lat: timed.lat}
}

// joinBudgets concatenates the per-workload tables into out/budget.md.
func joinBudgets(out string, names []string) error {
	var b strings.Builder
	b.WriteString("# Where the time of one write operation goes\n\n" +
		"One table per workload, from the traced run: span self times grouped by layer,\n" +
		"`other` is the root span's own time (glue between the stages), and `http` is a\n" +
		"round trip's median minus the in-process operation's. See ../README.md.\n\n")
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(out, "budget-"+n+".md"))
		if err != nil {
			return err
		}
		b.Write(raw)
	}
	return os.WriteFile(filepath.Join(out, "budget.md"), []byte(b.String()), 0o644)
}

// phaseEnd returns the end of a phase that takes the given share of the
// run, starting now.
func phaseEnd(cfg runConfig, share float64) time.Time {
	return time.Now().Add(time.Duration(share * cfg.seconds * float64(time.Second)))
}
