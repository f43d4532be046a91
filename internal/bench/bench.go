// Package bench regenerates the paper's evaluation (§IV-D): Fig. 9 (naive
// per-patient trigger design, execution time vs. number of patients) and
// Fig. 10 (summary-based redesign: summary computation time grows with
// patients while trigger time stays flat), plus an ablation over the number
// of regions that §V's discussion of rule design motivates.
//
// Absolute times differ from the paper's Neo4j-on-56-core-Xeon setup; the
// shapes — naive total time linear in N, summary-based trigger time flat in
// N, summary design globally much cheaper — are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/workload"
)

// simStart anchors the simulated clock.
var simStart = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

// Config parameterizes one experiment run.
type Config struct {
	// PatientCounts is the sweep over N (e.g. 100, 1k, 10k, 100k).
	PatientCounts []int
	// Regions is the number of regions (the paper uses Italy's 20).
	Regions int
	// Days spreads each N over consecutive days; the paper's critical
	// condition compares two consecutive days, so the default is 2.
	Days int
	// Seed drives the deterministic workload.
	Seed int64
	// Batch is patients per transaction (1 = one trigger activation per
	// transaction, the paper's setting).
	Batch int
	// Growth is the day-over-day admission growth factor; the paper's
	// critical condition is 10% growth, so the default of 1.3 keeps the
	// alerting rules firing at every scale.
	Growth float64
	// Reps repeats each measurement and reports the median, damping noise
	// from shared machines (default 1).
	Reps int
}

func (c Config) withDefaults() Config {
	if len(c.PatientCounts) == 0 {
		c.PatientCounts = []int{100, 1000, 10000} // a laptop-scale sweep
	}
	if c.Regions <= 0 {
		c.Regions = 20
	}
	if c.Days <= 0 {
		c.Days = 2
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Growth <= 0 {
		c.Growth = 1.3
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	return c
}

// medianDuration returns the median of ds (ds is sorted in place).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// dayCounts splits n admissions over days with day-over-day growth, so the
// later days carry proportionally more admissions.
func dayCounts(n, days int, growth float64) []int {
	weights := make([]float64, days)
	total := 0.0
	w := 1.0
	for d := 0; d < days; d++ {
		weights[d] = w
		total += w
		w *= growth
	}
	counts := make([]int, days)
	assigned := 0
	for d := 0; d < days; d++ {
		counts[d] = int(float64(n) * weights[d] / total)
		assigned += counts[d]
	}
	counts[days-1] += n - assigned
	return counts
}

// newKB builds a knowledge base on a manual clock for one measurement.
func newKB() *core.KnowledgeBase {
	return core.New(core.Config{Clock: periodic.NewManualClock(simStart)})
}

// histSummary returns the count/mean/quantile summary of the named latency
// histogram from kb's metrics registry, or "" when it is absent or empty.
// The bench reports these alongside the figure tables: the table gives the
// paper's aggregate axes, the histogram shows the per-operation distribution
// behind them.
func histSummary(kb *core.KnowledgeBase, name string) string {
	for _, fam := range kb.Metrics().Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if s.Hist != nil && s.Hist.Count > 0 {
				return s.Hist.Summary()
			}
		}
	}
	return ""
}

// Fig9Point is one measurement of the naive design.
type Fig9Point struct {
	Patients    int
	Elapsed     time.Duration // total time to process all patient events
	PerTrigger  time.Duration // Elapsed / Patients
	GuardChecks int
	Alerts      int
	AlertQuery  string // rkm_trigger_alert_query_seconds summary (last rep)
}

// RunFig9 measures the naive design: a rule whose guard is the creation of
// a patient and whose alert compares the two-day admission counters of the
// patient's region, executed once per patient.
func RunFig9(cfg Config) ([]Fig9Point, error) {
	cfg = cfg.withDefaults()
	var out []Fig9Point
	for _, n := range cfg.PatientCounts {
		var best Fig9Point
		var elapsed []time.Duration
		for rep := 0; rep < cfg.Reps; rep++ {
			p, err := runFig9Once(cfg, n)
			if err != nil {
				return nil, err
			}
			elapsed = append(elapsed, p.Elapsed)
			best = p
		}
		best.Elapsed = medianDuration(elapsed)
		if n > 0 {
			best.PerTrigger = best.Elapsed / time.Duration(n)
		}
		out = append(out, best)
	}
	return out, nil
}

func runFig9Once(cfg Config, n int) (Fig9Point, error) {
	kb := newKB()
	sc, err := workload.Build(kb, workload.Config{Seed: cfg.Seed, Regions: cfg.Regions})
	if err != nil {
		return Fig9Point{}, err
	}
	name, guard, alert := workload.NaiveRuleSpec()
	if err := kb.InstallRule(trigger.Rule{
		Name:  name,
		Hub:   "R",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
		Guard: guard,
		Alert: alert,
	}); err != nil {
		return Fig9Point{}, err
	}

	counts := dayCounts(n, cfg.Days, cfg.Growth)
	point := Fig9Point{Patients: n}
	runtime.GC()
	start := time.Now()
	for day, count := range counts {
		adms := sc.Admissions(count, day)
		if err := sc.Admit(kb, adms, workload.AdmitOptions{
			Batch:        cfg.Batch,
			LinkHospital: true,
		}); err != nil {
			return point, err
		}
	}
	point.Elapsed = time.Since(start)
	if n > 0 {
		point.PerTrigger = point.Elapsed / time.Duration(n)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		return point, err
	}
	point.Alerts = len(alerts)
	point.GuardChecks = n
	point.AlertQuery = histSummary(kb, "rkm_trigger_alert_query_seconds")
	return point, nil
}

// Fig10Point is one measurement of the summary-based design.
type Fig10Point struct {
	Patients    int
	SummaryTime time.Duration // maintaining per-region daily statistics
	TriggerTime time.Duration // closing each day and firing per-region rules
	Triggers    int           // rule activations (regions × days with data)
	Alerts      int
	AlertQuery  string // rkm_trigger_alert_query_seconds summary (last rep)
}

// RunFig10 measures the redesigned rules: patient creation maintains
// per-(region, day) statistics (summary computation), and a rule fires once
// per region per day on the daily statistic nodes (trigger execution).
func RunFig10(cfg Config) ([]Fig10Point, error) {
	cfg = cfg.withDefaults()
	var out []Fig10Point
	for _, n := range cfg.PatientCounts {
		var best Fig10Point
		var sums, trigs []time.Duration
		for rep := 0; rep < cfg.Reps; rep++ {
			p, err := runFig10Once(cfg, n)
			if err != nil {
				return nil, err
			}
			sums = append(sums, p.SummaryTime)
			trigs = append(trigs, p.TriggerTime)
			best = p
		}
		best.SummaryTime = medianDuration(sums)
		best.TriggerTime = medianDuration(trigs)
		out = append(out, best)
	}
	return out, nil
}

func runFig10Once(cfg Config, n int) (Fig10Point, error) {
	kb := newKB()
	sc, err := workload.Build(kb, workload.Config{Seed: cfg.Seed, Regions: cfg.Regions})
	if err != nil {
		return Fig10Point{}, err
	}
	name, guard, alert := workload.SummaryRuleSpec()
	if err := kb.InstallRule(trigger.Rule{
		Name:  name,
		Hub:   "R",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "DailyRegionStat"},
		Guard: guard,
		Alert: alert,
	}); err != nil {
		return Fig10Point{}, err
	}

	counts := dayCounts(n, cfg.Days, cfg.Growth)
	point := Fig10Point{Patients: n}
	for day, count := range counts {
		adms := sc.Admissions(count, day)
		runtime.GC()
		t0 := time.Now()
		if err := sc.Admit(kb, adms, workload.AdmitOptions{
			Batch:         cfg.Batch,
			LinkHospital:  true,
			MaintainStats: true,
		}); err != nil {
			return point, err
		}
		point.SummaryTime += time.Since(t0)

		runtime.GC()
		t1 := time.Now()
		if err := sc.CloseDay(kb, day); err != nil {
			return point, err
		}
		point.TriggerTime += time.Since(t1)
		if day > 0 {
			point.Triggers += cfg.Regions
		}
	}
	alerts, err := kb.Alerts()
	if err != nil {
		return point, err
	}
	point.Alerts = len(alerts)
	point.AlertQuery = histSummary(kb, "rkm_trigger_alert_query_seconds")
	return point, nil
}

// AblationPoint compares the two designs at one (regions, patients) cell.
// Baseline is the cost of inserting the same stream with no rules at all;
// the overheads (design cost minus baseline) isolate what the reactive
// machinery adds, which is the comparison the paper's Fig. 9/Fig. 10 pair
// makes.
type AblationPoint struct {
	Regions         int
	Patients        int
	Baseline        time.Duration
	Naive           time.Duration
	Summary         time.Duration // summary maintenance + triggers
	NaiveOverhead   time.Duration
	SummaryOverhead time.Duration
	Speedup         float64 // overhead ratio naive/summary
}

// runBaseline inserts the stream with no rules installed.
func runBaseline(cfg Config, n int) (time.Duration, error) {
	kb := newKB()
	sc, err := workload.Build(kb, workload.Config{Seed: cfg.Seed, Regions: cfg.Regions})
	if err != nil {
		return 0, err
	}
	counts := dayCounts(n, cfg.Days, cfg.Growth)
	runtime.GC()
	start := time.Now()
	for day, count := range counts {
		adms := sc.Admissions(count, day)
		if err := sc.Admit(kb, adms, workload.AdmitOptions{
			Batch:        cfg.Batch,
			LinkHospital: true,
		}); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// RunAblation sweeps the number of regions to show where summarization pays
// off (§V: "data summarization in rule design may lead to significant
// global savings"). Every cell is measured reps times and medians are
// reported: the overhead subtraction amplifies machine noise otherwise.
func RunAblation(patients int, regionSweep []int, seed int64, reps int) ([]AblationPoint, error) {
	if len(regionSweep) == 0 {
		regionSweep = []int{5, 20, 100}
	}
	if reps <= 0 {
		reps = 1
	}
	var out []AblationPoint
	for _, r := range regionSweep {
		cfg := Config{PatientCounts: []int{patients}, Regions: r, Days: 2, Seed: seed, Batch: 1, Reps: reps}
		f9, err := RunFig9(cfg)
		if err != nil {
			return nil, err
		}
		f10, err := RunFig10(cfg)
		if err != nil {
			return nil, err
		}
		var bases []time.Duration
		for rep := 0; rep < reps; rep++ {
			b, err := runBaseline(cfg, patients)
			if err != nil {
				return nil, err
			}
			bases = append(bases, b)
		}
		base := medianDuration(bases)
		summaryTotal := f10[0].SummaryTime + f10[0].TriggerTime
		pt := AblationPoint{
			Regions:  r,
			Patients: patients,
			Baseline: base,
			Naive:    f9[0].Elapsed,
			Summary:  summaryTotal,
		}
		pt.NaiveOverhead = pt.Naive - base
		if pt.NaiveOverhead < 0 {
			pt.NaiveOverhead = 0
		}
		pt.SummaryOverhead = summaryTotal - base
		if pt.SummaryOverhead < 0 {
			pt.SummaryOverhead = 0
		}
		if pt.SummaryOverhead > 0 {
			pt.Speedup = float64(pt.NaiveOverhead) / float64(pt.SummaryOverhead)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RuleScalingPoint measures event-processing cost against the number of
// installed rules watching the same event.
type RuleScalingPoint struct {
	Rules      int
	Patients   int
	Elapsed    time.Duration
	PerPatient time.Duration
}

// RunRuleScaling installs one real alerting rule plus (rules-1) additional
// guard-only rules on the same patient-creation event and measures the
// ingest cost, isolating the dispatch-and-guard overhead of growing rule
// sets — the rule-design-cost dimension §V opens up.
func RunRuleScaling(patients int, ruleCounts []int, seed int64) ([]RuleScalingPoint, error) {
	if len(ruleCounts) == 0 {
		ruleCounts = []int{1, 4, 16, 64}
	}
	var out []RuleScalingPoint
	for _, k := range ruleCounts {
		if k < 1 {
			k = 1
		}
		kb := newKB()
		sc, err := workload.Build(kb, workload.Config{Seed: seed, Regions: 20})
		if err != nil {
			return nil, err
		}
		name, guard, alert := workload.NaiveRuleSpec()
		if err := kb.InstallRule(trigger.Rule{
			Name:  name,
			Hub:   "R",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
			Guard: guard,
			Alert: alert,
		}); err != nil {
			return nil, err
		}
		for i := 1; i < k; i++ {
			if err := kb.InstallRule(trigger.Rule{
				Name:  fmt.Sprintf("aux-%d", i),
				Hub:   "R",
				Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
				Guard: "NEW.day < 0", // never passes: measures dispatch + guard cost
				Alert: "RETURN 1 AS one",
			}); err != nil {
				return nil, err
			}
		}
		counts := dayCounts(patients, 2, 1.3)
		runtime.GC()
		start := time.Now()
		for day, count := range counts {
			adms := sc.Admissions(count, day)
			if err := sc.Admit(kb, adms, workload.AdmitOptions{Batch: 1, LinkHospital: true}); err != nil {
				return nil, err
			}
		}
		pt := RuleScalingPoint{Rules: k, Patients: patients, Elapsed: time.Since(start)}
		if patients > 0 {
			pt.PerPatient = pt.Elapsed / time.Duration(patients)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ---- reporting ----

// WriteRuleScaling prints the rule-count scaling series.
func WriteRuleScaling(w io.Writer, pts []RuleScalingPoint) {
	fmt.Fprintln(w, "Rule scaling — ingest cost vs. number of installed rules on one event")
	fmt.Fprintf(w, "%8s  %10s  %14s  %14s\n", "rules", "patients", "total", "per-patient")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d  %10d  %14s  %14s\n",
			p.Rules, p.Patients, p.Elapsed.Round(time.Microsecond),
			p.PerPatient.Round(time.Nanosecond))
	}
}

// WriteFig9 prints the Fig. 9 series in the paper's axes (patients,
// trigger execution time), then the alert-query latency distribution behind
// each row.
func WriteFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintln(w, "Figure 9 — execution time for triggers enacted at each new patient")
	fmt.Fprintf(w, "%12s  %14s  %14s  %8s\n", "patients", "total", "per-trigger", "alerts")
	for _, p := range pts {
		fmt.Fprintf(w, "%12d  %14s  %14s  %8d\n",
			p.Patients, p.Elapsed.Round(time.Microsecond),
			p.PerTrigger.Round(time.Nanosecond), p.Alerts)
	}
	writeAlertQuerySummaries(w, pts, func(p Fig9Point) (int, string) { return p.Patients, p.AlertQuery })
}

// writeAlertQuerySummaries prints one alert-query latency histogram line per
// point that recorded one (captured on the point's last repetition).
func writeAlertQuerySummaries[T any](w io.Writer, pts []T, get func(T) (int, string)) {
	printed := false
	for _, p := range pts {
		n, s := get(p)
		if s == "" {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "alert-query latency (rkm_trigger_alert_query_seconds, last rep):")
			printed = true
		}
		fmt.Fprintf(w, "%12d  %s\n", n, s)
	}
}

// WriteFig10 prints the Fig. 10 series (summary computation time and
// trigger execution time per patient count).
func WriteFig10(w io.Writer, pts []Fig10Point) {
	fmt.Fprintln(w, "Figure 10 — summary computation and per-summary trigger execution")
	fmt.Fprintf(w, "%12s  %14s  %14s  %9s  %8s\n",
		"patients", "summary-time", "trigger-time", "triggers", "alerts")
	for _, p := range pts {
		fmt.Fprintf(w, "%12d  %14s  %14s  %9d  %8d\n",
			p.Patients, p.SummaryTime.Round(time.Microsecond),
			p.TriggerTime.Round(time.Microsecond), p.Triggers, p.Alerts)
	}
	writeAlertQuerySummaries(w, pts, func(p Fig10Point) (int, string) { return p.Patients, p.AlertQuery })
}

// WriteAblation prints the naive-vs-summary comparison across region counts.
func WriteAblation(w io.Writer, pts []AblationPoint) {
	fmt.Fprintln(w, "Ablation — naive vs. summary rule overhead across region counts")
	fmt.Fprintf(w, "%8s  %10s  %12s  %12s  %12s  %8s\n",
		"regions", "patients", "baseline", "naive-ovh", "summary-ovh", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d  %10d  %12s  %12s  %12s  %7.1fx\n",
			p.Regions, p.Patients, p.Baseline.Round(time.Microsecond),
			p.NaiveOverhead.Round(time.Microsecond),
			p.SummaryOverhead.Round(time.Microsecond), p.Speedup)
	}
}
