package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/workload"
)

// lib-ingest-large: the paper's E1/E2 (Fig. 9 / Fig. 10) in process, on a
// manual clock, with no HTTP and no WAL. Every write is a single-patient
// transaction into a preloaded graph, so per-commit work that grows with
// the graph is what the run is made of.
const (
	ingestRegions = 20
	ingestSmall   = 5_000  // phase A preload (traced runs only)
	ingestLarge   = 50_000 // phase B/C preload
	// Preloaded patients sit on a day no rule compares against; a handful
	// per region on day 0 make day-1 admissions trip the naive rule early.
	ingestHistoricDay = -10
	ingestDay0PerReg  = 10
	ingestNaiveDay    = 1
	ingestSummaryDay0 = 100 // first Fig. 10 day
	ingestMinDays     = 2
	summaryRuleName   = "fig10-summary"
	ingestReadQuery   = `MATCH (p:Patient {regionDay: $k})-[:TreatedAt]->(h:Hospital)
	                     RETURN count(p) AS n, count(DISTINCT h) AS hospitals`
)

// ingestModel is the reference the engine's answers are checked against:
// plain counters per (region, day), with the two rules' conditions restated
// in Go.
type ingestModel struct {
	patients map[string]int // regionDay key -> admitted patients
}

func growth(today, yesterday int) bool {
	return yesterday > 0 && float64(today-yesterday)/float64(today) > workload.NaiveRuleThreshold
}

// admit records one admission and reports whether the naive rule must
// alert on it.
func (m *ingestModel) admit(a workload.Admission) bool {
	m.patients[a.RegionDay]++
	return growth(m.patients[a.RegionDay], m.patients[workload.RegionDayKey(a.Region, a.Day-1)])
}

// flagged lists the regions the summary rule must alert on when day closes.
// The first Fig. 10 day has no previous daily statistic to compare with.
func (m *ingestModel) flagged(regions []string, day int) []string {
	var out []string
	if day == ingestSummaryDay0 {
		return out
	}
	for _, r := range regions {
		if growth(m.patients[workload.RegionDayKey(r, day)], m.patients[workload.RegionDayKey(r, day-1)]) {
			out = append(out, r)
		}
	}
	return out
}

// ingestKB is one preloaded knowledge base with its scenario and model.
type ingestKB struct {
	kb        *core.KnowledgeBase
	sc        *workload.Scenario
	hospitals map[string][]graph.NodeID
	model     *ingestModel
	ex        executor
	op        int
	rep       trigger.Report // summed over the admissions
}

func buildIngestKB(seed int64, patients int) (*ingestKB, error) {
	kb, _ := newManualKB()
	sc, err := workload.Build(kb, workload.Config{
		Seed: seed, Regions: ingestRegions, HospitalsPerRegion: 2, LabsPerRegion: 1,
	})
	if err != nil {
		return nil, err
	}
	k := &ingestKB{
		kb: kb, sc: sc, ex: direct{kb},
		hospitals: make(map[string][]graph.NodeID),
		model:     &ingestModel{patients: make(map[string]int)},
	}
	err = kb.Store().View(func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel("Hospital") {
			name, _ := tx.NodeProp(id, "name")
			s, _ := name.AsString()
			region, _, _ := strings.Cut(s, "/")
			k.hospitals[region] = append(k.hospitals[region], id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ids := range k.hospitals {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	name, guard, alert := workload.NaiveRuleSpec()
	rules := []trigger.Rule{{
		Name: name, Hub: "R", Guard: guard, Alert: alert,
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
	}}
	name, guard, alert = workload.SummaryRuleSpec()
	rules = append(rules, trigger.Rule{
		Name: name, Hub: "R", Guard: guard, Alert: alert,
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "DailyRegionStat"},
	})
	for _, r := range rules {
		if err := kb.InstallRule(r); err != nil {
			return nil, err
		}
		if err := kb.PauseRule(r.Name); err != nil { // rules sleep through the bulk load
			return nil, err
		}
	}
	adms := sc.Admissions(patients, ingestHistoricDay)
	for _, region := range sc.Regions() {
		for i := 0; i < ingestDay0PerReg; i++ {
			adms = append(adms, workload.Admission{
				ID: fmt.Sprintf("d0-%s-%d", region, i), Region: region, Day: 0,
				RegionDay: workload.RegionDayKey(region, 0),
			})
		}
	}
	for start := 0; start < len(adms); start += 1000 {
		chunk := adms[start:min(start+1000, len(adms))]
		if _, err := kb.WriteTx(func(tx *graph.Tx) error {
			for i, a := range chunk {
				if err := k.admitInto(tx, a, start+i, false); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for _, a := range adms {
		k.model.patients[a.RegionDay]++
	}
	return k, kb.ResumeRule(workload.NaiveRule())
}

// admitInto is the body of workload.Scenario.Admit for one patient, kept
// here so the staged path can put a span around it.
func (k *ingestKB) admitInto(tx *graph.Tx, a workload.Admission, n int, stats bool) error {
	pid, err := tx.CreateNode([]string{"Patient"}, map[string]value.Value{
		"id":        value.Str(a.ID),
		"region":    value.Str(a.Region),
		"day":       value.Int(int64(a.Day)),
		"regionDay": value.Str(a.RegionDay),
		"hub":       value.Str("C"),
	})
	if err != nil {
		return err
	}
	hs := k.hospitals[a.Region]
	if _, err := tx.CreateRel(pid, hs[n%len(hs)], "TreatedAt", nil); err != nil {
		return err
	}
	if !stats {
		return nil
	}
	// The Fig. 10 design's extra step: bump the running (region, day) counter.
	ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(a.RegionDay))
	if len(ids) > 0 {
		cur, _ := tx.NodeProp(ids[0], "patients")
		c, _ := cur.AsInt()
		return tx.SetNodeProp(ids[0], "patients", value.Int(c+1))
	}
	_, err = tx.CreateNode([]string{"RegionStat"}, map[string]value.Value{
		"key": value.Str(a.RegionDay), "region": value.Str(a.Region),
		"day": value.Int(int64(a.Day)), "patients": value.Int(1),
	})
	return err
}

// alertRegions lists, sorted, the region property of the alert nodes a
// transaction's rule activations created.
func (k *ingestKB) alertRegions(rep *trigger.Report) []string {
	var out []string
	_ = k.kb.Store().View(func(tx *graph.Tx) error {
		for _, act := range rep.Activations {
			for _, id := range act.Alerts {
				v, _ := tx.NodeProp(id, "region")
				s, _ := v.AsString()
				out = append(out, s)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// closeDayInto is the body of workload.Scenario.CloseDay.
func (k *ingestKB) closeDayInto(tx *graph.Tx, day int) error {
	for _, region := range k.sc.Regions() {
		key := workload.RegionDayKey(region, day)
		ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(key))
		if len(ids) == 0 {
			continue
		}
		cnt, _ := tx.NodeProp(ids[0], "patients")
		if _, err := tx.CreateNode([]string{"DailyRegionStat"}, map[string]value.Value{
			"key": value.Str(key), "region": value.Str(region),
			"day": value.Int(int64(day)), "patients": cnt,
		}); err != nil {
			return err
		}
	}
	return nil
}

// admitOne is one write operation plus its reference check: the naive rule
// must alert exactly when the model says so.
func (k *ingestKB) admitOne(c *collector, a workload.Admission, stats bool) {
	k.op++
	t0 := time.Now()
	rep, err := k.ex.write(k.op, func(tx *graph.Tx) error { return k.admitInto(tx, a, k.op, stats) })
	c.observe(classWrite, time.Since(t0))
	want := 0
	if k.model.admit(a) && !stats { // the naive rule sleeps through the Fig. 10 phase
		want = 1
	}
	if err != nil {
		c.fail("admit %s: %v", a.ID, err)
	} else {
		if rep.AlertNodes != want {
			c.fail("admit %s: %d alert(s), model says %d", a.ID, rep.AlertNodes, want)
		}
		addReport(&k.rep, rep)
	}
}

// readOne is one read operation: the patients of one (region, day) joined to
// their hospitals, checked against the model's count.
func (k *ingestKB) readOne(c *collector, key string) {
	k.op++
	t0 := time.Now()
	res, err := k.ex.query(k.op, ingestReadQuery, map[string]value.Value{"k": value.Str(key)})
	c.observe(classRead, time.Since(t0))
	if err != nil {
		c.fail("read %s: %v", key, err)
		return
	}
	got := int64(-1)
	if len(res.Rows) == 1 {
		got, _ = res.Rows[0][0].AsInt()
	}
	if got != int64(k.model.patients[key]) {
		c.fail("read %s: %d patients, model says %d", key, got, k.model.patients[key])
	}
}

// naivePhase admits single patients under the naive rule (Fig. 9's setting:
// one activation per transaction) until the deadline, one read per write.
func (k *ingestKB) naivePhase(c *collector, deadline time.Time) {
	for time.Now().Before(deadline) {
		a := k.sc.Admissions(1, ingestNaiveDay)[0]
		k.admitOne(c, a, false)
		k.readOne(c, a.RegionDay)
	}
}

// dayFlags is what one closed Fig. 10 day produced.
type dayFlags struct {
	day     int
	adms    []workload.Admission
	regions []string // regions the summary rule alerted on
}

// summaryPhase runs Fig. 10 days until the deadline (at least
// ingestMinDays): admissions that maintain the running statistic, then a
// day close on which the summary rule fires once per region. closeMS
// collects the day-close times.
func (k *ingestKB) summaryPhase(c *collector, deadline time.Time, perDay int, closeMS *[]float64) ([]dayFlags, error) {
	if err := k.kb.PauseRule(workload.NaiveRule()); err != nil {
		return nil, err
	}
	if err := k.kb.ResumeRule(summaryRuleName); err != nil {
		return nil, err
	}
	var days []dayFlags
	for d := 0; d < ingestMinDays || time.Now().Before(deadline); d++ {
		day := ingestSummaryDay0 + d
		adms := k.sc.Admissions(perDay+perDay/2*(d%2), day)
		for _, a := range adms {
			k.admitOne(c, a, true)
			k.readOne(c, a.RegionDay)
		}
		k.op++
		t0 := time.Now()
		rep, err := k.ex.write(k.op, func(tx *graph.Tx) error { return k.closeDayInto(tx, day) })
		el := time.Since(t0)
		c.observe(classMaint, el)
		*closeMS = append(*closeMS, float64(el)/1e6)
		want := k.model.flagged(k.sc.Regions(), day)
		var got []string
		if err != nil {
			c.fail("close day %d: %v", day, err)
		} else if got = k.alertRegions(rep); !slices.Equal(got, want) {
			c.fail("close day %d: alerts for %v, model says %v", day, got, want)
		}
		days = append(days, dayFlags{day: day, adms: adms, regions: got})
	}
	return days, nil
}

// checkEquivalence replays the Fig. 10 days' admissions under the naive rule
// on a small knowledge base and requires the same (region, day) pairs to be
// flagged: the paper's claim that the summary redesign loses no alert.
func checkEquivalence(c *collector, small *ingestKB, days []dayFlags) {
	naive := make(map[string]bool)
	for _, d := range days {
		for i, a := range d.adms {
			rep, err := small.kb.WriteTx(func(tx *graph.Tx) error { return small.admitInto(tx, a, i, false) })
			if err != nil {
				c.fail("equivalence replay %s: %v", a.ID, err)
				return
			}
			if rep.AlertNodes > 0 {
				naive[a.RegionDay] = true
			}
		}
	}
	summary := make(map[string]bool)
	for _, d := range days {
		for _, r := range d.regions {
			summary[workload.RegionDayKey(r, d.day)] = true
		}
	}
	same := len(naive) == len(summary)
	for k := range summary {
		same = same && naive[k]
	}
	c.check(same, "equivalence: naive flagged %d (region, day) pairs, summary flagged %d", len(naive), len(summary))
}

// ingestSetup builds and warms the knowledge bases of one run.
type ingestState struct{ small, large *ingestKB }

func (s *ingestState) setup(cfg runConfig, c *collector) error {
	var err error
	if s.small, err = buildIngestKB(cfg.seed, cfg.scale(ingestSmall)); err != nil {
		return err
	}
	if s.large, err = buildIngestKB(cfg.seed+1, cfg.scale(ingestLarge)); err != nil {
		return err
	}
	// Warm-up: every statement shape once, so plan compilation and lazy
	// set-up are not timed.
	for _, k := range []*ingestKB{s.small, s.large} {
		for _, a := range k.sc.Admissions(5, ingestNaiveDay) {
			k.admitOne(c, a, false)
			k.readOne(c, a.RegionDay)
		}
	}
	return nil
}

func (s *ingestState) teardown() {
	s.small, s.large = nil, nil
	runtime.GC()
}

func runLibIngest(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceLibIngest(cfg)
	}
	var st ingestState
	warm := newCollector()
	setupS, err := medianSetup(cfg.setupReps(false), func() error { return st.setup(cfg, warm) }, st.teardown)
	if err != nil {
		return nil, err
	}
	c := newCollector()
	heap := liveHeapMB()
	cpu0, t0 := selfCPU(), time.Now()
	st.large.naivePhase(c, t0.Add(time.Duration(0.6*cfg.seconds*float64(time.Second))))
	var closeMS []float64
	days, err := st.large.summaryPhase(c, t0.Add(time.Duration(cfg.seconds*float64(time.Second))), 40, &closeMS)
	if err != nil {
		return nil, err
	}
	elapsed, cpu := time.Since(t0).Seconds(), selfCPU()-cpu0
	checkEquivalence(c, st.small, days)
	runtime.KeepAlive(st)
	c.failed += warm.failed
	c.notes = append(c.notes, warm.notes...)
	return endToEnd(c, elapsed, setupS, heap, cpu), nil
}
