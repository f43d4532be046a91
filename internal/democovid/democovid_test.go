package democovid

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/periodic"
	"repro/internal/trigger"
)

func demoKB(t *testing.T) (*core.KnowledgeBase, *periodic.ManualClock) {
	t.Helper()
	clock := periodic.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))
	kb := core.New(core.Config{Clock: clock})
	if err := Setup(kb); err != nil {
		t.Fatal(err)
	}
	if err := Seed(kb); err != nil {
		t.Fatal(err)
	}
	return kb, clock
}

func alertsByRule(t *testing.T, kb *core.KnowledgeBase) map[string]int {
	t.Helper()
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, a := range alerts {
		out[a.Rule]++
	}
	return out
}

func TestSetupInstallsFiveRules(t *testing.T) {
	kb, _ := demoKB(t)
	rules := kb.Rules()
	if len(rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{"R1", "R2", "R3", "R5", "R4"} {
		if !names[want] {
			t.Errorf("missing rule %s", want)
		}
	}
	// Classifications follow §III-C.
	c1, _ := kb.ClassifyRule("R1")
	if c1.Scope != trigger.IntraHub || c1.State != trigger.SingleState {
		t.Errorf("R1: %+v", c1)
	}
	c2, _ := kb.ClassifyRule("R2")
	if c2.Scope != trigger.InterHub || c2.State != trigger.SingleState {
		t.Errorf("R2: %+v", c2)
	}
	c3, _ := kb.ClassifyRule("R3")
	if c3.Scope != trigger.InterHub {
		t.Errorf("R3: %+v", c3)
	}
	c4, _ := kb.ClassifyRule("R4")
	if c4.State != trigger.MultiState {
		t.Errorf("R4 should be multi-state: %+v", c4)
	}
	// The rule set terminates.
	if cycles := kb.CheckTermination(); len(cycles) > 0 {
		t.Errorf("triggering cycles: %v", cycles)
	}
}

func TestR1FiresOnCriticalMutation(t *testing.T) {
	kb, _ := demoKB(t)
	if _, err := kb.Execute(`MATCH (ef:Effect {level: 'critical'})
		CREATE (:Mutation {id: 'S:E484K', hub: 'E'})-[:HasEffect]->(ef)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Execute(`MATCH (ef:Effect {level: 'moderate'})
		CREATE (:Mutation {id: 'S:D614G', hub: 'E'})-[:HasEffect]->(ef)`, nil); err != nil {
		t.Fatal(err)
	}
	counts := alertsByRule(t, kb)
	if counts["R1"] != 1 {
		t.Errorf("R1 alerts = %d, want 1 (only the critical effect)", counts["R1"])
	}
}

func TestR2ThresholdPerRegion(t *testing.T) {
	kb, _ := demoKB(t)
	// 4 unassigned sequences in Lombardy; threshold is 3.
	for i := 0; i < 4; i++ {
		if err := AddSequence(kb, "MI-lab-1", fmt.Sprintf("MI-s%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// 2 unassigned in Veneto: below threshold.
	for i := 0; i < 2; i++ {
		if err := AddSequence(kb, "VE-lab-1", fmt.Sprintf("VE-s%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	counts := alertsByRule(t, kb)
	if counts["R2"] != 1 {
		t.Errorf("R2 alerts = %d, want 1 (only Lombardy's 4th sequence crosses)", counts["R2"])
	}
	alerts, _ := kb.Alerts()
	for _, a := range alerts {
		if a.Rule == "R2" {
			if r, _ := a.Props["region"].AsString(); r != "Lombardy" {
				t.Errorf("R2 region = %s", r)
			}
			if c, _ := a.Props["counter"].AsInt(); c != 4 {
				t.Errorf("R2 counter = %d", c)
			}
		}
	}
}

func TestR3CountsCriticalVariantSequences(t *testing.T) {
	kb, _ := demoKB(t)
	// Wire the variant to a critical mutation.
	if _, err := kb.Execute(`MATCH (ef:Effect {level: 'critical'})
		CREATE (:Mutation {id: 'S:N501Y', hub: 'E'})-[:HasEffect]->(ef)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := kb.Execute(`MATCH (v:Variant {name: 'B.1.351'}), (m:Mutation {id: 'S:N501Y'})
		CREATE (v)-[:Contains]->(m)`, nil); err != nil {
		t.Fatal(err)
	}
	// 4 sequences assigned to the critical variant in Lombardy.
	for i := 0; i < 4; i++ {
		if err := AddSequence(kb, "MI-lab-1", fmt.Sprintf("as%d", i), "B.1.351"); err != nil {
			t.Fatal(err)
		}
	}
	// R3 (and R2) trigger on unassigned sequences; add one to evaluate.
	if err := AddSequence(kb, "MI-lab-1", "probe", ""); err != nil {
		t.Fatal(err)
	}
	counts := alertsByRule(t, kb)
	if counts["R3"] != 1 {
		t.Errorf("R3 alerts = %d, want 1", counts["R3"])
	}
}

func TestR4PrimeAcrossDays(t *testing.T) {
	kb, clock := demoKB(t)
	// Day 0: two ICU patients in Lombardy (R5 logs counts 1 and 2).
	for i := 0; i < 2; i++ {
		if err := AdmitIcuPatient(kb, "MI-hosp-1", fmt.Sprintf("d0-p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := alertsByRule(t, kb)
	if counts["R5"] != 2 {
		t.Fatalf("R5 day-0 alerts = %d", counts["R5"])
	}
	if counts["R4"] != 0 {
		t.Fatalf("R4 must stay quiet without a previous period, got %d", counts["R4"])
	}
	// Next day.
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	// Day 1: a third patient → today=3, yesterday(max)=2 → growth 1/3 > 10%.
	if err := AdmitIcuPatient(kb, "MI-hosp-1", "d1-p0"); err != nil {
		t.Fatal(err)
	}
	counts = alertsByRule(t, kb)
	if counts["R4"] != 1 {
		t.Fatalf("R4 alerts = %d, want 1", counts["R4"])
	}
	alerts, _ := kb.Alerts()
	for _, a := range alerts {
		if a.Rule != "R4" {
			continue
		}
		today, _ := a.Props["TodayIcu"].AsInt()
		yesterday, _ := a.Props["YesterdayIcu"].AsInt()
		if today != 3 || yesterday != 2 {
			t.Errorf("R4 counters: today=%d yesterday=%d", today, yesterday)
		}
		if d, _ := a.Props["description"].AsString(); d == "" {
			t.Error("R4 description missing")
		}
	}
}

func TestVenetoIndependentOfLombardy(t *testing.T) {
	kb, clock := demoKB(t)
	// ICU growth in Lombardy only; Veneto stays flat.
	_ = AdmitIcuPatient(kb, "MI-hosp-1", "l0")
	_ = AdmitIcuPatient(kb, "VE-hosp-1", "v0")
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	_ = AdmitIcuPatient(kb, "MI-hosp-1", "l1")
	alerts, _ := kb.Alerts()
	for _, a := range alerts {
		if a.Rule == "R4" {
			if r, _ := a.Props["Region"].AsString(); r != "Lombardy" {
				t.Errorf("R4 fired for %s", r)
			}
		}
	}
}

// TestDemoAlertsReadMaintainedCounts: R2, R3, R4 and R5 count a region's
// sequences or ICU patients, and R4 takes the max of the region's R5 counts
// in the previous Summary; their alerts read a maintained aggregate per
// region instead of matching the region's history or the period's alerts,
// and EXPLAIN says so. R1 aggregates nothing.
func TestDemoAlertsReadMaintainedCounts(t *testing.T) {
	kb, _ := demoKB(t)
	for _, c := range []struct {
		rule  string
		steps []string
	}{
		{"R1", nil},
		{"R2", []string{"MAINTAINED COUNT count(u) per r"}},
		{"R3", []string{"MAINTAINED COUNT count(DISTINCT s) per r"}},
		{"R4", []string{"MAINTAINED COUNT count(i) per r", "MAINTAINED MAX max(a.IcuPatients) per Region"}},
		{"R5", []string{"MAINTAINED COUNT count(i) per r"}},
	} {
		plan, err := kb.ExplainAlert(c.rule)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(plan, "MAINTAINED"); got != len(c.steps) {
			t.Errorf("%s: %d maintained steps in plan, want %d:\n%s", c.rule, got, len(c.steps), plan)
		}
		for _, step := range c.steps {
			if !strings.Contains(plan, step) {
				t.Errorf("%s: plan lacks %q:\n%s", c.rule, step, plan)
			}
		}
		if strings.Contains(plan, ":Alert") || strings.Contains(plan, ":Sequence") || strings.Contains(plan, ":IcuPatient") {
			t.Errorf("%s: plan walks the history:\n%s", c.rule, plan)
		}
	}
}

// TestRuleAlertTimePerRule: an ICU admission runs R5's and R4's alert
// queries, so their alert-time series move; R1's, for mutations, stays 0.
func TestRuleAlertTimePerRule(t *testing.T) {
	kb, _ := demoKB(t)
	micros := func(rule string) (float64, bool) {
		for _, fam := range kb.Metrics().Gather() {
			if fam.Name != "rkm_trigger_rule_alert_microseconds_total" {
				continue
			}
			for _, s := range fam.Samples {
				if s.LabelValue == rule {
					return s.Value, true
				}
			}
		}
		return 0, false
	}
	for i := 0; i < 5; i++ {
		if err := AdmitIcuPatient(kb, "MI-hosp-1", fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rule := range []string{"R1", "R4", "R5"} {
		got, ok := micros(rule)
		if !ok {
			t.Fatalf("no alert-time series for %s", rule)
		}
		if moved := got > 0; moved != (rule != "R1") {
			t.Errorf("%s: %v µs of alert time after five ICU admissions", rule, got)
		}
	}
}
