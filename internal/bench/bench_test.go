package bench

import (
	"strings"
	"testing"
	"time"
)

func TestRunFig9ShapeSmall(t *testing.T) {
	cfg := Config{PatientCounts: []int{50, 200}, Regions: 4, Days: 2, Seed: 1, Batch: 1}
	pts, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Patients != 50 || pts[1].Patients != 200 {
		t.Error("sweep order")
	}
	// More patients must cost more total time (linear-ish growth).
	if pts[1].Elapsed <= pts[0].Elapsed {
		t.Errorf("naive total time should grow: %v then %v", pts[0].Elapsed, pts[1].Elapsed)
	}
	// Day-1 growth fires alerts.
	if pts[1].Alerts == 0 {
		t.Error("expected alerts at larger N")
	}
	if pts[0].PerTrigger <= 0 {
		t.Error("per-trigger time")
	}
}

func TestRunFig10ShapeSmall(t *testing.T) {
	cfg := Config{PatientCounts: []int{50, 400}, Regions: 4, Days: 2, Seed: 1, Batch: 10}
	pts, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("points")
	}
	// Summary computation grows with patients.
	if pts[1].SummaryTime <= pts[0].SummaryTime {
		t.Errorf("summary time should grow with N: %v then %v",
			pts[0].SummaryTime, pts[1].SummaryTime)
	}
	// Trigger executions depend only on regions × (days-1).
	if pts[0].Triggers != 4 || pts[1].Triggers != 4 {
		t.Errorf("trigger counts: %d, %d (want 4, 4)", pts[0].Triggers, pts[1].Triggers)
	}
}

func TestRunAblation(t *testing.T) {
	pts, err := RunAblation(300, []int{2, 6}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Regions != 2 || pts[1].Regions != 6 {
		t.Fatalf("points: %+v", pts)
	}
	for _, p := range pts {
		if p.Naive <= 0 || p.Summary <= 0 {
			t.Errorf("non-positive timings: %+v", p)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if len(c.PatientCounts) == 0 || c.Regions != 20 || c.Days != 2 || c.Batch != 1 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestWriters(t *testing.T) {
	var sb strings.Builder
	WriteFig9(&sb, []Fig9Point{{Patients: 10, Elapsed: time.Millisecond, PerTrigger: 100 * time.Microsecond, Alerts: 1}})
	if !strings.Contains(sb.String(), "Figure 9") || !strings.Contains(sb.String(), "10") {
		t.Error("fig9 output")
	}
	sb.Reset()
	WriteFig10(&sb, []Fig10Point{{Patients: 10, SummaryTime: time.Millisecond, TriggerTime: time.Millisecond, Triggers: 4}})
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Error("fig10 output")
	}
	sb.Reset()
	WriteAblation(&sb, []AblationPoint{{Regions: 5, Patients: 100, Naive: time.Second, Summary: time.Millisecond, Speedup: 1000}})
	if !strings.Contains(sb.String(), "Ablation") || !strings.Contains(sb.String(), "1000.0x") {
		t.Error("ablation output")
	}
	for _, c := range []struct {
		write func()
		want  []string
	}{
		{func() { WriteAsync(&sb, []AsyncPoint{{Mode: "baseline"}, {Mode: "sync"}, {Mode: "async"}}) },
			[]string{"mode", "baseline", "sync", "async", "drain"}},
		{func() { WriteReplica(&sb, []ReplicaPoint{{Followers: 1}}) },
			[]string{"reads/sec", "followers", "lag-recs", "caught-up"}},
	} {
		sb.Reset()
		c.write()
		for _, want := range c.want {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("output missing %q:\n%s", want, sb.String())
			}
		}
	}
}

func TestRunRuleScaling(t *testing.T) {
	pts, err := RunRuleScaling(200, []int{1, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Rules != 1 || pts[1].Rules != 8 {
		t.Fatalf("points: %+v", pts)
	}
	// More rules on the same event cannot be cheaper.
	if pts[1].Elapsed < pts[0].Elapsed/2 {
		t.Errorf("rule scaling suspicious: %v then %v", pts[0].Elapsed, pts[1].Elapsed)
	}
	var sb strings.Builder
	WriteRuleScaling(&sb, pts)
	if !strings.Contains(sb.String(), "Rule scaling") {
		t.Error("writer output")
	}
}
