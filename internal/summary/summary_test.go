package summary

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

var day0 = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

func day(n int) time.Time { return day0.Add(time.Duration(n) * 24 * time.Hour) }

func TestEnsureCurrentCreatesFirstSummary(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	_ = s.Update(func(tx *graph.Tx) error {
		if _, ok := m.Current(tx); ok {
			t.Error("empty store should have no current")
		}
		id, err := m.EnsureCurrent(tx, day(0))
		if err != nil {
			return err
		}
		if !tx.NodeHasLabel(id, "Summary") || !tx.NodeHasLabel(id, "Current") {
			t.Error("first summary labels")
		}
		if d, ok := m.Date(tx, id); !ok || !d.Equal(day(0)) {
			t.Error("first summary date")
		}
		// Idempotent.
		id2, err := m.EnsureCurrent(tx, day(0).Add(time.Hour))
		if err != nil {
			return err
		}
		if id2 != id {
			t.Error("EnsureCurrent must not duplicate")
		}
		return nil
	})
}

func TestRolloverMovesCurrent(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	var first, second graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		var err error
		first, err = m.EnsureCurrent(tx, day(0))
		if err != nil {
			return err
		}
		second, err = m.Rollover(tx, day(1))
		return err
	})
	_ = s.View(func(tx *graph.Tx) error {
		if tx.NodeHasLabel(first, "Current") {
			t.Error("previous summary must lose Current")
		}
		if !tx.NodeHasLabel(second, "Current") {
			t.Error("new summary must be Current")
		}
		rels := tx.RelsOf(first, graph.Outgoing, []string{"next"})
		if len(rels) != 1 || rels[0].End != second {
			t.Error("next chain")
		}
		if cur, ok := m.Current(tx); !ok || cur != second {
			t.Error("Current lookup")
		}
		return nil
	})
}

func TestRolloverIfDue(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	_ = s.Update(func(tx *graph.Tx) error {
		if _, err := m.EnsureCurrent(tx, day(0)); err != nil {
			return err
		}
		// 12 hours later: not due (Fig. 8's 24h check).
		rolled, _, err := m.RolloverIfDue(tx, day(0).Add(12*time.Hour))
		if err != nil {
			return err
		}
		if rolled {
			t.Error("should not roll before the period elapses")
		}
		// 24 hours later: due.
		rolled, cur, err := m.RolloverIfDue(tx, day(1))
		if err != nil {
			return err
		}
		if !rolled {
			t.Error("should roll at the period boundary")
		}
		if d, _ := m.Date(tx, cur); !d.Equal(day(1)) {
			t.Error("new current date")
		}
		return nil
	})
}

func TestChainAndPrevious(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	ids := make([]graph.NodeID, 4)
	_ = s.Update(func(tx *graph.Tx) error {
		var err error
		ids[0], err = m.EnsureCurrent(tx, day(0))
		if err != nil {
			return err
		}
		for i := 1; i < 4; i++ {
			ids[i], err = m.Rollover(tx, day(i))
			if err != nil {
				return err
			}
		}
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		chain := m.Chain(tx)
		if len(chain) != 4 {
			t.Fatalf("chain length = %d", len(chain))
		}
		for i := range chain {
			if chain[i] != ids[i] {
				t.Errorf("chain[%d] = %d, want %d", i, chain[i], ids[i])
			}
		}
		if prev, ok := m.Previous(tx, 1); !ok || prev != ids[2] {
			t.Error("Previous(1)")
		}
		if prev, ok := m.Previous(tx, 3); !ok || prev != ids[0] {
			t.Error("Previous(3)")
		}
		if _, ok := m.Previous(tx, 4); ok {
			t.Error("Previous past the head should fail")
		}
		return nil
	})
}

func TestPreviousOnEmpty(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	_ = s.View(func(tx *graph.Tx) error {
		if _, ok := m.Previous(tx, 1); ok {
			t.Error("Previous on empty structure")
		}
		if m.Chain(tx) != nil {
			t.Error("Chain on empty structure")
		}
		return nil
	})
}

// makeAlert creates an alert-like node and attaches it to the current
// summary, mimicking the rule engine's behaviour.
func makeAlert(t *testing.T, tx *graph.Tx, m *Manager, now time.Time, rule, region string, count int64) graph.NodeID {
	t.Helper()
	id, err := tx.CreateNode([]string{"Alert"}, map[string]value.Value{
		"rule":        value.Str(rule),
		"Region":      value.Str(region),
		"IcuPatients": value.Int(count),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachAlert(tx, id, now); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAttachAlertAndAlerts(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	var a1, a2 graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		a1 = makeAlert(t, tx, m, day(0), "R5", "Lombardy", 10)
		a2 = makeAlert(t, tx, m, day(0), "R5", "Veneto", 4)
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		cur, _ := m.Current(tx)
		alerts := m.Alerts(tx, cur)
		if len(alerts) != 2 || alerts[0] != a1 || alerts[1] != a2 {
			t.Errorf("alerts = %v", alerts)
		}
		return nil
	})
}

// TestR4PrimeScenario reproduces the paper's R4' walkthrough: daily R5
// alerts record regional ICU counts; yesterday's count is read from the
// previous summary.
func TestR4PrimeScenario(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	_ = s.Update(func(tx *graph.Tx) error {
		makeAlert(t, tx, m, day(0), "R5", "Lombardy", 100)
		if _, err := m.Rollover(tx, day(1)); err != nil {
			return err
		}
		makeAlert(t, tx, m, day(1), "R5", "Lombardy", 120)
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		prev, ok := m.Previous(tx, 1)
		if !ok {
			t.Fatal("no previous summary")
		}
		alerts := m.Alerts(tx, prev)
		if len(alerts) != 1 {
			t.Fatalf("yesterday's alerts = %d", len(alerts))
		}
		v, _ := tx.NodeProp(alerts[0], "IcuPatients")
		yesterday, _ := v.AsInt()
		if yesterday != 100 {
			t.Errorf("yesterday ICU = %d", yesterday)
		}
		// Today's value: 120; increase (120-100)/120 > 0.1 → critical.
		increase := float64(120-yesterday) / 120.0
		if increase <= 0.1 {
			t.Error("scenario should be critical")
		}
		return nil
	})
}

func TestWindowAndMovingAverage(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	counts := []int64{100, 120, 90, 130}
	_ = s.Update(func(tx *graph.Tx) error {
		for i, c := range counts {
			if i > 0 {
				if _, err := m.Rollover(tx, day(i)); err != nil {
					return err
				}
			}
			makeAlert(t, tx, m, day(i), "R5", "Lombardy", c)
			// A second region must not pollute the filtered window.
			makeAlert(t, tx, m, day(i), "R5", "Veneto", 1)
		}
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		f := WindowFilter{
			Rule:  "R5",
			Prop:  "IcuPatients",
			Where: map[string]value.Value{"Region": value.Str("Lombardy")},
		}
		win := m.Window(tx, 3, f)
		if len(win) != 3 {
			t.Fatalf("window size = %d", len(win))
		}
		// Last three days: 120, 90, 130.
		want := []int64{120, 90, 130}
		for i, w := range want {
			if got, _ := win[i].AsInt(); got != w {
				t.Errorf("window[%d] = %s, want %d", i, win[i], w)
			}
		}
		avg, ok := m.MovingAverage(tx, 3, f)
		if !ok || avg != (120+90+130)/3.0 {
			t.Errorf("moving average = %v (ok=%v)", avg, ok)
		}
		// A filter matching nothing yields NULLs and no average.
		none := WindowFilter{Rule: "R9", Prop: "IcuPatients"}
		if _, ok := m.MovingAverage(tx, 3, none); ok {
			t.Error("average over empty window")
		}
		return nil
	})
}

func TestWindowWiderThanChain(t *testing.T) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	_ = s.Update(func(tx *graph.Tx) error {
		makeAlert(t, tx, m, day(0), "R5", "Lombardy", 7)
		return nil
	})
	_ = s.View(func(tx *graph.Tx) error {
		win := m.Window(tx, 10, WindowFilter{Rule: "R5", Prop: "IcuPatients"})
		if len(win) != 1 {
			t.Errorf("window should clamp to chain length, got %d", len(win))
		}
		return nil
	})
}

func BenchmarkRolloverAndAttach(b *testing.B) {
	s := graph.NewStore()
	m := New(24 * time.Hour)
	tx := s.Begin(graph.ReadWrite)
	defer tx.Rollback()
	if _, err := m.EnsureCurrent(tx, day(0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := tx.CreateNode([]string{"Alert"}, map[string]value.Value{
			"rule": value.Str("R"), "IcuPatients": value.Int(int64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AttachAlert(tx, id, day(0)); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if _, err := m.Rollover(tx, day(i/1000+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
