package workload

import (
	"testing"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/periodic"
)

func TestFraudStreamDeterministic(t *testing.T) {
	s1, err := BuildFraud(newKB(), FraudConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := BuildFraud(newKB(), FraudConfig{Seed: 9})
	for m := 0; m < 30; m++ {
		e1, e2 := s1.Minute(m), s2.Minute(m)
		if len(e1) != len(e2) {
			t.Fatalf("minute %d: %d vs %d events", m, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("minute %d event %d differs: %+v vs %+v", m, i, e1[i], e2[i])
			}
		}
	}
}

func TestFraudStreamSeedsAnomalies(t *testing.T) {
	// Rates sized so 200 minutes of stream contain every anomaly.
	s, err := BuildFraud(newKB(), FraudConfig{
		Seed: 1, BurstChance: 0.10, PairChance: 0.10, MissingConfirmRate: 0.25, FlagNoise: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bursts, bigs, confirms int
	for m := 0; m < 200; m++ {
		flaggedPerAccount := map[string]int{}
		for _, ev := range s.Minute(m) {
			switch {
			case ev.Kind == FraudConfirmation:
				confirms++
			case ev.Flagged:
				flaggedPerAccount[ev.Account]++
			case ev.Amount > 900:
				bigs++
			}
		}
		for _, n := range flaggedPerAccount {
			if n >= 3 {
				bursts++
			}
		}
	}
	if bursts == 0 || bigs == 0 || confirms == 0 {
		t.Fatalf("anomalies missing: bursts=%d bigs=%d confirms=%d", bursts, bigs, confirms)
	}
	// Big transactions come in pairs and some confirmations go missing, so
	// strictly fewer confirmations than big transactions.
	if confirms >= bigs {
		t.Errorf("expected missing confirmations: bigs=%d confirms=%d", bigs, confirms)
	}
}

// TestFraudCompositeEndToEnd runs an hour of the stream against the full
// composite-rule pack and expects every anomaly class to surface as alerts.
func TestFraudCompositeEndToEnd(t *testing.T) {
	clock := periodic.NewManualClock(time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC))
	kb := core.New(core.Config{Clock: clock})
	s, err := BuildFraud(kb, FraudConfig{
		Seed: 4, Accounts: 20, TxnsPerMinute: 10,
		BurstChance: 0.3, PairChance: 0.3, MissingConfirmRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cep.Enable(kb, cep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range CompositeRulePack(5 * time.Minute) {
		if err := kb.InstallRule(r); err != nil {
			t.Fatalf("install %s: %v", r.Name, err)
		}
	}
	for min := 0; min < 60; min++ {
		if err := s.Ingest(kb, s.Minute(min), IngestOptions{Batch: 4}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
		if _, err := m.DrainOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the last absence windows lapse.
	clock.Advance(10 * time.Minute)
	if _, err := m.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[string]int{}
	for _, a := range alerts {
		byRule[a.Rule]++
	}
	for _, rule := range []string{VelocityRule, BigPairRule, UnconfirmedRule} {
		if byRule[rule] == 0 {
			t.Errorf("no alerts for %s (got %v)", rule, byRule)
		}
	}
}

func TestFraudNaiveVelocityRule(t *testing.T) {
	kb := newKB()
	s, err := BuildFraud(kb, FraudConfig{
		Seed: 4, Accounts: 20, TxnsPerMinute: 10, BurstChance: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kb.InstallRule(NaiveVelocityRuleSpec(5)); err != nil {
		t.Fatal(err)
	}
	for min := 0; min < 30; min++ {
		if err := s.Ingest(kb, s.Minute(min), IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, a := range alerts {
		if a.Rule == NaiveVelocityRule() {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("naive velocity rule never fired")
	}
}
