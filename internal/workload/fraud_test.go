package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
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

// TestGuardFamiliesFraudStreamStats drives a fixed fraud stream, in batches of
// four events per transaction, against the lib-rules-fanout pack: the
// composite pack, the naive velocity rule and one threshold rule per account.
// In front sits a rule that caps large amounts with a DO SET, so a member of
// the amount family passes and writes before the composite steps of that
// family read it. Every guard and step count below — per rule and summed —
// was recorded with each guard evaluated whole; reading a family's path once
// per event must not move any of them.
func TestGuardFamiliesFraudStreamStats(t *testing.T) {
	clock := periodic.NewManualClock(time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC))
	kb := core.New(core.Config{Clock: clock})
	const accounts = 40
	s, err := BuildFraud(kb, FraudConfig{
		Seed: 7, Accounts: accounts, Merchants: 10, TxnsPerMinute: 20,
		BurstChance: 0.3, PairChance: 0.3, MissingConfirmRate: 0.25, FlagNoise: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cep.Enable(kb, cep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rules := []trigger.Rule{{
		Name: "cap", Hub: "P",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
		Guard:  "NEW.amount >= 960",
		Action: "SET NEW.amount = 900",
	}}
	rules = append(rules, CompositeRulePack(5*time.Minute)...)
	rules = append(rules, NaiveVelocityRuleSpec(5))
	for i := 0; i < accounts; i++ {
		guard := fmt.Sprintf("NEW.account = '%s'", AccountName(i))
		if i%2 == 1 {
			guard = fmt.Sprintf("'%s' = NEW.account", AccountName(i))
		}
		rules = append(rules, trigger.Rule{
			Name: fmt.Sprintf("thr-%03d", i), Hub: "P",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
			Guard: guard,
			Alert: `MATCH (t:Txn {account: NEW.account})
			        WITH NEW.account AS account, count(t) AS live
			        WHERE live >= 4
			        RETURN account, live`,
		})
	}
	for _, r := range rules {
		if err := kb.InstallRule(r); err != nil {
			t.Fatalf("install %s: %v", r.Name, err)
		}
	}
	var sum trigger.Report
	for minute := 0; minute < 30; minute++ {
		evs := s.Minute(minute)
		for start := 0; start < len(evs); start += 4 {
			chunk := evs[start:min(start+4, len(evs))]
			rep, err := kb.WriteTx(func(tx *graph.Tx) error {
				for _, ev := range chunk {
					props := map[string]value.Value{
						"id": value.Str(ev.ID), "account": value.Str(ev.Account), "hub": value.Str("P"),
					}
					label := "Confirmation"
					if ev.Kind == FraudTxn {
						label = "Txn"
						props["amount"] = value.Int(ev.Amount)
						props["flagged"] = value.Bool(ev.Flagged)
					}
					if _, err := tx.CreateNode([]string{label}, props); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sum.Merge(rep)
		}
		clock.Advance(time.Minute)
		if _, err := m.DrainOnce(); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for _, ri := range kb.Rules() {
		fmt.Fprintf(h, "%s %d %d %d\n", ri.Name, ri.Stats.GuardChecks, ri.Stats.Activations, ri.Stats.AlertNodes)
	}
	got := fmt.Sprintf("rounds=%d checks=%d passes=%d alertRuns=%d alertNodes=%d steps=%d activations=%d rules=%x",
		sum.Rounds, sum.GuardChecks, sum.GuardPasses, sum.AlertRuns, sum.AlertNodes,
		sum.CompositeSteps, len(sum.Activations), h.Sum(nil)[:8])
	const want = "rounds=356 checks=30750 passes=824 alertRuns=722 alertNodes=553 steps=76 activations=748 rules=bcaf224ce6f7885f"
	if got != want {
		t.Errorf("stream stats moved:\n got  %s\n want %s", got, want)
	}
	// A family's path is read once per event of the batch, and again only
	// after a passing member wrote, not once per member: about 7 reads per
	// Txn event against 47 checks.
	if sum.GuardEvals*4 > sum.GuardChecks {
		t.Errorf("GuardEvals = %d of %d checks: the families are not shared", sum.GuardEvals, sum.GuardChecks)
	}
}
