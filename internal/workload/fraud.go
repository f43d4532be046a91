package workload

// The fraud / transaction-monitoring domain: the second synthetic scenario,
// built to exercise composite events (internal/cep). A payments hub (P)
// holds accounts, transactions and confirmations; a merchants hub (M) holds
// the merchant directory. BuildFraud creates the static graph; Minute
// yields a deterministic per-minute event stream with seeded anomalies —
// flagged-transaction bursts (velocity), high-value transaction pairs, and
// high-value transactions whose confirmation never arrives — each the
// target of one composite rule in CompositeRulePack.
//
// NaiveVelocityRuleSpec is the single-event strawman `lib-rules-fanout` runs
// beside the pack: a plain trigger that fires on every flagged transaction
// and re-scans the account's recent history with an aggregate query, paying
// the scan on the write path instead of keeping O(1) durable partial state.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
)

// FraudConfig parameterizes the transaction-monitoring scenario.
type FraudConfig struct {
	// Seed makes the generated stream deterministic.
	Seed int64
	// Accounts and Merchants size the static graph.
	Accounts  int
	Merchants int
	// TxnsPerMinute is the baseline transaction volume.
	TxnsPerMinute int
	// BurstChance is the per-minute probability of one account emitting a
	// burst of three flagged transactions (the velocity anomaly).
	BurstChance float64
	// PairChance is the per-minute probability of one account emitting two
	// high-value (>900) transactions one minute apart.
	PairChance float64
	// MissingConfirmRate is the fraction of high-value transactions whose
	// confirmation never arrives (the absence anomaly); the rest are
	// confirmed two minutes later.
	MissingConfirmRate float64
	// FlagNoise is the fraction of baseline transactions flagged at random
	// (below-threshold noise for the velocity rule).
	FlagNoise float64
}

func (c FraudConfig) withDefaults() FraudConfig {
	if c.Accounts <= 0 {
		c.Accounts = 50
	}
	if c.Merchants <= 0 {
		c.Merchants = 10
	}
	if c.TxnsPerMinute <= 0 {
		c.TxnsPerMinute = 20
	}
	return c
}

// Fraud event kinds.
const (
	FraudTxn          = "txn"
	FraudConfirmation = "confirmation"
)

// FraudEvent is one element of the transaction stream.
type FraudEvent struct {
	Kind     string // FraudTxn or FraudConfirmation
	ID       string
	Account  string
	Merchant string
	Amount   int64 // transactions only
	Flagged  bool  // transactions only
	Minute   int
}

// FraudScenario generates the deterministic event stream over a built
// fraud graph.
type FraudScenario struct {
	Cfg       FraudConfig
	accounts  []string
	merchants []string
	rng       *rand.Rand
	nextID    int64
	pending   map[int][]FraudEvent // events scheduled for future minutes
}

// AccountName returns the canonical name of account i.
func AccountName(i int) string { return fmt.Sprintf("acct-%03d", i) }

// BuildFraud creates the static fraud graph — the payments hub P (Account,
// Txn, Confirmation), the merchants hub M (Merchant) and the indexes the
// naive re-scan rule relies on — and returns the stream generator.
func BuildFraud(kb *core.KnowledgeBase, cfg FraudConfig) (*FraudScenario, error) {
	cfg = cfg.withDefaults()
	s := &FraudScenario{
		Cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[int][]FraudEvent),
	}
	if err := kb.DefineHub("P", "payments", "Account", "Txn", "Confirmation"); err != nil {
		return nil, err
	}
	if err := kb.DefineHub("M", "merchants", "Merchant"); err != nil {
		return nil, err
	}
	for _, idx := range [][2]string{
		{"Account", "id"},
		{"Txn", "account"},
	} {
		if err := kb.CreateIndex(idx[0], idx[1]); err != nil {
			return nil, err
		}
	}
	err := kb.Store().Update(func(tx *graph.Tx) error {
		for i := 0; i < cfg.Accounts; i++ {
			name := AccountName(i)
			s.accounts = append(s.accounts, name)
			if _, err := tx.CreateNode([]string{"Account"}, map[string]value.Value{
				"id": value.Str(name), "hub": value.Str("P"),
			}); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.Merchants; i++ {
			name := fmt.Sprintf("merch-%02d", i)
			s.merchants = append(s.merchants, name)
			if _, err := tx.CreateNode([]string{"Merchant"}, map[string]value.Value{
				"id": value.Str(name), "hub": value.Str("M"),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Accounts lists the account names.
func (s *FraudScenario) Accounts() []string { return s.accounts }

func (s *FraudScenario) newTxn(minute int, account string, amount int64, flagged bool) FraudEvent {
	s.nextID++
	return FraudEvent{
		Kind:     FraudTxn,
		ID:       fmt.Sprintf("t%d", s.nextID),
		Account:  account,
		Merchant: s.merchants[s.rng.Intn(len(s.merchants))],
		Amount:   amount,
		Flagged:  flagged,
		Minute:   minute,
	}
}

// schedule queues ev for a later minute; emitBig also books (or seeds the
// absence of) the transaction's confirmation.
func (s *FraudScenario) schedule(minute int, ev FraudEvent) {
	ev.Minute = minute
	s.pending[minute] = append(s.pending[minute], ev)
}

func (s *FraudScenario) emitBig(minute int, account string) FraudEvent {
	ev := s.newTxn(minute, account, 901+s.rng.Int63n(4000), false)
	if s.rng.Float64() >= s.Cfg.MissingConfirmRate {
		s.schedule(minute+2, FraudEvent{
			Kind:    FraudConfirmation,
			ID:      "c-" + ev.ID,
			Account: account,
		})
	}
	return ev
}

// Minute generates the event stream of one minute: scheduled deliveries
// (pair closers, confirmations), the baseline volume, and freshly seeded
// anomalies. Calls must proceed minute by minute from 0; the same Seed
// always produces the same stream.
func (s *FraudScenario) Minute(m int) []FraudEvent {
	out := append([]FraudEvent(nil), s.pending[m]...)
	delete(s.pending, m)
	for i := 0; i < s.Cfg.TxnsPerMinute; i++ {
		account := s.accounts[s.rng.Intn(len(s.accounts))]
		flagged := s.rng.Float64() < s.Cfg.FlagNoise
		out = append(out, s.newTxn(m, account, 1+s.rng.Int63n(500), flagged))
	}
	if s.rng.Float64() < s.Cfg.BurstChance {
		account := s.accounts[s.rng.Intn(len(s.accounts))]
		for i := 0; i < 3; i++ {
			out = append(out, s.newTxn(m, account, 1+s.rng.Int63n(500), true))
		}
	}
	if s.rng.Float64() < s.Cfg.PairChance {
		account := s.accounts[s.rng.Intn(len(s.accounts))]
		out = append(out, s.emitBig(m, account))
		s.schedule(m+1, s.emitBig(m+1, account))
	}
	return out
}

// IngestOptions tunes how fraud events are written.
type IngestOptions struct {
	// Batch is the number of events per transaction (default 1: one
	// trigger round per event, event time = commit order).
	Batch int
}

// Ingest writes the events into the knowledge base through the full
// reactive pipeline.
func (s *FraudScenario) Ingest(kb *core.KnowledgeBase, events []FraudEvent, opt IngestOptions) error {
	batch := opt.Batch
	if batch <= 0 {
		batch = 1
	}
	for start := 0; start < len(events); start += batch {
		end := start + batch
		if end > len(events) {
			end = len(events)
		}
		chunk := events[start:end]
		_, err := kb.WriteTx(func(tx *graph.Tx) error {
			for _, ev := range chunk {
				var err error
				switch ev.Kind {
				case FraudTxn:
					_, err = tx.CreateNode([]string{"Txn"}, map[string]value.Value{
						"id":       value.Str(ev.ID),
						"account":  value.Str(ev.Account),
						"merchant": value.Str(ev.Merchant),
						"amount":   value.Int(ev.Amount),
						"flagged":  value.Bool(ev.Flagged),
						"minute":   value.Int(int64(ev.Minute)),
						"hub":      value.Str("P"),
					})
				case FraudConfirmation:
					_, err = tx.CreateNode([]string{"Confirmation"}, map[string]value.Value{
						"id":      value.Str(ev.ID),
						"account": value.Str(ev.Account),
						"minute":  value.Int(int64(ev.Minute)),
						"hub":     value.Str("P"),
					})
				default:
					err = fmt.Errorf("workload: unknown fraud event kind %q", ev.Kind)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Composite rule names of the fraud pack.
const (
	VelocityRule    = "fraud-velocity"
	BigPairRule     = "fraud-big-pair"
	UnconfirmedRule = "fraud-unconfirmed"
)

// CompositeRulePack returns the three composite rules the fraud stream is
// seeded to trip: a flagged-transaction velocity count, a high-value
// transaction pair sequence, and an unconfirmed-transaction absence.
func CompositeRulePack(window time.Duration) []trigger.Rule {
	txn := trigger.Event{Kind: trigger.CreateNode, Label: "Txn"}
	conf := trigger.Event{Kind: trigger.CreateNode, Label: "Confirmation"}
	return []trigger.Rule{
		{
			Name: VelocityRule, Hub: "P",
			Composite: &trigger.Composite{Op: trigger.Count, Threshold: 3, Window: window,
				Steps: []trigger.Step{{Event: txn, Guard: "NEW.flagged", Key: "NEW.account"}}},
			Alert: "RETURN KEY AS account, MATCHES AS hits",
		},
		{
			Name: BigPairRule, Hub: "P",
			Composite: &trigger.Composite{Op: trigger.Sequence, Window: window,
				Steps: []trigger.Step{
					{Event: txn, Guard: "NEW.amount > 900", Key: "NEW.account"},
					{Event: txn, Guard: "NEW.amount > 900", Key: "NEW.account"},
				}},
			Alert: "RETURN KEY AS account, LAST.amount AS amount",
		},
		{
			Name: UnconfirmedRule, Hub: "P",
			Composite: &trigger.Composite{Op: trigger.Sequence, Window: window,
				Steps: []trigger.Step{
					{Event: txn, Guard: "NEW.amount > 900", Key: "NEW.account"},
					{Event: conf, Key: "NEW.account", Negated: true},
				}},
			Alert: "RETURN KEY AS account, FIRST.id AS txn",
		},
	}
}

// NaiveVelocityRule is the name of the re-scan strawman.
func NaiveVelocityRule() string { return "naive-velocity" }

// NaiveVelocityRuleSpec returns the single-event design of the velocity
// rule: fire on every flagged transaction and re-aggregate the account's
// recent history with an indexed scan — no partial state, the whole window
// recomputed inside each triggering transaction.
func NaiveVelocityRuleSpec(windowMinutes int) trigger.Rule {
	return trigger.Rule{
		Name:  NaiveVelocityRule(),
		Hub:   "P",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
		Guard: "NEW.flagged",
		Alert: fmt.Sprintf(`MATCH (t:Txn {account: NEW.account})
		        WHERE t.flagged AND t.minute >= NEW.minute - %d
		        WITH NEW.account AS account, count(t) AS hits
		        WHERE hits >= 3
		        RETURN account, hits`, windowMinutes-1),
	}
}
