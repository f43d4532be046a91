package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/workload"
)

// lib-rules-fanout: the many-rules regime. The fraud stream runs in process
// against 200 threshold rules, the naive velocity rule and the composite
// (CEP) rule pack; every event is its own transaction, so dispatch, guard
// and alert work dominate and the commit itself is small. A retention sweep
// keeps the graph small, as a windowed fraud system would.
const (
	fanoutAccounts   = 200
	fanoutThreshold  = 3 // threshold rules alert at this many live transactions
	fanoutWindowMin  = 5 // composite window and naive re-scan horizon, minutes
	fanoutRetainMin  = 10
	fanoutWarmMin    = 2 * fanoutRetainMin // untimed minutes until the graph size is steady
	fanoutReadEvery  = 4                   // one read per this many events
	fanoutReadQuery  = `MATCH (t:Txn {account: $a}) RETURN count(t) AS n, max(t.amount) AS top`
	fanoutSweepQuery = `MATCH (t:Txn) WHERE t.minute < $cut DETACH DELETE t`
	fanoutSweepConf  = `MATCH (c:Confirmation) WHERE c.minute < $cut DETACH DELETE c`
	fanoutSweepAlert = `MATCH (a:Alert) WHERE a.dateTime < $t DETACH DELETE a`
)

// partial is the model's copy of one CEPPartial node.
type partial struct {
	state    int
	times    []int // COUNT: minutes of the occurrences in the window
	deadline int   // minute at which the window closes
	done     bool
}

// fanoutModel restates the rules in Go: live transactions per account for
// the threshold rules and reads, flagged minutes for the naive velocity
// rule, and the three composite automata of workload.CompositeRulePack as
// internal/cep documents them (one partial per rule and key; a completed
// partial occupies its key until the drain; the drain runs once a minute).
type fanoutModel struct {
	live    map[string][]workload.FraudEvent // account -> transactions inside retention
	flagged map[string][]int                 // account -> minutes of flagged transactions
	open    map[string]map[string]*partial   // rule -> key -> partial
	alerts  map[string][]int                 // rule -> creation minutes of the alert nodes inside retention
}

func newFanoutModel() *fanoutModel {
	return &fanoutModel{
		live:    make(map[string][]workload.FraudEvent),
		flagged: make(map[string][]int),
		open: map[string]map[string]*partial{
			workload.VelocityRule: {}, workload.BigPairRule: {}, workload.UnconfirmedRule: {},
		},
		alerts: make(map[string][]int),
	}
}

// sequenceStep is stepSequence of internal/cep for a two-step rule whose
// last step may be negated (absence).
func (m *fanoutModel) sequenceStep(rule, key string, step, now int, absence bool) {
	const final = 1
	p := m.open[rule][key]
	if p != nil && p.done {
		return
	}
	negated := absence && step == final
	if p != nil {
		switch {
		case now >= p.deadline:
			if absence && p.state == final {
				p.done = true
				return
			}
			delete(m.open[rule], key)
			p = nil
		case negated:
			if p.state == final {
				delete(m.open[rule], key)
			}
			return
		case step == p.state:
			p.state++
			if !absence && step == final {
				p.done = true
			}
			return
		default:
			return
		}
	}
	if step == 0 {
		m.open[rule][key] = &partial{state: 1, deadline: now + fanoutWindowMin}
	}
}

// countStep is stepCount for the velocity rule.
func (m *fanoutModel) countStep(key string, now int) {
	p := m.open[workload.VelocityRule][key]
	if p == nil {
		m.open[workload.VelocityRule][key] = &partial{state: 1, times: []int{now}, deadline: now + fanoutWindowMin}
		return
	}
	if p.done {
		return
	}
	p.times = append(pruneMinutes(p.times, now-fanoutWindowMin), now)
	p.deadline = p.times[0] + fanoutWindowMin
	if len(p.times) >= 3 {
		p.done = true
	}
}

func pruneMinutes(times []int, cutoff int) []int {
	i := 0
	for i < len(times) && times[i] < cutoff {
		i++
	}
	return times[i:]
}

// event applies one stream event and returns the alert nodes its own
// transaction must create (threshold + naive velocity; composite alerts are
// materialized by the drain).
func (m *fanoutModel) event(ev workload.FraudEvent) int {
	now := ev.Minute
	if ev.Kind == workload.FraudConfirmation {
		m.sequenceStep(workload.UnconfirmedRule, ev.Account, 1, now, true)
		return 0
	}
	alerts := 0
	m.live[ev.Account] = append(m.live[ev.Account], ev)
	if len(m.live[ev.Account]) >= fanoutThreshold {
		alerts++
		m.alerts["thr"] = append(m.alerts["thr"], now)
	}
	if ev.Flagged {
		m.flagged[ev.Account] = append(pruneMinutes(m.flagged[ev.Account], now-fanoutWindowMin+1), now)
		if len(m.flagged[ev.Account]) >= 3 {
			alerts++
			m.alerts[workload.NaiveVelocityRule()] = append(m.alerts[workload.NaiveVelocityRule()], now)
		}
		m.countStep(ev.Account, now)
	}
	if ev.Amount > 900 {
		// Both steps of the pair rule select the same event, and the engine
		// fires step rules in installation order.
		m.sequenceStep(workload.BigPairRule, ev.Account, 0, now, false)
		m.sequenceStep(workload.BigPairRule, ev.Account, 1, now, false)
		m.sequenceStep(workload.UnconfirmedRule, ev.Account, 0, now, true)
	}
	return alerts
}

// drain is DrainOnce at minute now; it returns the partials resolved.
func (m *fanoutModel) drain(now int) int {
	resolved := 0
	for rule, byKey := range m.open {
		for key, p := range byKey {
			switch {
			case p.done:
			case now < p.deadline:
				continue
			case rule == workload.UnconfirmedRule && p.state == 1:
				// armed absence: the window closed without a confirmation
			case rule == workload.VelocityRule:
				if p.times = pruneMinutes(p.times, now-fanoutWindowMin); len(p.times) > 0 {
					p.state, p.deadline = len(p.times), p.times[0]+fanoutWindowMin
					continue
				}
				delete(byKey, key)
				resolved++
				continue
			default:
				delete(byKey, key)
				resolved++
				continue
			}
			m.alerts[rule] = append(m.alerts[rule], now)
			delete(byKey, key)
			resolved++
		}
	}
	return resolved
}

// sweep drops transactions and alerts older than the retention horizon.
func (m *fanoutModel) sweep(cut int) {
	for rule, minutes := range m.alerts {
		m.alerts[rule] = pruneMinutes(minutes, cut)
	}
	for a, evs := range m.live {
		i := 0
		for i < len(evs) && evs[i].Minute < cut {
			i++
		}
		m.live[a] = evs[i:]
	}
}

func (m *fanoutModel) depth() int {
	n := 0
	for _, byKey := range m.open {
		n += len(byKey)
	}
	return n
}

// fanoutState is one built knowledge base with its stream and model.
type fanoutState struct {
	kb     *core.KnowledgeBase
	clock  *periodic.ManualClock
	cep    *cep.Manager
	sc     *workload.FraudScenario
	model  *fanoutModel
	ex     executor
	minute int
	op     int
	events int

	drainMS     []float64
	maxPartials int
	reports     trigger.Report // summed over the timed events
}

func (s *fanoutState) setup(cfg runConfig, c *collector) error {
	s.kb, s.clock = newManualKB()
	s.ex = direct{s.kb}
	s.model = newFanoutModel()
	s.minute, s.op, s.events = 0, 0, 0
	var err error
	s.sc, err = workload.BuildFraud(s.kb, workload.FraudConfig{
		Seed: cfg.seed, Accounts: fanoutAccounts, Merchants: 10, TxnsPerMinute: 20,
		BurstChance: 0.3, PairChance: 0.3, MissingConfirmRate: 0.25, FlagNoise: 0.02,
	})
	if err != nil {
		return err
	}
	if s.cep, err = cep.Enable(s.kb, cep.Options{}); err != nil {
		return err
	}
	for _, r := range workload.CompositeRulePack(fanoutWindowMin * time.Minute) {
		if err := s.cep.Install(r); err != nil {
			return err
		}
	}
	if err := s.kb.InstallRule(workload.NaiveVelocityRuleSpec(fanoutWindowMin)); err != nil {
		return err
	}
	for i := 0; i < fanoutAccounts; i++ {
		err := s.kb.InstallRule(trigger.Rule{
			Name:  fmt.Sprintf("thr-%03d", i),
			Hub:   "P",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
			Guard: fmt.Sprintf("NEW.account = '%s'", workload.AccountName(i)),
			Alert: fmt.Sprintf(`MATCH (t:Txn {account: NEW.account})
			        WITH NEW.account AS account, count(t) AS live
			        WHERE live >= %d
			        RETURN account, live`, fanoutThreshold),
		})
		if err != nil {
			return err
		}
	}
	// Warm-up doubles as the ramp to a steady graph size: retention only
	// starts deleting after fanoutRetainMin minutes.
	for s.minute < fanoutWarmMin {
		s.runMinute(c)
	}
	return nil
}

func (s *fanoutState) teardown() {
	*s = fanoutState{}
	runtime.GC()
}

// runMinute ingests one simulated minute: its events (one transaction each,
// a read after every few), then the clock advance, the composite drain and
// the retention sweep.
func (s *fanoutState) runMinute(c *collector) {
	m := s.minute
	for _, ev := range s.sc.Minute(m) {
		ev := ev
		s.op++
		t0 := time.Now()
		rep, err := s.ex.write(s.op, func(tx *graph.Tx) error { return fraudInto(tx, ev) })
		c.observe(classWrite, time.Since(t0))
		want := s.model.event(ev)
		if err != nil {
			c.fail("event %s: %v", ev.ID, err)
		} else {
			if rep.AlertNodes != want {
				c.fail("event %s: %d alert(s), model says %d", ev.ID, rep.AlertNodes, want)
			}
			addReport(&s.reports, rep)
		}
		s.events++
		if s.events%fanoutReadEvery == 0 {
			s.readOne(c, ev.Account)
		}
	}
	s.maxPartials = max(s.maxPartials, s.cep.Depth())
	s.minute++
	s.clock.Set(simStart.Add(time.Duration(s.minute) * time.Minute))

	s.op++
	t0 := time.Now()
	n, err := s.cep.DrainOnce()
	el := time.Since(t0)
	c.observe(classMaint, el)
	s.drainMS = append(s.drainMS, float64(el)/1e6)
	if want := s.model.drain(s.minute); err != nil {
		c.fail("drain at minute %d: %v", s.minute, err)
	} else if n != want {
		c.fail("drain at minute %d resolved %d partial(s), model says %d", s.minute, n, want)
	}

	cut := s.minute - fanoutRetainMin
	s.op++
	t0 = time.Now()
	params := map[string]value.Value{"cut": value.Int(int64(cut))}
	_, _, err = s.ex.execute(s.op, fanoutSweepQuery, params)
	if err == nil {
		_, _, err = s.ex.execute(s.op, fanoutSweepConf, params)
	}
	if err == nil {
		_, _, err = s.ex.execute(s.op, fanoutSweepAlert, map[string]value.Value{
			"t": value.DateTime(simStart.Add(time.Duration(cut) * time.Minute))})
	}
	c.observe(classMaint, time.Since(t0))
	if err != nil {
		c.fail("sweep at minute %d: %v", s.minute, err)
	}
	s.model.sweep(cut)
}

// fraudInto is the body of workload.FraudScenario.Ingest for one event.
func fraudInto(tx *graph.Tx, ev workload.FraudEvent) error {
	var err error
	if ev.Kind == workload.FraudTxn {
		_, err = tx.CreateNode([]string{"Txn"}, map[string]value.Value{
			"id": value.Str(ev.ID), "account": value.Str(ev.Account),
			"merchant": value.Str(ev.Merchant), "amount": value.Int(ev.Amount),
			"flagged": value.Bool(ev.Flagged), "minute": value.Int(int64(ev.Minute)),
			"hub": value.Str("P"),
		})
	} else {
		_, err = tx.CreateNode([]string{"Confirmation"}, map[string]value.Value{
			"id": value.Str(ev.ID), "account": value.Str(ev.Account),
			"minute": value.Int(int64(ev.Minute)), "hub": value.Str("P"),
		})
	}
	return err
}

// readOne is the dashboard read: an account's live transactions.
func (s *fanoutState) readOne(c *collector, account string) {
	s.op++
	t0 := time.Now()
	res, err := s.ex.query(s.op, fanoutReadQuery, map[string]value.Value{"a": value.Str(account)})
	c.observe(classRead, time.Since(t0))
	if err != nil {
		c.fail("read %s: %v", account, err)
		return
	}
	got := int64(-1)
	if len(res.Rows) == 1 {
		got, _ = res.Rows[0][0].AsInt()
	}
	if want := int64(len(s.model.live[account])); got != want {
		c.fail("read %s: %d live transactions, model says %d", account, got, want)
	}
}

// verify compares the alert nodes still on the graph, per rule, with the
// model, and the open partial matches with the model's. Every alert was
// already checked when it was made: per event against the model's count, per
// drain against the partials the model resolves.
func (s *fanoutState) verify(c *collector) {
	alerts, err := s.kb.Alerts()
	if err != nil {
		c.fail("list alerts: %v", err)
		return
	}
	got := make(map[string]int)
	for _, a := range alerts {
		name := a.Rule
		if strings.HasPrefix(name, "thr-") {
			name = "thr"
		}
		got[name]++
	}
	for _, rule := range []string{"thr", workload.NaiveVelocityRule(), workload.VelocityRule, workload.BigPairRule, workload.UnconfirmedRule} {
		c.check(got[rule] == len(s.model.alerts[rule]), "rule %s: %d alert node(s) inside retention, model says %d", rule, got[rule], len(s.model.alerts[rule]))
	}
	c.check(s.cep.Depth() == s.model.depth(), "%d open partial match(es), model says %d", s.cep.Depth(), s.model.depth())
}

func runLibFanout(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceLibFanout(cfg)
	}
	var st fanoutState
	warm := newCollector()
	setupS, err := medianSetup(cfg.setupReps(true), func() error { return st.setup(cfg, warm) }, st.teardown)
	if err != nil {
		return nil, err
	}
	c := newCollector()
	heap := liveHeapMB()
	cpu0, t0 := selfCPU(), time.Now()
	for deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second))); time.Now().Before(deadline); {
		st.runMinute(c)
	}
	elapsed, cpu := time.Since(t0).Seconds(), selfCPU()-cpu0
	st.verify(c)
	runtime.KeepAlive(st)
	c.failed += warm.failed
	c.notes = append(c.notes, warm.notes...)
	return endToEnd(c, elapsed, setupS, heap, cpu), nil
}
