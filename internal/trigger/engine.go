package trigger

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/value"
)

// The alert format of §III-B: every alert node carries AlertLabel and the
// three mandatory properties naming the rule, its hub and the firing time.
const (
	AlertLabel        = "Alert"
	AlertRuleProp     = "rule"
	AlertHubProp      = "hub"
	AlertDateTimeProp = "dateTime"
)

// MaxCascadeDepth bounds cascading rule rounds within one transaction, the
// bounded cascade of PG-Triggers.
const MaxCascadeDepth = 16

// AlertHook is invoked for every alert node the engine creates, within the
// same transaction; the Essential Summary manager uses it to attach alerts
// to the current summary node.
type AlertHook func(tx *graph.Tx, alert graph.NodeID) error

// EngineMetrics holds the engine's optional instrumentation. All fields may
// be nil (instrument methods on nil receivers no-op). Set it before
// installing rules: per-rule counters are resolved once at Install so the
// firing path never performs a label lookup.
type EngineMetrics struct {
	// RuleFired counts guard passes (activations), labelled by rule.
	RuleFired *metrics.CounterVec
	// GuardRejected counts guard evaluations that returned false, labelled
	// by rule — the cheap filtering the paper's design leans on.
	GuardRejected *metrics.CounterVec
	// AlertQuerySeconds observes the latency of each alert-query execution,
	// the potentially expensive inter-hub part of a rule.
	AlertQuerySeconds *metrics.Histogram
	// AlertsCreated counts materialized alert nodes.
	AlertsCreated *metrics.Counter
	// RuleAlertMicros adds up the time each rule's alert queries take, in
	// microseconds, labelled by rule.
	RuleAlertMicros *metrics.CounterVec
	// CountReads counts the reads of maintained alert aggregates, labelled
	// hit (served from the kept entry) or recount (computed by the part's
	// ByKey plan).
	CountReads *metrics.CounterVec
	// CountDrops counts the times a fold dropped an aggregate's kept entries.
	CountDrops *metrics.Counter
}

// AsyncItem is one passing activation of an AfterAsync rule, handed to the
// engine's AsyncSink for deferred alert evaluation.
type AsyncItem struct {
	// Rule names the activated rule; Hub is the rule's owning hub.
	Rule string
	Hub  string
	// Binding holds the transition variables of the activation (NEW, OLD,
	// …); EncodeBinding serializes it for a durable queue.
	Binding Binding
}

// AsyncSink stages one AfterAsync activation, inside the writing
// transaction, onto whatever queue the embedder maintains. It returns false
// (and no error) when the item was shed by backpressure.
type AsyncSink func(tx *graph.Tx, item AsyncItem) (bool, error)

// StepItem is one passing activation of a composite rule's step atom,
// handed to the engine's StepSink so the composite automaton can advance
// its durable partial-match state inside the writing transaction.
type StepItem struct {
	// Rule is the composite rule; Step the index of the atom that fired.
	Rule *Compiled
	Step int
	// Key is the atom's correlation key (its BY value), "" when it has none.
	Key string
	// Binding holds the transition variables of the activation.
	Binding Binding
}

// StepSink advances one composite-rule step inside the writing
// transaction. Installed by the composite-event runtime (internal/cep)
// before the first write; Install refuses composite rules without one.
type StepSink func(tx *graph.Tx, item StepItem) error

// Engine manages reactive rules and fires them against transaction change
// records, the role apoc.trigger plays in the paper's Neo4j prototype.
type Engine struct {
	mu sync.RWMutex

	rules   map[string]*Compiled
	index   *dispatchIndex
	nextSeq int

	// StrictTermination makes Install reject rules that introduce a cycle
	// into the triggering graph.
	StrictTermination bool
	// EnforceIntraHubGuards makes Install reject rules whose guard
	// provably reads knowledge owned by a hub other than the rule's own —
	// the paper's requirement that guards be evaluated within a single hub
	// (§III-B). Requires a Resolver; unresolvable labels are allowed.
	EnforceIntraHubGuards bool
	// Clock supplies the timestamp recorded on alert nodes; nil = time.Now.
	Clock func() time.Time
	// OnAlert is called for each created alert node.
	OnAlert AlertHook
	// Resolver maps labels to hubs for rule classification; may be nil.
	Resolver LabelHubResolver
	// AsyncSink, when set, receives the passing bindings of AfterAsync
	// rules instead of the engine running their alert query in-transaction.
	// Nil means AfterAsync rules are evaluated synchronously, like Before
	// rules (the fallback forks use). Set before the first write.
	AsyncSink AsyncSink
	// StepSink, when set, receives the passing bindings of composite rules'
	// step atoms; composite rules install only when it is. Set before the
	// first write.
	StepSink StepSink
	// SkipLabels names node labels whose create/delete events are invisible
	// to rule matching — the async pipeline's PendingAlert bookkeeping
	// nodes. The changes still reach commit validators and the WAL; only
	// event dispatch ignores them. Set before the first write.
	SkipLabels map[string]bool
	// Metrics is the engine's optional instrumentation; set before Install.
	Metrics EngineMetrics
}

// NewEngine returns an engine with default settings.
func NewEngine() *Engine {
	return &Engine{
		rules:      make(map[string]*Compiled),
		index:      buildDispatch(nil),
		SkipLabels: make(map[string]bool),
	}
}

func (e *Engine) now() time.Time {
	if e.Clock != nil {
		return e.Clock()
	}
	return time.Now()
}

// Install compiles and registers a rule. With StrictTermination set, the
// rule is rejected if it would make the triggering graph cyclic.
func (e *Engine) Install(r Rule) error {
	cr, err := compileRule(r)
	if err != nil {
		return err
	}
	if cr.Composite != nil && e.StepSink == nil {
		return fmt.Errorf("%w: %s", ErrNoStepSink, r.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.Name]; dup {
		return fmt.Errorf("%w: %s", ErrRuleExists, r.Name)
	}
	if e.StrictTermination {
		candidate := append(e.ruleListLocked(), cr)
		if cycles := findCycles(candidate); len(cycles) > 0 {
			return fmt.Errorf("%w: %s (cycle: %v)", ErrNonTerminating, r.Name, cycles[0])
		}
	}
	if e.EnforceIntraHubGuards {
		for _, d := range cr.dispatched() {
			if d.guard == nil {
				continue
			}
			for _, l := range cypher.InspectExpr(d.guard.Expr()).MatchedNodeLabels {
				if owner, _, ok := placeLabel(l, e.Resolver); ok && owner != cr.Hub {
					return fmt.Errorf("%w: %s guard reads :%s (hub %s)",
						ErrGuardNotIntraHub, r.Name, l, owner)
				}
			}
		}
	}
	cr.seq = e.nextSeq
	e.nextSeq++
	// Per-rule metric children are resolved from the registry by name, so
	// dropping and reinstalling a rule under the same name resumes its
	// registry counters where they left off (Prometheus counters are
	// cumulative by design). RuleStats, by contrast, live on the compiled
	// rule and restart from zero on reinstall.
	for _, d := range cr.dispatched() {
		d.seq = cr.seq
		d.mFired = e.Metrics.RuleFired.With(d.Name)
		d.mRejected = e.Metrics.GuardRejected.With(d.Name)
	}
	cr.mAlertMicros = e.Metrics.RuleAlertMicros.With(cr.Name)
	if cr.alert != nil {
		if parts := cypher.FindAggParts(cr.alert.Statement(), cr.bindNames()); len(parts) > 0 {
			srcs := make([]cypher.AggSource, len(parts))
			for i, cp := range parts {
				a := e.aggregateFor(cr, cp)
				cr.aggs, srcs[i] = append(cr.aggs, a), a
			}
			cr.alert = cr.alert.Maintained(parts, srcs)
		}
	}
	e.rules[r.Name] = cr
	e.index = buildDispatch(e.rules)
	return nil
}

// aggregateFor returns the aggregate that keeps part cp for rule cr: an
// installed one whose part has the same text, so that equal parts share one
// slot, or a new one. A shared slot outlives the rules that drop it until
// the last one goes (see folder.start).
func (e *Engine) aggregateFor(cr *Compiled, cp *cypher.AggPart) *aggregate {
	for _, a := range slices.Concat(e.index.aggs, cr.aggs) {
		if a.part.Sub == cp.Sub {
			return a
		}
	}
	return newAggregate(cp, e.Metrics)
}

// Drop removes a rule.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[name]; !ok {
		return fmt.Errorf("%w: %s", ErrRuleNotFound, name)
	}
	delete(e.rules, name)
	e.index = buildDispatch(e.rules)
	return nil
}

// Pause suspends a rule without removing it (apoc.trigger.pause).
func (e *Engine) Pause(name string) error { return e.setPaused(name, true) }

// Resume reactivates a paused rule (apoc.trigger.resume).
func (e *Engine) Resume(name string) error { return e.setPaused(name, false) }

func (e *Engine) setPaused(name string, paused bool) error {
	cr, err := e.lookup(name)
	if err != nil {
		return err
	}
	cr.paused.Store(paused)
	for _, st := range cr.steps {
		st.paused.Store(paused)
	}
	return nil
}

// CompositeRule returns the installed composite rule of that name, or nil:
// how the composite runtime resolves the rule a partial match belongs to.
func (e *Engine) CompositeRule(name string) *Compiled {
	cr, err := e.lookup(name)
	if err != nil || cr.Composite == nil {
		return nil
	}
	return cr
}

// RuleStats counts a rule's lifetime firing activity; a composite rule's
// checks and activations are its step atoms'.
type RuleStats struct {
	GuardChecks int64 // event occurrences evaluated
	Activations int64 // guard passes
	AlertNodes  int64 // alert nodes produced
}

// RuleInfo describes an installed rule.
type RuleInfo struct {
	Rule
	Paused         bool
	Classification Classification
	Stats          RuleStats
}

// Rules lists installed rules in installation order.
func (e *Engine) Rules() []RuleInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]RuleInfo, 0, len(e.rules))
	for _, cr := range e.ruleListLocked() {
		stats := RuleStats{AlertNodes: cr.nAlertNodes.Load()}
		for _, d := range cr.dispatched() {
			stats.GuardChecks += d.nChecks.Load()
			stats.Activations += d.nActivations.Load()
		}
		r := cr.Rule
		r.Composite = r.Composite.clone() // the automata read the installed term
		out = append(out, RuleInfo{
			Rule:           r,
			Paused:         cr.paused.Load(),
			Classification: Classify(cr, e.Resolver),
			Stats:          stats,
		})
	}
	return out
}

// ExplainAlert renders the plan a rule's alert query runs with, against
// tx's store, for the transition variables its event binds. An alert whose
// aggregate parts are maintained shows their reads in place of the matching.
func (e *Engine) ExplainAlert(tx *graph.Tx, name string) (string, error) {
	cr, err := e.lookup(name)
	if err != nil {
		return "", err
	}
	if cr.alert == nil {
		return "", fmt.Errorf("trigger: rule %s has no alert query", name)
	}
	return cr.alert.Explain(tx, cr.bindNames()), nil
}

// ClassifyRule returns the classification of one installed rule.
func (e *Engine) ClassifyRule(name string) (Classification, error) {
	cr, err := e.lookup(name)
	if err != nil {
		return Classification{}, err
	}
	return Classify(cr, e.Resolver), nil
}

func (e *Engine) ruleListLocked() []*Compiled {
	out := make([]*Compiled, 0, len(e.rules))
	for _, cr := range e.rules {
		out = append(out, cr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Activation records one rule firing.
type Activation struct {
	Rule   string
	Round  int
	Alerts []graph.NodeID // alert nodes created by this activation
}

// Report summarizes one Process invocation.
type Report struct {
	Rounds      int
	GuardChecks int
	GuardPasses int
	// GuardEvals counts the guard expressions actually evaluated: a guard
	// family's shared path counts once per event it is read for, however
	// many members then compare against it, so GuardEvals ≤ GuardChecks.
	GuardEvals  int
	AlertRuns   int
	AlertNodes  int
	Activations []Activation
	// RulesConsidered counts, summed over rounds, the rules the dispatch
	// index handed a round: those whose (EventKind, Label) bucket at least
	// one of the round's events reaches, paused rules included.
	RulesConsidered int
	// AsyncEnqueued counts AfterAsync activations handed to the AsyncSink;
	// AsyncShed counts those the sink dropped under backpressure.
	AsyncEnqueued int
	AsyncShed     int
	// CompositeSteps counts composite-step activations handed to the
	// StepSink.
	CompositeSteps int
}

// Merge folds src into r: counters sum, activations concatenate. A nil src
// is a no-op.
func (r *Report) Merge(src *Report) {
	if src == nil {
		return
	}
	r.Rounds += src.Rounds
	r.GuardChecks += src.GuardChecks
	r.GuardPasses += src.GuardPasses
	r.GuardEvals += src.GuardEvals
	r.AlertRuns += src.AlertRuns
	r.AlertNodes += src.AlertNodes
	r.Activations = append(r.Activations, src.Activations...)
	r.RulesConsidered += src.RulesConsidered
	r.AsyncEnqueued += src.AsyncEnqueued
	r.AsyncShed += src.AsyncShed
	r.CompositeSteps += src.CompositeSteps
}

// Process fires the installed rules against the changes in data, cascading
// over the changes the rules themselves make until quiescence or the depth
// bound. Each round enumerates its change record once (events), looks the
// events up in the dispatch index, and fires the candidate rules in
// installation order, each over the events it selects; a guard family's path
// is read once per event until the transaction writes again. It
// must be called with the transaction's change record already extracted
// (tx.ResetData()); on return the transaction's record again contains every
// change, so commit-time validators see the full picture.
func (e *Engine) Process(tx *graph.Tx, data *graph.TxData) (*Report, error) {
	e.mu.RLock()
	idx := e.index
	e.mu.RUnlock()

	report := &Report{}
	f := newFolder(idx)
	if err := f.start(tx, data); err != nil {
		return report, err
	}
	total := data
	cur := data
	for round := 0; ; round++ {
		if cur.Empty() {
			break
		}
		if round >= MaxCascadeDepth {
			tx.MergeData(total)
			return report, fmt.Errorf("%w (%d rounds)", ErrCascadeDepth, round)
		}
		report.Rounds = round + 1
		evs := events(tx, cur, e.SkipLabels)
		cands := idx.candidates(evs)
		report.RulesConsidered += len(cands)
		memo := newGuardMemo(idx.families, len(evs))
		for _, d := range cands {
			cr := d.cr
			if cr.paused.Load() {
				continue
			}
			var now time.Time
			for i := range evs {
				ev := &evs[i]
				if !cr.Event.selects(ev) || !ev.live(tx, cr.Event.Label) {
					continue
				}
				if now.IsZero() {
					now = e.now()
				}
				if err := e.fire(tx, d, &memo, f, i, ev.binding(), now, round, report); err != nil {
					tx.MergeData(total)
					return report, err
				}
			}
		}
		if err := f.catchUp(tx); err != nil {
			tx.MergeData(total)
			return report, err
		}
		next := tx.ResetData()
		f.rewind()
		total.Merge(next)
		cur = next
	}
	tx.MergeData(total)
	return report, nil
}

// fire evaluates d's rule for the round's i-th event: the guard, then
// whichever coupling mode the rule has. A rule whose alert reads maintained
// aggregates has f fold the transaction's changes first.
func (e *Engine) fire(tx *graph.Tx, d dispatchEntry, memo *guardMemo, f *folder, i int, bind Binding,
	now time.Time, round int, report *Report) error {
	cr := d.cr
	report.GuardChecks++
	cr.nChecks.Add(1)
	ok, err := memo.check(tx, d, i, bind, now, report)
	if err != nil {
		return fmt.Errorf("trigger: rule %s guard: %w", cr.Name, err)
	}
	if !ok {
		cr.mRejected.Inc()
		return nil
	}
	report.GuardPasses++
	cr.nActivations.Add(1)
	cr.mFired.Inc()
	if cr.parent != nil {
		key, err := cr.stepKey(tx, bind, now)
		if err != nil {
			return err
		}
		if err := e.StepSink(tx, StepItem{Rule: cr.parent, Step: cr.step, Key: key, Binding: bind}); err != nil {
			return fmt.Errorf("trigger: rule %s step: %w", cr.Name, err)
		}
		report.CompositeSteps++
		return nil
	}
	if cr.Phase == AfterAsync && e.AsyncSink != nil {
		enqueued, err := e.AsyncSink(tx, AsyncItem{
			Rule: cr.Name, Hub: cr.Hub, Binding: bind,
		})
		switch {
		case errors.Is(err, ErrAsyncFallback):
			// No pipeline attached: evaluate synchronously below.
		case err != nil:
			return fmt.Errorf("trigger: rule %s async enqueue: %w", cr.Name, err)
		case enqueued:
			report.AsyncEnqueued++
			return nil
		default:
			report.AsyncShed++
			return nil
		}
	}
	if cr.alert != nil {
		report.AlertRuns++
	}
	if len(cr.aggs) > 0 {
		if err := f.catchUp(tx); err != nil {
			return fmt.Errorf("trigger: rule %s aggregates: %w", cr.Name, err)
		}
	}
	cols, rows, err := e.RunAlert(tx, cr, bind, now)
	if err != nil {
		return err
	}
	alerts, err := e.Materialize(tx, cr, bind, now, cols, rows)
	if err != nil {
		return err
	}
	report.AlertNodes += len(alerts)
	if cr.alert != nil || cr.action != nil || len(alerts) > 0 {
		report.Activations = append(report.Activations,
			Activation{Rule: cr.Name, Round: round, Alerts: alerts})
	}
	return nil
}

// oneNilRow is the critical-row set of a rule without an alert query: the
// passing guard is itself the critical situation. Shared and never written.
var oneNilRow = [][]value.Value{nil}

// RunAlert runs cr's alert query against tx with the activation's transition
// variables bound, observing AlertQuerySeconds. It performs no writes of its
// own. Every coupling mode comes through here: immediate (fire, inside
// the writing transaction), detached (EvaluateAsync, against a committed
// snapshot) and composite (the CEP drain's follow-up transaction).
func (e *Engine) RunAlert(tx *graph.Tx, cr *Compiled, bind Binding, now time.Time) ([]string, [][]value.Value, error) {
	if cr.alert == nil {
		return nil, oneNilRow, nil
	}
	var t0 time.Time
	if e.Metrics.AlertQuerySeconds != nil {
		t0 = time.Now()
	}
	res, err := cr.alert.Execute(tx, &cypher.Options{
		Bindings: bind,
		Now:      func() time.Time { return now },
	})
	if !t0.IsZero() {
		took := time.Since(t0)
		e.Metrics.AlertQuerySeconds.Observe(took.Seconds())
		cr.mAlertMicros.Add(took.Round(time.Microsecond).Microseconds())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trigger: rule %s alert: %w", cr.Name, err)
	}
	return res.Columns, res.Rows, nil
}

// Materialize is the only place an alert node is born. For every critical
// row it creates one node labeled AlertLabel carrying the mandatory rule,
// hub and dateTime properties (§III-B) plus the row's columns, hands it to
// OnAlert (the Essential Summary's has edge) and counts it — or, when the
// rule has an Action, runs that instead with the row's columns and the
// transition variables bound. It returns the alert nodes created.
func (e *Engine) Materialize(tx *graph.Tx, cr *Compiled, bind Binding, now time.Time,
	cols []string, rows [][]value.Value) ([]graph.NodeID, error) {
	var alerts []graph.NodeID
	for _, rowVals := range rows {
		if cr.action != nil {
			actBind := make(Binding, len(bind)+len(rowVals))
			for k, v := range bind {
				actBind[k] = v
			}
			for i, c := range cols {
				actBind[c] = rowVals[i]
			}
			if _, err := cr.action.Execute(tx, &cypher.Options{
				Bindings: actBind,
				Now:      func() time.Time { return now },
			}); err != nil {
				return alerts, fmt.Errorf("trigger: rule %s action: %w", cr.Name, err)
			}
			continue
		}
		props := map[string]value.Value{
			AlertRuleProp:     value.Str(cr.Name),
			AlertHubProp:      value.Str(cr.Hub),
			AlertDateTimeProp: value.DateTime(now),
		}
		for i, c := range cols {
			v := rowVals[i]
			// Entity references are stored by identifier.
			if id, ok := v.EntityID(); ok {
				v = value.Int(id)
			}
			props[c] = v
		}
		id, err := tx.CreateNode([]string{AlertLabel}, props)
		if err == nil && e.OnAlert != nil {
			err = e.OnAlert(tx, id)
		}
		if err != nil {
			return alerts, fmt.Errorf("trigger: rule %s: %w", cr.Name, err)
		}
		alerts = append(alerts, id)
		cr.nAlertNodes.Add(1)
		e.Metrics.AlertsCreated.Inc()
	}
	return alerts, nil
}
