// Package core assembles the reactive knowledge management system of the
// paper: a partitioned property graph (internal/graph + internal/hub)
// governed by PG-Schema (internal/schema), queried through a Cypher subset
// (internal/cypher), made reactive by Event–Guard–Alert rules
// (internal/trigger), and given periodic memory by the Essential Summary
// (internal/summary), rolled over by Tick against an injectable clock
// (internal/periodic).
//
// KnowledgeBase is the type downstream users interact with; the root
// package of this module re-exports it as the public API.
package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/hub"
	"repro/internal/metrics"
	"repro/internal/periodic"
	"repro/internal/schema"
	"repro/internal/summary"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrSummariesDisabled is returned by summary operations before
// EnableSummaries.
var ErrSummariesDisabled = errors.New("core: essential summaries not enabled")

// Config tunes a KnowledgeBase.
type Config struct {
	// Clock drives datetime(), alert timestamps and the summary rollover;
	// nil means the wall clock. Simulations pass a periodic.ManualClock.
	Clock periodic.Clock
	// StrictTermination rejects rules that make the triggering graph cyclic.
	StrictTermination bool
	// EnforceIntraHubGuards rejects rules whose guard provably reads
	// another hub's knowledge (§III-B's locality requirement for guards).
	EnforceIntraHubGuards bool
	// Metrics is the registry the knowledge base registers its instruments
	// on; nil means a fresh private registry (see KnowledgeBase.Metrics).
	// Sharing one registry across knowledge bases aggregates their counts.
	Metrics *metrics.Registry
}

// KnowledgeBase is a reactive knowledge management system instance: one
// graph store, governed by one rule engine, one hub registry, one plan cache
// and one metrics registry. Hubs own nodes (§III-A); they do not partition
// storage.
type KnowledgeBase struct {
	store  *graph.Store
	engine *trigger.Engine
	hubs   *hub.Registry
	clock  periodic.Clock

	// wal is the write-ahead log of a durable knowledge base (see
	// durable.go); nil for in-memory ones.
	wal    *wal.Log
	ckptMu sync.Mutex

	// follower marks a replication follower (see replica.go): ordinary
	// writes fail with ErrFollower and state arrives only through the
	// replicated-apply path. replicaSeq is the apply cursor, advanced only
	// once a batch is published (and, durably, persisted).
	follower   bool
	replicaSeq atomic.Uint64

	// async is the running asynchronous alert pipeline (see async.go); nil
	// until StartAsync. asyncM holds its instruments, wired once at
	// construction so restarts of the pipeline accumulate into the same
	// counters.
	async      atomic.Pointer[asyncPipeline]
	asyncM     asyncMetrics
	asyncHooks asyncHooks // copied into each pipeline StartAsync makes
	pending    *Bookkeeping

	// metrics is wired once at construction (see metrics.go); the rollover
	// instruments are published by EnableSummaries under mu and are nil
	// (no-op) until then.
	metrics          *metrics.Registry
	mRollovers       *metrics.Counter
	mRolloverSeconds *metrics.Histogram

	// plans caches prepared statements (parse + compile artifacts) keyed
	// by query text; lookups are lock-free, so concurrent readers never
	// contend on parsing. mPrepare observes the latency of resolving
	// a query to its plan (cache hits included).
	plans    *cypher.PlanCache
	mPrepare *metrics.Histogram

	// mu guards the Essential Summary: its manager and the rollover check
	// grid (the next check is due at nextCheck, then every check).
	mu        sync.Mutex
	summaries *summary.Manager
	check     time.Duration
	nextCheck time.Time
}

// New creates an empty in-memory knowledge base.
func New(cfg Config) *KnowledgeBase {
	return assemble(cfg, hub.NewRegistry(), graph.NewStore())
}

// open builds every kind of knowledge base: in memory when dir is empty,
// otherwise recovered from (and logging to) the write-ahead log at the root
// of dir.
func open(dir string, cfg Config, wopts wal.Options, follower bool) (*KnowledgeBase, *wal.RecoveryInfo, error) {
	store := graph.NewStore()
	var (
		l    *wal.Log
		info *wal.RecoveryInfo
	)
	if dir != "" {
		var err error
		if l, store, info, err = wal.Open(dir, wopts); err != nil {
			return nil, nil, err
		}
	}
	kb := assemble(cfg, hub.NewRegistry(), store)
	if follower {
		kb.follower = true
		store.SetFollowerMode(true)
		if l != nil {
			kb.replicaSeq.Store(l.LastSeq())
		}
	}
	if l != nil {
		kb.attachWAL(l, wopts.Fsync, info)
	}
	return kb, info, nil
}

// assemble wires rule engine, plan cache and metrics around a store and a
// hub registry.
func assemble(cfg Config, hubs *hub.Registry, store *graph.Store) *KnowledgeBase {
	clock := cfg.Clock
	if clock == nil {
		clock = periodic.RealClock{}
	}
	kb := &KnowledgeBase{
		store: store,
		hubs:  hubs,
		clock: clock,
		plans: cypher.NewPlanCache(0),
	}
	e := trigger.NewEngine()
	e.StrictTermination = cfg.StrictTermination
	e.EnforceIntraHubGuards = cfg.EnforceIntraHubGuards
	e.Clock = clock.Now
	e.Resolver = kb.hubs.OwnerOfLabel
	// The async pipeline's queue bookkeeping must never re-trigger rules,
	// and AfterAsync activations route through the pipeline whenever it is
	// running (the sink falls back to synchronous evaluation otherwise).
	// Both are wired here, before any write, so the engine's lock-free
	// reads of these fields are race-free.
	e.AsyncSink = kb.asyncEnqueue
	kb.engine = e
	kb.pending = kb.Bookkeeping(PendingAlertLabel)
	kb.pending.Hide()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	kb.wireMetrics(reg)
	return kb
}

// Store exposes the graph store for advanced integrations and tests.
// Changes made directly through it bypass the rule engine.
func (kb *KnowledgeBase) Store() *graph.Store { return kb.store }

// Clock returns the knowledge base's clock.
func (kb *KnowledgeBase) Clock() periodic.Clock { return kb.clock }

// Now returns the current time of the knowledge base's clock.
func (kb *KnowledgeBase) Now() time.Time { return kb.clock.Now() }

// ---- Hubs ----

// DefineHub registers a knowledge hub and assigns it ownership of the given
// node labels. Ownership is checked on commit once EnforceHubOwnership is
// on; it never changes where a node is stored.
func (kb *KnowledgeBase) DefineHub(name, description string, labels ...string) error {
	if _, err := kb.hubs.Define(name, description); err != nil {
		return err
	}
	return kb.hubs.Own(name, labels...)
}

// Hubs exposes the hub registry.
func (kb *KnowledgeBase) Hubs() *hub.Registry { return kb.hubs }

// EnforceHubOwnership installs the commit-time validator that requires
// every node with an owned label to carry the matching hub property.
func (kb *KnowledgeBase) EnforceHubOwnership() { kb.hubs.Enforce(kb.store) }

// HubStats summarizes the graph partitioning.
func (kb *KnowledgeBase) HubStats() (hub.Stats, error) {
	v := kb.store.Begin(graph.ReadOnly)
	defer v.Rollback()
	return kb.hubs.ComputeStats(v), nil
}

// ---- Schema ----

// ApplySchema parses a PG-Schema graph type and binds it to the store.
func (kb *KnowledgeBase) ApplySchema(src string) (*schema.GraphType, error) {
	g, err := schema.ParseGraphType(src)
	if err != nil {
		return nil, err
	}
	if err := kb.ApplyGraphType(g); err != nil {
		return nil, err
	}
	return g, nil
}

// ApplyGraphType binds a programmatically built graph type to the store.
func (kb *KnowledgeBase) ApplyGraphType(g *schema.GraphType) error {
	return g.Bind(kb.store)
}

// CreateIndex creates a property index usable by equality lookups, count
// queries and EXCLUSIVE keys.
func (kb *KnowledgeBase) CreateIndex(label, prop string) error {
	return kb.store.CreateIndex(label, prop)
}

// ---- Rules ----

// InstallRule compiles and installs a reactive rule.
func (kb *KnowledgeBase) InstallRule(r trigger.Rule) error { return kb.engine.Install(r) }

// InstallRuleText parses a PG-Triggers-style CREATE TRIGGER declaration,
// single-event or composite, and installs it (see the trigger package for
// the syntax).
func (kb *KnowledgeBase) InstallRuleText(src string) (trigger.Rule, error) {
	return kb.engine.InstallText(src)
}

// DropRule removes a rule.
func (kb *KnowledgeBase) DropRule(name string) error { return kb.engine.Drop(name) }

// PauseRule suspends a rule.
func (kb *KnowledgeBase) PauseRule(name string) error { return kb.engine.Pause(name) }

// ResumeRule reactivates a paused rule.
func (kb *KnowledgeBase) ResumeRule(name string) error { return kb.engine.Resume(name) }

// Rules lists installed rules with their classifications.
func (kb *KnowledgeBase) Rules() []trigger.RuleInfo { return kb.engine.Rules() }

// ClassifyRule returns the §III-C classification of one rule.
func (kb *KnowledgeBase) ClassifyRule(name string) (trigger.Classification, error) {
	return kb.engine.ClassifyRule(name)
}

// CheckTermination returns the cycles of the rules' triggering graph.
func (kb *KnowledgeBase) CheckTermination() [][]string { return kb.engine.CheckTermination() }

// CheckConfluence conservatively reports rule pairs whose outcome may
// depend on firing order (§III-B's confluence concern).
func (kb *KnowledgeBase) CheckConfluence() []trigger.ConfluenceWarning {
	return kb.engine.CheckConfluence()
}

// TriggeringGraph returns the rules' triggering graph edges.
func (kb *KnowledgeBase) TriggeringGraph() []trigger.TriggeringEdge {
	return kb.engine.TriggeringGraph()
}

// TranslateRulesAPOC renders the installed rules as Neo4j APOC trigger
// installation calls using the paper's Fig. 6 syntax-directed translation
// (composite rules as step triggers plus a drain job); rules outside the
// schemes are reported as skipped.
func (kb *KnowledgeBase) TranslateRulesAPOC(dbName, phase string) trigger.APOCExport {
	return kb.engine.TranslateAllAPOC(dbName, phase)
}

// Engine exposes the rule engine for advanced configuration.
func (kb *KnowledgeBase) Engine() *trigger.Engine { return kb.engine }

// ---- Statement execution ----

// prepare resolves a query to its cached Plan, parsing and caching on
// first sight. Steady-state lookups are lock-free map reads.
func (kb *KnowledgeBase) prepare(query string) (*cypher.Plan, error) {
	start := time.Now()
	plan, err := kb.plans.Get(query)
	if err != nil {
		return nil, err
	}
	kb.mPrepare.ObserveSince(start)
	return plan, nil
}

// PlanCacheStats snapshots the shared plan cache's size and hit counters.
func (kb *KnowledgeBase) PlanCacheStats() cypher.PlanCacheStats { return kb.plans.Stats() }

// ExplainQuery renders the execution plan of a statement: the clause
// pipeline and the access path each MATCH anchor would use against the
// current indexes and statistics of the graph.
func (kb *KnowledgeBase) ExplainQuery(query string) (string, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return "", err
	}
	v := kb.store.Begin(graph.ReadOnly)
	defer v.Rollback()
	return cypher.Explain(v, plan.Statement()), nil
}

// ExplainAlert renders the plan the named rule's alert query runs with, as
// ExplainQuery does for a statement: an alert whose aggregate parts are
// maintained shows their reads in place of the matching.
func (kb *KnowledgeBase) ExplainAlert(rule string) (string, error) {
	v := kb.store.Begin(graph.ReadOnly)
	defer v.Rollback()
	return kb.engine.ExplainAlert(v, rule)
}

// Query runs a read-only statement over the committed graph, lock-free;
// write clauses fail.
func (kb *KnowledgeBase) Query(query string, params map[string]value.Value) (*cypher.Result, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, err
	}
	v := kb.store.Begin(graph.ReadOnly)
	defer v.Rollback()
	return plan.Execute(v, &cypher.Options{Params: params, Now: kb.clock.Now})
}

// Execute runs a statement in a read-write transaction, fires the reactive
// rules over its changes (cascading), and commits. On any error — statement,
// rule, cascade bound, or commit-time schema/hub validation — the whole
// transaction rolls back.
func (kb *KnowledgeBase) Execute(query string, params map[string]value.Value) (*cypher.Result, error) {
	res, _, err := kb.ExecuteReport(query, params)
	return res, err
}

// ExecuteReport is Execute plus the rule engine's activation report.
func (kb *KnowledgeBase) ExecuteReport(query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, nil, err
	}
	var res *cypher.Result
	rep, err := kb.write(func(tx *graph.Tx) error {
		var err error
		res, err = plan.Execute(tx, &cypher.Options{Params: params, Now: kb.clock.Now})
		return err
	}, true)
	if err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}

// WriteTx runs fn inside a read-write transaction, then fires the reactive
// rules over fn's changes and commits. It is the programmatic (non-Cypher)
// write path; bulk loaders use it.
func (kb *KnowledgeBase) WriteTx(fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	return kb.write(fn, true)
}

// write is the write path: fn's changes, the rule cascade over them (which
// only ever touches the transaction it was handed), commit. A non-nil report
// may accompany an error from the cascade. throttle selects whether
// BlockOnFull async backpressure applies after the commit; the async
// workers' own follow-up transactions pass false — they drain the queue, so
// blocking them on its depth would deadlock.
func (kb *KnowledgeBase) write(fn func(tx *graph.Tx) error, throttle bool) (*trigger.Report, error) {
	if kb.follower {
		return nil, ErrFollower
	}
	tx := kb.store.Begin(graph.ReadWrite)
	if err := fn(tx); err != nil {
		tx.Rollback()
		return nil, err
	}
	data := tx.ResetData()
	data.Compact()
	rep, err := kb.engine.Process(tx, data)
	if err != nil {
		tx.Rollback()
		return rep, err
	}
	if err := tx.Commit(); err != nil {
		return rep, err
	}
	if throttle && rep.AsyncEnqueued > 0 {
		kb.throttleAsync()
	}
	return rep, nil
}

// ---- Essential Summary ----

// EnableSummaries activates the Essential Summary with the given period of
// observation: alert nodes are attached to the current summary as they are
// produced, and Tick checks every period/24 whether the period has elapsed
// and rolls the summary over, exactly as Fig. 8 does with an hourly
// apoc.periodic.repeat for a 24h period.
func (kb *KnowledgeBase) EnableSummaries(period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: summary period must be positive")
	}
	kb.mu.Lock()
	if kb.summaries != nil {
		kb.mu.Unlock()
		return fmt.Errorf("core: essential summaries already enabled")
	}
	mgr := summary.New(period)
	kb.summaries = mgr
	kb.check = period / 24
	if kb.check == 0 {
		kb.check = period
	}
	kb.nextCheck = kb.clock.Now().Add(kb.check)
	// The rollover instruments are published inside the same critical
	// section as kb.summaries, so any goroutine that can observe summaries
	// as enabled (via Summaries, which locks kb.mu) also observes them.
	kb.mRollovers = kb.metrics.Counter(mRollovers,
		"Essential Summary observation periods closed.")
	kb.mRolloverSeconds = kb.metrics.Histogram(mRolloverSeconds,
		"Duration of summary rollovers (including triggered rules), in seconds.", nil)
	kb.mu.Unlock()

	kb.metrics.GaugeFunc(mChainLength,
		"Summary nodes in the Essential Summary chain.",
		func() float64 { return float64(kb.store.LabelCount(summary.SummaryLabel)) })

	kb.engine.OnAlert = func(tx *graph.Tx, alert graph.NodeID) error {
		return mgr.AttachAlert(tx, alert, kb.clock.Now())
	}
	return nil
}

// Summaries exposes the Essential Summary manager.
func (kb *KnowledgeBase) Summaries() (*summary.Manager, error) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.summaries == nil {
		return nil, ErrSummariesDisabled
	}
	return kb.summaries, nil
}

// RolloverIfDue closes the current observation period if it has elapsed.
// The rollover runs through the trigger pipeline, so rules react to the new
// Summary node as to any write.
func (kb *KnowledgeBase) RolloverIfDue() error {
	mgr, err := kb.Summaries()
	if err != nil {
		return err
	}
	var t0 time.Time
	if kb.mRolloverSeconds != nil {
		t0 = time.Now()
	}
	rolled := false
	_, err = kb.WriteTx(func(tx *graph.Tx) error {
		var err error
		rolled, _, err = mgr.RolloverIfDue(tx, kb.clock.Now())
		return err
	})
	if rolled && err == nil {
		kb.mRollovers.Inc()
		if !t0.IsZero() {
			kb.mRolloverSeconds.ObserveSince(t0)
		}
	}
	return err
}

// Tick runs the rollover check if one is due — at most once per call, however
// many checks the clock has skipped, since they would all see the same time
// — and moves the next check past now. Simulations call it after advancing a
// ManualClock; on the wall clock a driver calls it every second. It is a
// no-op until EnableSummaries.
func (kb *KnowledgeBase) Tick() error {
	now := kb.clock.Now()
	kb.mu.Lock()
	due := kb.summaries != nil && !kb.nextCheck.After(now)
	if due {
		skipped := now.Sub(kb.nextCheck) / kb.check
		kb.nextCheck = kb.nextCheck.Add((skipped + 1) * kb.check)
	}
	kb.mu.Unlock()
	if !due {
		return nil
	}
	return kb.RolloverIfDue()
}

// ---- Alerts ----

// Alert is a materialized alert node.
type Alert struct {
	ID       graph.NodeID
	Rule     string
	Hub      string
	DateTime time.Time
	// Props holds the rule-specific payload (the alert query's columns).
	Props map[string]value.Value
}

// Alerts lists all alert nodes, oldest first (by dateTime, then id).
func (kb *KnowledgeBase) Alerts() ([]Alert, error) {
	out := kb.collectAlerts(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].DateTime.Before(out[j].DateTime) })
	return out, nil
}

// AlertsAfter lists the alert nodes whose id is greater than after, sorted
// by id. Node ids are assigned in creation order, so this pages the alert
// log incrementally.
func (kb *KnowledgeBase) AlertsAfter(after graph.NodeID) ([]Alert, error) {
	return kb.collectAlerts(after), nil
}

// collectAlerts extracts the alert nodes with id greater than after, in id
// order.
func (kb *KnowledgeBase) collectAlerts(after graph.NodeID) []Alert {
	v := kb.store.Begin(graph.ReadOnly)
	defer v.Rollback()
	var out []Alert
	for _, id := range v.NodesByLabel(trigger.AlertLabel) {
		if id <= after {
			continue
		}
		if n, ok := v.Node(id); ok {
			out = append(out, DecodeAlert(n))
		}
	}
	return out
}

// DecodeAlert reads an alert node — or a RemoteAlert, which carries the same
// mandatory properties — into an Alert. It takes over n.Props as the
// payload, so n must be a snapshot the caller owns (Tx.Node returns one).
func DecodeAlert(n graph.Node) Alert {
	a := Alert{ID: n.ID, Props: n.Props}
	a.Rule, _ = n.Props[trigger.AlertRuleProp].AsString()
	a.Hub, _ = n.Props[trigger.AlertHubProp].AsString()
	a.DateTime, _ = n.Props[trigger.AlertDateTimeProp].AsDateTime()
	delete(n.Props, trigger.AlertRuleProp)
	delete(n.Props, trigger.AlertHubProp)
	delete(n.Props, trigger.AlertDateTimeProp)
	return a
}

// GraphStats returns graph-size counters.
func (kb *KnowledgeBase) GraphStats() graph.Stats { return kb.store.Stats() }

// SaveGraph serializes the knowledge graph (nodes and relationships with
// full type fidelity) as JSON. Rules, hubs and schemas are configuration
// and are not part of the document.
func (kb *KnowledgeBase) SaveGraph(w io.Writer) error {
	return kb.store.Export(w)
}

// LoadGraph restores a SaveGraph document into an empty knowledge base. The
// load commits as one transaction without firing rules, so a durable
// knowledge base logs it (and a leader ships it) like any other commit.
func (kb *KnowledgeBase) LoadGraph(r io.Reader) error {
	return kb.store.Import(r)
}

// ---- What-if forking (§V) ----

// Fork returns an independent copy of the knowledge base for hypothetical
// reasoning: the graph data, installed rules (with their paused state),
// summary configuration and engine settings are copied; the hub registry
// and bound schemas — the shared ontology — are referenced, not copied.
// clock selects the fork's clock (nil shares the parent's). Changes in the
// fork never affect the parent, so alternative reaction strategies can be
// attached to forks and their evolutions compared. The fork has no async
// pipeline: its AfterAsync rules evaluate synchronously, keeping
// hypothetical reasoning deterministic (call StartAsync on the fork to
// change that). Nor has it a composite-event runtime, so composite rules are
// left out.
func (kb *KnowledgeBase) Fork(clock periodic.Clock) (*KnowledgeBase, error) {
	if clock == nil {
		clock = kb.clock
	}
	// The fork gets its own plan cache (plans re-cost against the fork's
	// statistics) and a fresh registry: its hypothetical activity must not
	// skew the parent's counters.
	nkb := assemble(Config{
		Clock:                 clock,
		StrictTermination:     kb.engine.StrictTermination,
		EnforceIntraHubGuards: kb.engine.EnforceIntraHubGuards,
	}, kb.hubs, kb.store.Clone())
	e := nkb.engine
	for _, info := range kb.engine.Rules() {
		if info.Composite != nil {
			continue
		}
		if err := e.Install(info.Rule); err != nil {
			return nil, fmt.Errorf("core: fork rule %s: %w", info.Name, err)
		}
		if info.Paused {
			if err := e.Pause(info.Name); err != nil {
				return nil, err
			}
		}
	}

	kb.mu.Lock()
	var period time.Duration
	if kb.summaries != nil {
		period = kb.summaries.Period
	}
	kb.mu.Unlock()
	if period > 0 {
		if err := nkb.EnableSummaries(period); err != nil {
			return nil, err
		}
	}
	return nkb, nil
}
