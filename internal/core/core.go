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

// ErrMultiShard is returned by operations that act on one graph store —
// the Essential Summary, what-if forking, schema binding, graph save/load,
// the replication leader/follower pair, federation, and writes that name no
// hub — when the knowledge base has more than one shard. They work
// unchanged on a one-shard knowledge base.
var ErrMultiShard = errors.New("core: operation needs a single-shard knowledge base")

// KnowledgeBase is a reactive knowledge management system instance. Its
// graph always sits on a sharded store: New and OpenDurable build the
// one-shard case, NewSharded and OpenShardedDurable one shard per declared
// hub (see shard.go). One rule engine, one hub registry, one plan cache and
// one metrics registry are shared by all shards — rules, hubs and schemas
// are ontology, not data.
type KnowledgeBase struct {
	store  *graph.ShardedStore
	engine *trigger.Engine
	hubs   *hub.Registry
	clock  periodic.Clock

	// shardOf and hubOf are the hub-to-shard layout of a knowledge base
	// built from HubShard declarations; both are empty otherwise.
	shardOf map[string]int
	hubOf   []string

	// wal holds one write-ahead log per shard of a durable knowledge base
	// (see durable.go); nil for in-memory ones.
	wal    *wal.ShardSet
	ckptMu sync.Mutex

	// follower marks a replication follower (see replica.go): ordinary
	// writes fail with ErrFollower and state arrives only through the
	// replicated-apply path. replicaSeqs are the per-shard apply cursors,
	// advanced only once a batch is published (and, durably, persisted).
	follower    bool
	replicaSeqs []atomic.Uint64

	// async is the running asynchronous alert pipeline (see async.go); nil
	// until StartAsync. asyncM holds its instruments, wired once at
	// construction so restarts of the pipeline accumulate into the same
	// counters.
	async   atomic.Pointer[asyncPipeline]
	asyncM  asyncMetrics
	pending *Bookkeeping

	// metrics is wired once at construction (see metrics.go); the rollover
	// instruments are published by EnableSummaries under mu and are nil
	// (no-op) until then.
	metrics          *metrics.Registry
	mRollovers       *metrics.Counter
	mRolloverSeconds *metrics.Histogram
	mCross           *metrics.Counter
	mXQuery          *metrics.Counter
	mXQuerySecs      *metrics.Histogram

	// plans caches prepared statements (parse + compile artifacts) keyed
	// by query text; lookups are lock-free, so concurrent per-hub readers
	// never contend on parsing. mPrepare observes the latency of resolving
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

// New creates an empty in-memory knowledge base with one shard.
func New(cfg Config) *KnowledgeBase {
	kb, _, err := open("", cfg, nil, wal.Options{}, false)
	if err != nil {
		panic(err) // one in-memory shard and no hub declarations cannot fail
	}
	return kb
}

// open builds every kind of knowledge base. Nil hubs means one shard in the
// flat layout (the log sits at the root of dir); otherwise there is one
// shard per declared hub, each persisting to its own subdirectory. An empty
// dir means in-memory.
func open(dir string, cfg Config, hubs []HubShard, wopts wal.Options, follower bool) (*KnowledgeBase, []*wal.RecoveryInfo, error) {
	var (
		ss    *graph.ShardedStore
		set   *wal.ShardSet
		infos []*wal.RecoveryInfo
		err   error
	)
	if dir == "" {
		ss, err = graph.NewSharded(max(len(hubs), 1))
	} else {
		var stores []*graph.Store
		if hubs == nil {
			set, stores, infos, err = wal.OpenFlat(dir, wopts)
		} else {
			set, stores, infos, err = wal.OpenShardSet(dir, len(hubs), wopts)
		}
		if err == nil {
			ss, err = graph.AttachShards(stores)
		}
	}
	var kb *KnowledgeBase
	if err == nil {
		kb, err = assemble(cfg, hub.NewRegistry(), hubs, ss)
	}
	if err != nil {
		if set != nil {
			set.Close()
		}
		return nil, nil, err
	}
	if follower {
		kb.follower = true
		for i := 0; i < ss.NumShards(); i++ {
			ss.Shard(i).SetFollowerMode(true)
			if set != nil {
				kb.replicaSeqs[i].Store(set.Log(i).LastSeq())
			}
		}
	}
	if set != nil {
		kb.attachWAL(set, wopts.Fsync, infos)
	}
	return kb, infos, nil
}

// assemble wires rule engine, plan cache and metrics around a
// sharded store and a hub registry, on which it declares defs.
func assemble(cfg Config, hubs *hub.Registry, defs []HubShard, ss *graph.ShardedStore) (*KnowledgeBase, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = periodic.RealClock{}
	}
	kb := &KnowledgeBase{
		store:       ss,
		hubs:        hubs,
		clock:       clock,
		shardOf:     make(map[string]int, len(defs)),
		hubOf:       make([]string, len(defs)),
		replicaSeqs: make([]atomic.Uint64, ss.NumShards()),
		plans:       cypher.NewPlanCache(0),
	}
	for i, d := range defs {
		if _, dup := kb.shardOf[d.Hub]; dup {
			return nil, fmt.Errorf("core: hub %s declared twice", d.Hub)
		}
		if err := kb.DefineHub(d.Hub, d.Description, d.Labels...); err != nil {
			return nil, err
		}
		kb.shardOf[d.Hub] = i
		kb.hubOf[i] = d.Hub
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
	return kb, nil
}

// single guards an operation that acts on one graph store.
func (kb *KnowledgeBase) single(op string) error {
	if kb.store.NumShards() > 1 {
		return fmt.Errorf("%w: %s", ErrMultiShard, op)
	}
	return nil
}

// NumShards returns the number of graph shards (1 unless the knowledge base
// was built from hub declarations).
func (kb *KnowledgeBase) NumShards() int { return kb.store.NumShards() }

// Shards exposes the underlying sharded graph store. Writes made directly
// through it bypass the rule engine.
func (kb *KnowledgeBase) Shards() *graph.ShardedStore { return kb.store }

// Store exposes the graph store of a one-shard knowledge base (shard 0 of a
// larger one; see Shards) for advanced integrations and tests. Changes made
// directly through it bypass the rule engine.
func (kb *KnowledgeBase) Store() *graph.Store { return kb.store.Shard(0) }

// Clock returns the knowledge base's clock.
func (kb *KnowledgeBase) Clock() periodic.Clock { return kb.clock }

// Now returns the current time of the knowledge base's clock.
func (kb *KnowledgeBase) Now() time.Time { return kb.clock.Now() }

// ---- Hubs ----

// DefineHub registers a knowledge hub and assigns it ownership of the given
// node labels. On a one-shard knowledge base the hub's nodes live in that
// shard; a larger one places hubs at construction (HubShard declarations).
func (kb *KnowledgeBase) DefineHub(name, description string, labels ...string) error {
	if _, err := kb.hubs.Define(name, description); err != nil {
		return err
	}
	return kb.hubs.Own(name, labels...)
}

// Hubs exposes the hub registry.
func (kb *KnowledgeBase) Hubs() *hub.Registry { return kb.hubs }

// EnforceHubOwnership installs, on every shard, the commit-time validator
// that requires every node with an owned label to carry the matching hub
// property.
func (kb *KnowledgeBase) EnforceHubOwnership() {
	for i := 0; i < kb.store.NumShards(); i++ {
		kb.hubs.Enforce(kb.store.Shard(i))
	}
}

// HubStats summarizes the graph partitioning.
func (kb *KnowledgeBase) HubStats() (hub.Stats, error) {
	v := kb.view(allShards)
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
	if err := kb.single("schema binding"); err != nil {
		return err
	}
	if err := g.Bind(kb.Store()); err != nil {
		return err
	}
	return nil
}

// CreateIndex creates a property index usable by equality lookups, count
// queries and EXCLUSIVE keys, on every shard (a cross-shard lookup uses an
// index only when all shards carry it).
func (kb *KnowledgeBase) CreateIndex(label, prop string) error {
	for i := 0; i < kb.store.NumShards(); i++ {
		if err := kb.store.Shard(i).CreateIndex(label, prop); err != nil {
			return err
		}
	}
	return nil
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

// readView is what a read executes against: one shard's snapshot or the
// cross-shard view, both pinned lock-free.
type readView interface {
	graph.ReadView
	Rollback()
}

// allShards asks view for the whole graph rather than one named shard.
const allShards = -1

// view pins the snapshot a read runs against: shard's own when one is named
// or there is only one, the cross-shard view otherwise. A MATCH over the
// cross-shard view follows a knowledge bridge from either side and binds it
// exactly once (both halves share one relationship identifier); anchor
// selection costs against cardinalities aggregated over all shards, and the
// compiled variant is cached per backing store, so per-hub reads on skewed
// shards never execute a plan costed for the whole graph or vice versa.
func (kb *KnowledgeBase) view(shard int) readView {
	if shard == allShards {
		if kb.store.NumShards() > 1 {
			return kb.store.View()
		}
		shard = 0
	}
	return kb.store.Shard(shard).Begin(graph.ReadOnly)
}

// ExplainQuery renders the execution plan of a statement: the clause
// pipeline and the access path each MATCH anchor would use against the
// current indexes and statistics of the whole graph.
func (kb *KnowledgeBase) ExplainQuery(query string) (string, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return "", err
	}
	v := kb.view(allShards)
	defer v.Rollback()
	return cypher.Explain(v, plan.Statement()), nil
}

// Query runs a read-only statement over the whole graph, lock-free; write
// clauses fail.
func (kb *KnowledgeBase) Query(query string, params map[string]value.Value) (*cypher.Result, error) {
	return kb.query(allShards, query, params)
}

func (kb *KnowledgeBase) query(shard int, query string, params map[string]value.Value) (*cypher.Result, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, err
	}
	v := kb.view(shard)
	defer v.Rollback()
	_, cross := v.(*graph.MultiView)
	var t0 time.Time
	if cross {
		t0 = time.Now()
	}
	res, err := plan.Execute(v, &cypher.Options{Params: params, Now: kb.clock.Now})
	if err != nil {
		return nil, err
	}
	if cross {
		kb.mXQuery.Inc()
		kb.mXQuerySecs.ObserveSince(t0)
	}
	return res, nil
}

// Execute runs a statement in a read-write transaction, fires the reactive
// rules over its changes (cascading), and commits. On any error — statement,
// rule, cascade bound, or commit-time schema/hub validation — the whole
// transaction rolls back. With more than one shard the write must name its
// hub: use ExecuteInHub.
func (kb *KnowledgeBase) Execute(query string, params map[string]value.Value) (*cypher.Result, error) {
	res, _, err := kb.ExecuteReport(query, params)
	return res, err
}

// ExecuteReport is Execute plus the rule engine's activation report.
func (kb *KnowledgeBase) ExecuteReport(query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	if err := kb.single("Execute without a hub"); err != nil {
		return nil, nil, err
	}
	return kb.execute(0, query, params)
}

func (kb *KnowledgeBase) execute(shard int, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	plan, err := kb.prepare(query)
	if err != nil {
		return nil, nil, err
	}
	var res *cypher.Result
	rep, err := kb.write(shard, func(tx *graph.Tx) error {
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
// write path; bulk loaders use it. With more than one shard the write must
// name its shard: use UpdateShard (ShardOf resolves a hub name).
func (kb *KnowledgeBase) WriteTx(fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	if err := kb.single("WriteTx without a hub"); err != nil {
		return nil, err
	}
	return kb.write(0, fn, true)
}

// UpdateShard is WriteTx on a shard named by index. Updates on different
// shards proceed fully in parallel — each takes only its own shard's write
// lock and appends to its own WAL stream.
func (kb *KnowledgeBase) UpdateShard(i int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	if err := kb.checkShard(i); err != nil {
		return nil, err
	}
	return kb.write(i, fn, true)
}

func (kb *KnowledgeBase) checkShard(i int) error {
	if i < 0 || i >= kb.store.NumShards() {
		return fmt.Errorf("core: shard %d out of range [0,%d)", i, kb.store.NumShards())
	}
	return nil
}

// write is the write path: fn's changes on one shard, the rule cascade over
// them (which only ever touches the transaction it was handed, pinned to
// that shard), commit. A non-nil report may accompany an error from the
// cascade. throttle selects whether BlockOnFull async backpressure applies
// after the commit; the async workers' own follow-up transactions pass
// false — they drain the queue, so blocking them on its depth would
// deadlock.
func (kb *KnowledgeBase) write(shard int, fn func(tx *graph.Tx) error, throttle bool) (*trigger.Report, error) {
	if kb.follower {
		return nil, ErrFollower
	}
	tx := kb.store.Shard(shard).Begin(graph.ReadWrite)
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
	if err := kb.single("Essential Summary"); err != nil {
		return err
	}
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
	sort.Slice(out, func(i, j int) bool {
		if !out[i].DateTime.Equal(out[j].DateTime) {
			return out[i].DateTime.Before(out[j].DateTime)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// AlertsAfter lists the alert nodes whose id is greater than after, sorted
// by id. Node ids are assigned in creation order, so this pages the alert
// log incrementally.
func (kb *KnowledgeBase) AlertsAfter(after graph.NodeID) ([]Alert, error) {
	out := kb.collectAlerts(after)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// collectAlerts extracts the alert nodes with id greater than after
// (unsorted) from every shard: an alert node lives in the shard of the hub
// whose rule fired.
func (kb *KnowledgeBase) collectAlerts(after graph.NodeID) []Alert {
	v := kb.view(allShards)
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

// GraphStats returns graph-size counters over all shards; a knowledge
// bridge counts as one relationship.
func (kb *KnowledgeBase) GraphStats() graph.Stats { return kb.store.Stats() }

// SaveGraph serializes the knowledge graph (nodes and relationships with
// full type fidelity) as JSON. Rules, hubs and schemas are configuration
// and are not part of the document.
func (kb *KnowledgeBase) SaveGraph(w io.Writer) error {
	if err := kb.single("SaveGraph"); err != nil {
		return err
	}
	return kb.Store().Export(w)
}

// LoadGraph restores a SaveGraph document into an empty knowledge base. The
// load commits as one transaction without firing rules, so a durable
// knowledge base logs it (and a leader ships it) like any other commit.
func (kb *KnowledgeBase) LoadGraph(r io.Reader) error {
	if err := kb.single("LoadGraph"); err != nil {
		return err
	}
	return kb.Store().Import(r)
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
	if err := kb.single("Fork"); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = kb.clock
	}
	ss, err := graph.AttachShards([]*graph.Store{kb.Store().Clone()})
	if err != nil {
		return nil, err
	}
	// The fork gets its own plan cache (plans re-cost against the fork's
	// statistics) and a fresh registry: its hypothetical activity must not
	// skew the parent's counters.
	nkb, err := assemble(Config{
		Clock:                 clock,
		StrictTermination:     kb.engine.StrictTermination,
		EnforceIntraHubGuards: kb.engine.EnforceIntraHubGuards,
	}, kb.hubs, nil, ss)
	if err != nil {
		return nil, err
	}
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
