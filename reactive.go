// Package reactive is a reactive knowledge management system in pure Go: a
// from-scratch reproduction of "Reactive Knowledge Management" (Ceri,
// Bernasconi, Gagliardi — ICDE 2024).
//
// A KnowledgeBase holds a property graph partitioned into knowledge hubs,
// optionally governed by a PG-Schema graph type, queried and updated
// through a Cypher subset, and made *reactive* by Event–Guard–Alert rules:
// graph changes (events) are filtered by cheap intra-hub guards; when a
// guard passes, an arbitrarily complex alert query inspects the situation
// and, if critical, produces Alert nodes that are logged period-by-period
// in the Essential Summary structure.
//
// Quick start:
//
//	kb := reactive.New(reactive.Config{})
//	_ = kb.DefineHub("A", "analysis hub", "Sequence", "Lab")
//	_ = kb.InstallRule(reactive.Rule{
//	    Name:  "R2",
//	    Hub:   "A",
//	    Event: reactive.Event{Kind: reactive.CreateNode, Label: "Sequence"},
//	    Guard: "NEW.variant IS NULL",
//	    Alert: `MATCH (u:Sequence) WHERE u.variant IS NULL
//	            WITH count(u) AS unassigned WHERE unassigned > 100
//	            RETURN unassigned`,
//	})
//	_, _ = kb.Execute("CREATE (:Sequence {id: 'S1'})", nil)
//	alerts, _ := kb.Alerts()
//
// See the examples directory for complete scenarios (the paper's four-hub
// COVID-19 running example, a climate-crisis transfer, and what-if
// exploration) and DESIGN.md for the system inventory.
package reactive

import (
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/fednet"
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

// KnowledgeBase is a reactive knowledge management system instance.
type KnowledgeBase = core.KnowledgeBase

// Config tunes a KnowledgeBase.
type Config = core.Config

// Alert is a materialized alert node.
type Alert = core.Alert

// New creates an empty knowledge base.
func New(cfg Config) *KnowledgeBase { return core.New(cfg) }

// WALOptions tunes the write-ahead log of a durable knowledge base.
type WALOptions = wal.Options

// FsyncPolicy selects when log appends reach stable storage.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies, from safest to fastest.
const (
	FsyncAlways   = wal.FsyncAlways
	FsyncInterval = wal.FsyncInterval
	FsyncNone     = wal.FsyncNone
)

// ParseFsyncPolicy parses "always", "interval" or "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// RecoveryInfo reports what OpenDurable recovered.
type RecoveryInfo = wal.RecoveryInfo

// ErrFollowerWrite is returned by write operations on a knowledge base that
// runs as a replication read replica (rkm-server -replica-of); writes belong
// on the leader. See internal/replica and DESIGN.md §12.
var ErrFollowerWrite = core.ErrFollower

// OpenDurable opens (or creates) a durable knowledge base persisted under
// dir: committed transactions append to a write-ahead log,
// KnowledgeBase.Checkpoint compacts it into a snapshot, and OpenDurable
// recovers the pre-crash committed state on startup. Rules, schemas, hubs
// and indexes are configuration: re-install them after OpenDurable returns.
func OpenDurable(dir string, cfg Config, wopts WALOptions) (*KnowledgeBase, *RecoveryInfo, error) {
	return core.OpenDurable(dir, cfg, wopts)
}

// Rule is the reactive-rule quadruple <Event, Guard, Alert, AlertNode>.
type Rule = trigger.Rule

// Event selects the graph changes that activate a rule.
type Event = trigger.Event

// EventKind enumerates monitorable graph changes.
type EventKind = trigger.EventKind

// Event kinds (create/delete of nodes and relationships, set/removal of
// labels and properties).
const (
	CreateNode         = trigger.CreateNode
	DeleteNode         = trigger.DeleteNode
	CreateRelationship = trigger.CreateRelationship
	DeleteRelationship = trigger.DeleteRelationship
	SetLabel           = trigger.SetLabel
	RemoveLabel        = trigger.RemoveLabel
	SetProperty        = trigger.SetProperty
	RemoveProperty     = trigger.RemoveProperty
)

// ParseEventKind resolves an event kind's JSON name ("createNode").
func ParseEventKind(name string) (EventKind, bool) { return trigger.ParseEventKind(name) }

// Phase selects when a rule's alert query runs relative to the triggering
// transaction: synchronously inside it (PhaseBefore, the default) or
// asynchronously against a committed snapshot (PhaseAfterAsync), mirroring
// the APOC trigger phases of §IV-B.
type Phase = trigger.Phase

// Rule phases.
const (
	PhaseBefore     = trigger.Before
	PhaseAfterAsync = trigger.AfterAsync
)

// ParsePhase parses "before" (or ""), "afterAsync" or "async".
func ParsePhase(s string) (Phase, error) { return trigger.ParsePhase(s) }

// AsyncOptions tunes the asynchronous alert pipeline started with
// KnowledgeBase.StartAsync: worker count, queue bound and backpressure
// policy.
type AsyncOptions = core.AsyncOptions

// Backpressure selects how writers behave when the async pending queue is
// full: block until workers catch up, or shed the excess activations.
type Backpressure = core.Backpressure

// Backpressure policies.
const (
	BlockOnFull = core.BlockOnFull
	ShedOnFull  = core.ShedOnFull
)

// ParseBackpressure parses "block" or "shed".
func ParseBackpressure(s string) (Backpressure, error) { return core.ParseBackpressure(s) }

// PendingAlertLabel is the label of the durable pending-queue nodes staged
// by PhaseAfterAsync rules between their guard passing and their alert
// query running.
const PendingAlertLabel = core.PendingAlertLabel

// RuleInfo describes an installed rule and its §III-C classification.
type RuleInfo = trigger.RuleInfo

// Classification is the scope × state taxonomy of rules.
type Classification = trigger.Classification

// Rule scope and state classes.
const (
	IntraHub    = trigger.IntraHub
	InterHub    = trigger.InterHub
	SingleState = trigger.SingleState
	MultiState  = trigger.MultiState
)

// Report summarizes rule processing for one transaction.
type Report = trigger.Report

// IsTriggerStatement reports whether src is a PG-Triggers-style CREATE
// TRIGGER declaration (for routing text to InstallRuleText instead of
// Execute).
func IsTriggerStatement(src string) bool { return trigger.IsTriggerStatement(src) }

// ParseRule parses a CREATE TRIGGER declaration without installing it.
func ParseRule(src string) (Rule, error) { return trigger.ParseRule(src) }

// ConfluenceWarning reports a potentially order-dependent rule pair.
type ConfluenceWarning = trigger.ConfluenceWarning

// Result is the outcome of a query: columns, rows and update counters.
type Result = cypher.Result

// Value is a dynamically typed graph value.
type Value = value.Value

// Params builds a typed parameter map from native Go values.
func Params(m map[string]any) map[string]Value {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]Value, len(m))
	for k, v := range m {
		out[k] = value.FromGo(v)
	}
	return out
}

// V converts a native Go value into a graph Value.
func V(x any) Value { return value.FromGo(x) }

// Clock abstracts time for deterministic simulations.
type Clock = periodic.Clock

// ManualClock is an explicitly advanced clock.
type ManualClock = periodic.ManualClock

// NewManualClock returns a manual clock set to start.
func NewManualClock(start time.Time) *ManualClock { return periodic.NewManualClock(start) }

// RealClock reads the wall clock.
type RealClock = periodic.RealClock

// GraphType is a PG-Schema graph type.
type GraphType = schema.GraphType

// ParseGraphType parses the paper's textual PG-Schema syntax.
func ParseGraphType(src string) (*GraphType, error) { return schema.ParseGraphType(src) }

// HubStats summarizes the partitioning of the knowledge graph.
type HubStats = hub.Stats

// HubRegistry is the registry of knowledge hubs: names, descriptions and
// the node labels each hub owns.
type HubRegistry = hub.Registry

// SummaryManager maintains the Essential Summary structure.
type SummaryManager = summary.Manager

// WindowFilter selects alerts for Essential Summary window queries.
type WindowFilter = summary.WindowFilter

// RemoteAlertLabel is the label of alerts replicated from other federation
// participants (§V's federated deployment, internal/fednet).
const RemoteAlertLabel = fednet.RemoteAlertLabel

// RemoteAlerts lists the alerts replicated into kb from other participants.
func RemoteAlerts(kb *KnowledgeBase) ([]Alert, error) { return fednet.RemoteAlerts(kb) }

// MetricsRegistry holds a knowledge base's runtime instrumentation —
// counters, gauges and latency histograms for the trigger engine, the graph
// store, the write-ahead log and the Essential Summary. Obtain it with
// KnowledgeBase.Metrics; serve it with WritePrometheus or inspect it with
// Gather. See OBSERVABILITY.md for the full metric catalog.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time view of one metric family from
// MetricsRegistry.Gather.
type MetricsSnapshot = metrics.FamilySnapshot

// HistogramSnapshot is a consistent view of one histogram's buckets, with
// quantile estimation (used by rkm-bench's latency summaries).
type HistogramSnapshot = metrics.HistogramSnapshot

// Store is the underlying transactional property-graph store.
type Store = graph.Store

// Tx is a graph transaction (used with KnowledgeBase.WriteTx and
// Store.View for programmatic access).
type Tx = graph.Tx

// NodeID identifies a node.
type NodeID = graph.NodeID

// RelID identifies a relationship.
type RelID = graph.RelID
