package trigger

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cypher"
	"repro/internal/metrics"
)

// Errors reported by rule compilation and the engine.
var (
	ErrRuleExists       = errors.New("trigger: rule already installed")
	ErrRuleNotFound     = errors.New("trigger: rule not found")
	ErrEmptyRule        = errors.New("trigger: rule needs a guard, an alert or an action")
	ErrCascadeDepth     = errors.New("trigger: cascade depth limit exceeded")
	ErrNonTerminating   = errors.New("trigger: rule introduces a triggering cycle")
	ErrGuardNotIntraHub = errors.New("trigger: guard reaches outside the rule's hub")
	// ErrAsyncFallback is returned by an AsyncSink to decline an activation
	// without failing the transaction: the engine then evaluates the rule
	// synchronously, as if no sink were installed. Embedders use it while
	// their pipeline is not (yet) running.
	ErrAsyncFallback = errors.New("trigger: async pipeline not running")
)

// Phase selects when a rule's alert query runs relative to the triggering
// transaction, mirroring the APOC trigger phases the paper's Fig. 6/7
// translation targets (§IV-B) and the coupling modes of the active-database
// literature.
type Phase int

// Rule phases.
const (
	// Before runs the whole rule — guard, alert query, alert-node
	// production — inside the writing transaction (APOC's "before" phase;
	// immediate coupling). This is the default.
	Before Phase = iota
	// AfterAsync runs only the guard inside the writing transaction;
	// passing bindings are handed to the engine's AsyncSink and the alert
	// query runs later against a committed snapshot, producing alert nodes
	// in a follow-up transaction (APOC's "afterAsync" phase; detached
	// coupling). Engines without an AsyncSink fall back to synchronous
	// evaluation.
	AfterAsync
)

// String returns the APOC-style phase name.
func (p Phase) String() string {
	switch p {
	case AfterAsync:
		return "afterAsync"
	default:
		return "before"
	}
}

// ParsePhase parses an APOC-style phase name. The empty string means Before.
func ParsePhase(s string) (Phase, error) {
	switch s {
	case "", "before":
		return Before, nil
	case "afterAsync", "afterasync", "async":
		return AfterAsync, nil
	default:
		return Before, fmt.Errorf("trigger: unknown phase %q (want before or afterAsync)", s)
	}
}

// Rule is the paper's reactive-rule quadruple <Event, Guard, Alert,
// AlertNode>, plus an optional fully reactive Action (the generalization
// §V discusses).
//
//   - Event selects the graph changes that activate the rule.
//   - Guard is a Cypher expression evaluated with the transition variables
//     (NEW, OLD, …) bound; it should be a cheap, intra-hub check. Empty
//     means "always true".
//   - Alert is a Cypher query, arbitrarily complex and possibly inter-hub;
//     each row it returns denotes a critical situation.
//   - For every critical row the engine creates an Alert node labeled
//     AlertLabel carrying the mandatory properties rule, hub and dateTime
//     plus one property per result column — unless Action is set, in which
//     case the engine runs Action instead, with the row's columns and the
//     transition variables bound.
type Rule struct {
	// Name identifies the rule (unique within an engine).
	Name string
	// Hub is the knowledge hub that owns (authored) the rule.
	Hub string
	// Event selects the activating graph changes.
	Event Event
	// Guard is an optional Cypher predicate over the transition variables.
	Guard string
	// Alert is an optional Cypher query; rows denote critical situations.
	Alert string
	// AlertLabel overrides the label of produced alert nodes ("Alert").
	AlertLabel string
	// Action, when set, replaces alert-node creation with a Cypher write
	// statement executed once per critical row (or once per activation if
	// Alert is empty).
	Action string
	// Phase selects synchronous (Before, default) or asynchronous
	// (AfterAsync) alert evaluation.
	Phase Phase
	// Composite, when non-empty, marks this rule as one compiled step of a
	// composite (CEP) rule with that name: a passing guard does not run an
	// alert query but is handed to the engine's StepSink, which advances
	// the composite rule's durable partial-match automaton inside the same
	// transaction (internal/cep compiles its operators down to such
	// rules). StepIndex is the step's position within the composite rule.
	Composite string
	StepIndex int
}

// Compiled holds the rule's prepared artifacts: the guard as a
// CompiledExpr and the alert/action as Plans. All three are compiled once
// at install time; steady-state evaluation binds NEW/OLD and runs closures,
// with no per-event parsing or AST walking. Engine.Install keeps one per
// rule; Engine.Compile hands one out uninstalled, for a reaction that is
// reached by other means than event dispatch (a composite completion).
type Compiled struct {
	Rule
	guard  *cypher.CompiledExpr
	alert  *cypher.Plan
	action *cypher.Plan
	paused atomic.Bool
	seq    int

	// firing statistics, updated atomically outside the engine lock
	nChecks      atomic.Int64
	nActivations atomic.Int64
	nAlertNodes  atomic.Int64

	// per-rule metric children, resolved once at Install (nil when the
	// engine is uninstrumented; nil instruments no-op)
	mFired    *metrics.Counter
	mRejected *metrics.Counter
}

func compileRule(r Rule, defaultAlertLabel string) (*Compiled, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("trigger: rule needs a name")
	}
	// Composite step rules may be bare selectors: the step event itself is
	// the payload, delivered to the StepSink.
	if r.Guard == "" && r.Alert == "" && r.Action == "" && r.Composite == "" {
		return nil, fmt.Errorf("%w: %s", ErrEmptyRule, r.Name)
	}
	if r.AlertLabel == "" {
		r.AlertLabel = defaultAlertLabel
	}
	cr := &Compiled{Rule: r}
	if r.Guard != "" {
		g, err := cypher.PrepareExpr(r.Guard)
		if err != nil {
			return nil, fmt.Errorf("trigger: rule %s guard: %w", r.Name, err)
		}
		cr.guard = g
	}
	if r.Alert != "" {
		plan, err := cypher.Prepare(r.Alert)
		if err != nil {
			return nil, fmt.Errorf("trigger: rule %s alert: %w", r.Name, err)
		}
		cr.alert = plan
	}
	if r.Action != "" {
		plan, err := cypher.Prepare(r.Action)
		if err != nil {
			return nil, fmt.Errorf("trigger: rule %s action: %w", r.Name, err)
		}
		cr.action = plan
	}
	return cr, nil
}

// footprint summarizes what the rule can read and write, for
// classification and termination analysis.
type footprint struct {
	readLabels   []string
	readRelTypes []string
	created      []string // node labels the actions may create
	createdRels  []string
	setsLabels   []string
	setsProps    []string
	removesProps []string
	deletes      bool
}

func (cr *Compiled) footprint() footprint {
	var fp footprint
	add := func(info *cypher.StatementInfo, write bool) {
		fp.readLabels = append(fp.readLabels, info.MatchedNodeLabels...)
		fp.readRelTypes = append(fp.readRelTypes, info.MatchedRelTypes...)
		if write {
			fp.created = append(fp.created, info.CreatedNodeLabels...)
			fp.createdRels = append(fp.createdRels, info.CreatedRelTypes...)
			fp.setsLabels = append(fp.setsLabels, info.SetLabels...)
			fp.setsProps = append(fp.setsProps, info.SetPropKeys...)
			fp.removesProps = append(fp.removesProps, info.RemovedPropKeys...)
			if info.Deletes {
				fp.deletes = true
			}
		}
	}
	if cr.guard != nil {
		add(cypher.InspectExpr(cr.guard.Expr()), false)
	}
	if cr.alert != nil {
		// The alert query may itself contain write clauses in action-less
		// mode (discouraged but possible), so treat it as read+write.
		add(cypher.Inspect(cr.alert.Statement()), true)
	}
	if cr.action != nil {
		add(cypher.Inspect(cr.action.Statement()), true)
	}
	if cr.action == nil {
		// Alert-node mode always creates a node with the alert label.
		fp.created = append(fp.created, cr.AlertLabel)
	}
	// The event selector is also part of the read set.
	if cr.Event.Label != "" {
		if cr.Event.Kind.row().onRel {
			fp.readRelTypes = append(fp.readRelTypes, cr.Event.Label)
		} else {
			fp.readLabels = append(fp.readLabels, cr.Event.Label)
		}
	}
	return fp
}

// RuleScope classifies the reach of a rule across hubs (§III-C).
type RuleScope int

// Rule scopes.
const (
	ScopeUnknown RuleScope = iota
	IntraHub
	InterHub
)

func (s RuleScope) String() string {
	switch s {
	case IntraHub:
		return "intra-hub"
	case InterHub:
		return "inter-hub"
	default:
		return "unknown"
	}
}

// RuleState classifies whether a rule consults one or several states of the
// knowledge graph (§III-C).
type RuleState int

// Rule state classes.
const (
	StateUnknown RuleState = iota
	SingleState
	MultiState
)

func (s RuleState) String() string {
	switch s {
	case SingleState:
		return "single-state"
	case MultiState:
		return "multi-state"
	default:
		return "unknown"
	}
}

// Classification is the two-axis rule taxonomy of §III-C.
type Classification struct {
	Scope RuleScope
	State RuleState
	// Hubs lists the hubs whose knowledge the rule touches.
	Hubs []string
}

// LabelHubResolver maps a node label to its owning hub.
type LabelHubResolver func(label string) (hubName string, ok bool)

// defaultStateLabels are the labels whose presence in a rule body indicates
// consultation of historical state (the Essential Summary machinery).
var defaultStateLabels = map[string]bool{
	"Summary": true,
	"Current": true,
	"Alert":   true,
}

// Classify computes the scope and state class of a rule by static analysis
// of its guard, alert and action. resolve maps labels to hubs; nil means no
// hub information (scope stays unknown unless only the rule's own hub is
// involved). stateLabels overrides the default {Summary, Current, Alert}.
func Classify(cr *Compiled, resolve LabelHubResolver, stateLabels map[string]bool) Classification {
	if stateLabels == nil {
		stateLabels = defaultStateLabels
	}
	fp := cr.footprint()
	hubs := map[string]bool{}
	if cr.Hub != "" {
		hubs[cr.Hub] = true
	}
	unresolved := false
	state := SingleState
	for _, l := range fp.readLabels {
		if stateLabels[l] || l == cr.AlertLabel {
			state = MultiState
			continue // summary structures are shared, not hub knowledge
		}
		if resolve == nil {
			unresolved = true
			continue
		}
		if h, ok := resolve(l); ok {
			hubs[h] = true
		} else {
			unresolved = true
		}
	}
	cls := Classification{State: state}
	for h := range hubs {
		cls.Hubs = append(cls.Hubs, h)
	}
	sort.Strings(cls.Hubs)
	switch {
	case len(hubs) > 1:
		cls.Scope = InterHub
	case unresolved:
		cls.Scope = ScopeUnknown
	default:
		cls.Scope = IntraHub
	}
	return cls
}
