package trigger

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/summary"
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
	// ErrNoStepSink refuses a composite rule on an engine without a
	// StepSink: nothing would advance its automaton. internal/cep's Enable
	// attaches one; followers and forks have none.
	ErrNoStepSink = errors.New("trigger: composite rules need a composite-event runtime (cep.Enable)")
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
//
// A composite rule has a composite event term (Composite) in place of Event,
// Guard and Phase: its step atoms, each with its own guard, feed a
// partial-match automaton, and the alert runs when the term completes.
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
	// Action, when set, replaces alert-node creation with a Cypher write
	// statement executed once per critical row (or once per activation if
	// Alert is empty). Composite rules take none.
	Action string
	// Phase selects synchronous (Before, default) or asynchronous
	// (AfterAsync) alert evaluation.
	Phase Phase
	// Composite, when set, makes this a composite rule; its fields are
	// promoted (r.Op, r.Steps, r.Threshold, r.Window), so read them only
	// when it is non-nil.
	*Composite
}

// Op is a composite-event operator.
type Op int

// Composite-event operators.
const (
	// Sequence matches its steps in order, all within Window of the first
	// match. A final negated step (NOT …) turns the rule into absence
	// detection: the match completes when the window closes without the
	// negated event occurring, and is killed if it does occur.
	Sequence Op = iota
	// All matches when every step has occurred, in any order, within
	// Window of the first match (conjunction).
	All
	// Count matches when Threshold occurrences of its single step fall
	// within a sliding Window; on completion the window resets.
	Count
)

// opNames spells each operator in the DSL.
var opNames = [...]string{Sequence: "SEQUENCE", All: "AND", Count: "COUNT"}

// String returns the DSL operator name.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("OP(%d)", int(o))
	}
	return opNames[o]
}

// Step is one atom of a composite event term.
type Step struct {
	// Event selects the graph changes that constitute this atom.
	Event Event
	// Guard is an optional Cypher predicate over the transition variables
	// (IF clause); it runs synchronously in the triggering transaction.
	Guard string
	// Key is an optional Cypher expression (BY clause) whose value
	// correlates occurrences: each distinct key tracks its own partial
	// match. Steps of one rule should agree on the key expression's
	// meaning (e.g. all keyed by account id).
	Key string
	// Negated marks the step as an absence atom (NOT …). Only valid as
	// the final step of a Sequence.
	Negated bool
}

// Composite is a composite event term: an operator over step atoms and the
// window a match must fit in.
type Composite struct {
	Op Op
	// Steps are the atoms. Count takes exactly one.
	Steps []Step
	// Threshold is the occurrence count for Count (≥ 1).
	Threshold int
	// Window bounds the time span of a match, measured on the engine's clock
	// at the commit that carries each occurrence (event time = tx commit
	// order).
	Window time.Duration
}

// clone returns a copy of the term that shares no memory with c; nil for nil.
func (c *Composite) clone() *Composite {
	if c == nil {
		return nil
	}
	d := *c
	d.Steps = slices.Clone(c.Steps)
	return &d
}

// validate checks the term's shape: what the automaton can run.
func (c *Composite) validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("needs WITHIN window > 0")
	}
	if len(c.Steps) == 0 {
		return fmt.Errorf("needs at least one step")
	}
	for i, st := range c.Steps {
		if st.Negated && (c.Op != Sequence || i != len(c.Steps)-1) {
			return fmt.Errorf("NOT is only valid as the final SEQUENCE step")
		}
	}
	switch c.Op {
	case Sequence:
		if c.Steps[0].Negated {
			return fmt.Errorf("SEQUENCE needs a positive step before NOT")
		}
	case All:
		if len(c.Steps) < 2 || len(c.Steps) > 62 {
			return fmt.Errorf("AND takes 2 to 62 steps")
		}
	case Count:
		if len(c.Steps) != 1 {
			return fmt.Errorf("COUNT takes exactly one step")
		}
		if c.Threshold < 1 {
			return fmt.Errorf("COUNT needs a threshold ≥ 1")
		}
	default:
		return fmt.Errorf("unknown operator %d", c.Op)
	}
	if c.Op != Count && c.Threshold != 0 {
		return fmt.Errorf("threshold is only valid with COUNT")
	}
	return nil
}

// Compiled holds the rule's prepared artifacts: the guard as a
// CompiledExpr and the alert/action as Plans. All three are compiled once
// at install time; steady-state evaluation binds NEW/OLD and runs closures,
// with no per-event parsing or AST walking.
//
// A composite rule compiles one more Compiled per step atom: an
// engine-internal dispatch entry carrying the step's event, guard and BY
// key. Entries are fired at the rule's installation position, in step
// order, and labelled cep:<rule>#<i> in the per-rule metrics.
type Compiled struct {
	Rule
	guard  *cypher.CompiledExpr
	cmp    *cmpGuard // the guard split for family sharing; nil if not family-shaped
	alert  *cypher.Plan
	action *cypher.Plan
	aggs   []*aggregate // the alert's maintained aggregates, one per part
	paused atomic.Bool
	seq    int

	steps  []*Compiled          // a composite rule's step entries
	parent *Compiled            // a step entry's composite rule
	step   int                  // a step entry's index within parent
	key    *cypher.CompiledExpr // a step entry's BY expression

	// firing statistics, updated atomically outside the engine lock
	nChecks      atomic.Int64
	nActivations atomic.Int64
	nAlertNodes  atomic.Int64

	// per-rule metric children, resolved once at Install (nil when the
	// engine is uninstrumented; nil instruments no-op)
	mFired       *metrics.Counter
	mRejected    *metrics.Counter
	mAlertMicros *metrics.Counter
}

func compileRule(r Rule) (*Compiled, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("trigger: rule needs a name")
	}
	// A composite rule may be bare: the completed match is itself the
	// critical situation.
	if r.Guard == "" && r.Alert == "" && r.Action == "" && r.Composite == nil {
		return nil, fmt.Errorf("%w: %s", ErrEmptyRule, r.Name)
	}
	cr := &Compiled{Rule: r}
	var err error
	if r.Composite != nil {
		if err := cr.compileSteps(); err != nil {
			return nil, err
		}
	} else if cr.guard, err = prepareExpr(r.Guard); err != nil {
		return nil, fmt.Errorf("trigger: rule %s guard: %w", r.Name, err)
	}
	cr.cmp = splitGuard(cr.guard, r.Guard)
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

// prepareExpr compiles an optional expression; nil for "".
func prepareExpr(src string) (*cypher.CompiledExpr, error) {
	if src == "" {
		return nil, nil
	}
	return cypher.PrepareExpr(src)
}

// compileSteps validates a composite rule and compiles its step entries. It
// works on a copy of the term, so the caller's Steps slice stays theirs.
func (cr *Compiled) compileSteps() error {
	cr.Composite = cr.Composite.clone()
	c := cr.Composite
	if cr.Event != (Event{}) || cr.Guard != "" || cr.Phase != Before {
		return fmt.Errorf("trigger: rule %s: a composite rule takes no Event, Guard or Phase (its steps carry them)", cr.Name)
	}
	if cr.Action != "" {
		return fmt.Errorf("trigger: rule %s: a composite rule takes no DO action (its completion creates alert nodes)", cr.Name)
	}
	if strings.Contains(cr.Name, "\x00") {
		return fmt.Errorf("trigger: rule %s: name must not contain NUL", cr.Name)
	}
	if err := c.validate(); err != nil {
		return fmt.Errorf("trigger: rule %s: %w", cr.Name, err)
	}
	cr.steps = make([]*Compiled, len(c.Steps))
	for i, st := range c.Steps {
		s := &Compiled{
			Rule:   Rule{Name: stepName(cr.Name, i), Hub: cr.Hub, Event: st.Event, Guard: st.Guard},
			parent: cr,
			step:   i,
		}
		var err error
		if s.guard, err = prepareExpr(st.Guard); err != nil {
			return fmt.Errorf("trigger: rule %s step %d IF: %w", cr.Name, i, err)
		}
		s.cmp = splitGuard(s.guard, st.Guard)
		if s.key, err = prepareExpr(st.Key); err != nil {
			return fmt.Errorf("trigger: rule %s step %d BY: %w", cr.Name, i, err)
		}
		cr.steps[i] = s
	}
	return nil
}

// stepName names a composite rule's i-th step in metrics and the APOC
// export.
func stepName(rule string, i int) string { return fmt.Sprintf("cep:%s#%d", rule, i) }

// dispatched returns the entries the dispatch index holds for the rule: the
// rule itself, or a composite rule's steps.
func (cr *Compiled) dispatched() []*Compiled {
	if cr.steps != nil {
		return cr.steps
	}
	return []*Compiled{cr}
}

// compositeBinding names the variables a composite rule's alert query runs
// with bound (the CEP manager's completion binds them).
var compositeBinding = []string{"DONEAT", "FIRST", "KEY", "LAST", "MATCHES", "RULE", "STARTEDAT", "WINDOW"}

// bindNames returns the names of the variables cr's alert query runs with
// bound: the binding shape it compiles for.
func (cr *Compiled) bindNames() []string {
	if cr.Composite != nil {
		return compositeBinding
	}
	return bindingShape(cr.Event.Kind)
}

// stepKey evaluates a step entry's BY expression for one activation; "" when
// it has none. A string key is used unquoted: it is an identity, not a
// rendering.
func (cr *Compiled) stepKey(tx *graph.Tx, bind Binding, now time.Time) (string, error) {
	if cr.key == nil {
		return "", nil
	}
	v, err := cr.key.Eval(tx, &cypher.Options{Bindings: bind, Now: func() time.Time { return now }})
	if err != nil {
		return "", fmt.Errorf("trigger: rule %s step %d BY: %w", cr.parent.Name, cr.step, err)
	}
	if s, ok := v.AsString(); ok {
		return s, nil
	}
	return v.String(), nil
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
	// The selectors, guards and BY keys a rule dispatches on are part of
	// its read set.
	for _, d := range cr.dispatched() {
		for _, e := range []*cypher.CompiledExpr{d.guard, d.key} {
			if e != nil {
				add(cypher.InspectExpr(e.Expr()), false)
			}
		}
		switch {
		case d.Event.Label == "":
		case d.Event.Kind.row().onRel:
			fp.readRelTypes = append(fp.readRelTypes, d.Event.Label)
		default:
			fp.readLabels = append(fp.readLabels, d.Event.Label)
		}
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
		fp.created = append(fp.created, AlertLabel)
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

// stateLabels are the labels whose presence in a rule body indicates
// consultation of historical state (the Essential Summary machinery).
var stateLabels = map[string]bool{
	summary.SummaryLabel: true,
	summary.CurrentLabel: true,
	AlertLabel:           true,
}

// placeLabel resolves a label a rule reads to the hub that owns it. state
// reports the state labels, which are shared structures rather than hub
// knowledge; ok reports whether resolve (nil means no hub information)
// placed any other label.
func placeLabel(l string, resolve LabelHubResolver) (hub string, state, ok bool) {
	if stateLabels[l] {
		return "", true, false
	}
	if resolve == nil {
		return "", false, false
	}
	hub, ok = resolve(l)
	return hub, false, ok
}

// Classify computes the scope and state class of a rule by static analysis
// of its guard, alert and action. resolve maps labels to hubs; nil means no
// hub information (scope stays unknown unless only the rule's own hub is
// involved).
func Classify(cr *Compiled, resolve LabelHubResolver) Classification {
	fp := cr.footprint()
	hubs := map[string]bool{}
	if cr.Hub != "" {
		hubs[cr.Hub] = true
	}
	unresolved := false
	state := SingleState
	for _, l := range fp.readLabels {
		switch h, isState, ok := placeLabel(l, resolve); {
		case isState:
			state = MultiState
		case ok:
			hubs[h] = true
		default:
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
