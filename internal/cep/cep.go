package cep

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
)

// PartialLabel is the label of the durable partial-match bookkeeping
// nodes. Like PendingAlert, the label is registered in the engine's
// SkipLabels, so automaton churn is invisible to user rule matching while
// still riding the WAL, snapshots, recovery and replication.
const PartialLabel = "CEPPartial"

// CEPPartial node properties.
const (
	propRule      = "cepRule"   // composite rule name
	propKey       = "ckey"      // correlation-key string ("" when unkeyed)
	propPKey      = "pkey"      // rule + NUL + key; indexed for lookup
	propState     = "state"     // sequence: next step index; AND: seen bitmask
	propTimes     = "times"     // COUNT: JSON array of unix-nano timestamps
	propStartedAt = "startedAt" // clock time of the opening occurrence
	propUpdatedAt = "updatedAt" // clock time of the latest advance
	propDeadline  = "deadline"  // window close
	propDone      = "done"      // completed, awaiting drain
	propDoneAt    = "doneAt"    // clock time of completion
	propFirst     = "first"     // encoded binding of the opening occurrence
	propLast      = "last"      // encoded binding of the latest occurrence
)

// DefaultDrainInterval paces the background drain loop when Start is
// called with a non-positive interval.
const DefaultDrainInterval = 200 * time.Millisecond

// ErrEnabled is returned when Enable is called twice on one knowledge base.
var ErrEnabled = errors.New("cep: composite events already enabled on this knowledge base")

// Options configures a Manager.
type Options struct {
	// AlertLabel is the default label of composite alert nodes; empty
	// means the trigger engine's default ("Alert"). Individual rules can
	// override it.
	AlertLabel string
	// Logf receives background drain-loop errors; nil discards them.
	Logf func(format string, args ...any)
}

// Manager runs composite-event rules over one knowledge base: it installs
// their compiled step rules, advances durable partial-match state from the
// engine's StepSink, and drains completed or expired partials into alerts.
type Manager struct {
	kb   *core.KnowledgeBase
	opts Options
	m    cepMetrics

	mu    sync.RWMutex
	rules map[string]*compiledRule
	seq   int

	recovered int

	workerMu sync.Mutex
	wake     chan struct{}
	stop     chan struct{}
	done     chan struct{}
}

// Enable attaches composite-event support to a knowledge base: it
// registers the CEPPartial skip label and lookup index, wires the
// rkm_cep_* metrics, installs the engine StepSink, and counts any partial
// matches recovered from a previous run. Call it after the knowledge base
// is opened and before the first write (the sink and skip label must not
// change under concurrent transactions); refused on replication followers,
// whose partial state arrives from the leader.
//
// Partial-match state lives in the shard whose transaction wrote the
// occurrence, so with more than one shard a composite rule correlates
// within a shard — as the async pipeline's queue does — and the drain
// visits every shard.
func Enable(kb *core.KnowledgeBase, opts Options) (*Manager, error) {
	if kb.Follower() {
		return nil, core.ErrFollower
	}
	eng := kb.Engine()
	if eng.StepSink != nil {
		return nil, ErrEnabled
	}
	m := &Manager{kb: kb, opts: opts, rules: make(map[string]*compiledRule)}
	if eng.SkipLabels == nil {
		eng.SkipLabels = make(map[string]bool)
	}
	eng.SkipLabels[PartialLabel] = true
	if err := kb.CreateIndex(PartialLabel, propPKey); err != nil {
		return nil, fmt.Errorf("cep: create partial index: %w", err)
	}
	m.wireMetrics(kb.Metrics())
	m.recovered = m.Depth()
	m.m.recovered.Add(int64(m.recovered))
	eng.StepSink = m.step
	return m, nil
}

func (m *Manager) alertLabel(cr *compiledRule) string {
	if cr.AlertLabel != "" {
		return cr.AlertLabel
	}
	if m.opts.AlertLabel != "" {
		return m.opts.AlertLabel
	}
	return trigger.DefaultAlertLabel
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Recovered returns the number of partial matches found on the graph when
// the manager was enabled — state a previous process left behind.
func (m *Manager) Recovered() int { return m.recovered }

// Depth returns the number of partial-match nodes currently on the graph
// (open and completed-but-undrained).
func (m *Manager) Depth() int { return m.kb.Shards().LabelCount(PartialLabel) }

// ---- rule management ----

// Install compiles a composite rule and installs its step rules on the
// engine.
func (m *Manager) Install(r Rule) error {
	cr, err := compile(r)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.rules[r.Name]; dup {
		return fmt.Errorf("%w: %s", ErrRuleExists, r.Name)
	}
	eng := m.kb.Engine()
	installed := make([]string, 0, len(cr.Steps))
	for _, sr := range cr.stepRules() {
		if err := eng.Install(sr); err != nil {
			for _, name := range installed {
				_ = eng.Drop(name)
			}
			return fmt.Errorf("cep: rule %s: %w", r.Name, err)
		}
		installed = append(installed, sr.Name)
	}
	cr.seq = m.seq
	m.seq++
	m.rules[r.Name] = cr
	return nil
}

// InstallText parses a composite CREATE TRIGGER declaration (see ParseRule)
// and installs it.
func (m *Manager) InstallText(src string) (Rule, error) {
	r, err := ParseRule(src)
	if err != nil {
		return r, err
	}
	return r, m.Install(r)
}

// Drop removes a composite rule and its step rules. Partial matches the
// rule left behind are discarded (as orphans) by the next drain.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cr, ok := m.rules[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrRuleNotFound, name)
	}
	eng := m.kb.Engine()
	for i := range cr.Steps {
		_ = eng.Drop(stepRuleName(name, i))
	}
	delete(m.rules, name)
	return nil
}

// RuleInfo describes one installed composite rule.
type RuleInfo struct {
	Rule
	// Text is the canonical DSL rendering of the rule.
	Text string
}

// Rules lists installed composite rules in installation order.
func (m *Manager) Rules() []RuleInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	crs := make([]*compiledRule, 0, len(m.rules))
	for _, cr := range m.rules {
		crs = append(crs, cr)
	}
	sort.Slice(crs, func(i, j int) bool { return crs[i].seq < crs[j].seq })
	out := make([]RuleInfo, len(crs))
	for i, cr := range crs {
		out[i] = RuleInfo{Rule: cr.Rule, Text: cr.Rule.Text()}
	}
	return out
}

// Owns reports whether an engine rule name is an internal per-step rule
// installed by the composite manager (they are implementation detail and
// rule listings usually hide them).
func (m *Manager) Owns(name string) bool {
	return strings.HasPrefix(name, "cep:")
}

// Has reports whether a composite rule with the given name is installed.
func (m *Manager) Has(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.rules[name]
	return ok
}

// ---- the step sink: advancing partial matches in the writing tx ----

func partialKey(rule, key string) string { return rule + "\x00" + key }

// step is the engine StepSink: one passing step-rule activation, inside
// the writing transaction. All state it touches is durable graph state, so
// a crash either keeps the whole triggering transaction (with the advance)
// or none of it.
func (m *Manager) step(tx *graph.Tx, item trigger.StepItem) error {
	m.mu.RLock()
	cr := m.rules[item.Composite]
	m.mu.RUnlock()
	if cr == nil || item.Step < 0 || item.Step >= len(cr.Steps) {
		return nil // dropped concurrently: the occurrence is inert
	}
	m.onCommit(tx, func() { m.m.steps.Inc() })

	now := m.kb.Now()
	key := ""
	if ke := cr.keys[item.Step]; ke != nil {
		v, err := ke.Eval(tx, &cypher.Options{
			Bindings: item.Binding,
			Now:      func() time.Time { return now },
		})
		if err != nil {
			return fmt.Errorf("cep: rule %s step %d BY: %w", cr.Name, item.Step, err)
		}
		if s, ok := v.AsString(); ok {
			key = s // unquoted: the key is an identity, not a rendering
		} else {
			key = v.String()
		}
	}

	id, open := m.lookup(tx, cr.Name, key)
	if open && m.boolProp(tx, id, propDone) {
		// Completed, awaiting drain: the key is occupied until the
		// follow-up transaction materializes the alert.
		return nil
	}
	switch cr.Op {
	case Sequence:
		return m.stepSequence(tx, cr, item, id, open, key, now)
	case All:
		return m.stepAll(tx, cr, item, id, open, key, now)
	default:
		return m.stepCount(tx, cr, item, id, open, key, now)
	}
}

func (m *Manager) stepSequence(tx *graph.Tx, cr *compiledRule, item trigger.StepItem,
	id graph.NodeID, open bool, key string, now time.Time) error {
	final := len(cr.Steps) - 1
	absence := cr.Steps[final].Negated
	st := cr.Steps[item.Step]
	if open {
		state := int(m.intProp(tx, id, propState))
		deadline, _ := m.timeProp(tx, id, propDeadline)
		switch {
		case !now.Before(deadline):
			if absence && state == final {
				// Armed absence match: the window closed without the
				// negated event. Complete it; the incoming occurrence is
				// outside the window and cannot kill it.
				return m.markDone(tx, cr, id, deadline)
			}
			// Timed out mid-sequence: evict, then treat the incoming
			// occurrence as a fresh opener below.
			if err := m.evict(tx, id); err != nil {
				return err
			}
			open = false
		case st.Negated && item.Step == final:
			if state == final {
				// The forbidden event occurred while armed: kill the match.
				return m.kill(tx, id)
			}
			return nil // NOT only guards the tail of a full prefix match
		case item.Step == state:
			// The expected next step, in order and in the window.
			if err := m.advance(tx, id, item, now, value.Int(int64(state+1))); err != nil {
				return err
			}
			if !absence && item.Step == final {
				return m.markDone(tx, cr, id, now)
			}
			return nil
		default:
			return nil // out-of-order occurrence: ignored
		}
	}
	if !open {
		if item.Step != 0 || st.Negated {
			return nil
		}
		id, err := m.openPartial(tx, cr, item, key, now, value.Int(1), "")
		if err != nil {
			return err
		}
		if !absence && final == 0 {
			return m.markDone(tx, cr, id, now) // degenerate 1-step sequence
		}
	}
	return nil
}

func (m *Manager) stepAll(tx *graph.Tx, cr *compiledRule, item trigger.StepItem,
	id graph.NodeID, open bool, key string, now time.Time) error {
	full := int64(1)<<len(cr.Steps) - 1
	bit := int64(1) << item.Step
	if open {
		deadline, _ := m.timeProp(tx, id, propDeadline)
		if !now.Before(deadline) {
			if err := m.evict(tx, id); err != nil {
				return err
			}
			open = false
		} else {
			mask := m.intProp(tx, id, propState) | bit
			if err := m.advance(tx, id, item, now, value.Int(mask)); err != nil {
				return err
			}
			if mask == full {
				return m.markDone(tx, cr, id, now)
			}
			return nil
		}
	}
	if !open {
		id, err := m.openPartial(tx, cr, item, key, now, value.Int(bit), "")
		if err != nil {
			return err
		}
		if bit == full {
			return m.markDone(tx, cr, id, now) // degenerate 1-step AND
		}
	}
	return nil
}

func (m *Manager) stepCount(tx *graph.Tx, cr *compiledRule, item trigger.StepItem,
	id graph.NodeID, open bool, key string, now time.Time) error {
	if open {
		times := m.times(tx, id)
		kept := pruneTimes(times, now.Add(-cr.Window))
		if ev := len(times) - len(kept); ev > 0 {
			m.onCommit(tx, func() { m.m.evictions.Add(int64(ev)) })
		}
		kept = append(kept, now.UnixNano())
		if err := m.setTimes(tx, id, kept); err != nil {
			return err
		}
		if err := m.advance(tx, id, item, now, value.Int(int64(len(kept)))); err != nil {
			return err
		}
		if err := tx.SetNodeProp(id, propDeadline,
			value.DateTime(time.Unix(0, kept[0]).UTC().Add(cr.Window))); err != nil {
			return err
		}
		if len(kept) >= cr.Threshold {
			return m.markDone(tx, cr, id, now)
		}
		return nil
	}
	times := []int64{now.UnixNano()}
	id, err := m.openPartial(tx, cr, item, key, now, value.Int(1), encodeTimes(times))
	if err != nil {
		return err
	}
	if cr.Threshold <= 1 {
		return m.markDone(tx, cr, id, now)
	}
	return nil
}

// ---- durable partial-node primitives ----

func (m *Manager) lookup(tx *graph.Tx, rule, key string) (graph.NodeID, bool) {
	pk := partialKey(rule, key)
	if ids, ok := tx.NodesByProp(PartialLabel, propPKey, value.Str(pk)); ok {
		if len(ids) == 0 {
			return 0, false
		}
		return ids[0], true
	}
	// No index (not Enable-d storage, e.g. a fork): scan.
	for _, id := range tx.NodesByLabel(PartialLabel) {
		if m.strProp(tx, id, propPKey) == pk {
			return id, true
		}
	}
	return 0, false
}

func (m *Manager) openPartial(tx *graph.Tx, cr *compiledRule, item trigger.StepItem,
	key string, now time.Time, state value.Value, times string) (graph.NodeID, error) {
	enc, err := trigger.EncodeBinding(item.Binding)
	if err != nil {
		return 0, fmt.Errorf("cep: rule %s: %w", cr.Name, err)
	}
	props := map[string]value.Value{
		propRule:      value.Str(cr.Name),
		propKey:       value.Str(key),
		propPKey:      value.Str(partialKey(cr.Name, key)),
		propState:     state,
		propStartedAt: value.DateTime(now),
		propUpdatedAt: value.DateTime(now),
		propDeadline:  value.DateTime(now.Add(cr.Window)),
		propDone:      value.Bool(false),
		propFirst:     value.Str(enc),
		propLast:      value.Str(enc),
	}
	if times != "" {
		props[propTimes] = value.Str(times)
	}
	id, err := tx.CreateNode([]string{PartialLabel}, props)
	if err != nil {
		return 0, err
	}
	m.onCommit(tx, func() { m.m.opened.Inc() })
	return id, nil
}

func (m *Manager) advance(tx *graph.Tx, id graph.NodeID, item trigger.StepItem,
	now time.Time, state value.Value) error {
	enc, err := trigger.EncodeBinding(item.Binding)
	if err != nil {
		return err
	}
	if err := tx.SetNodeProp(id, propState, state); err != nil {
		return err
	}
	if err := tx.SetNodeProp(id, propUpdatedAt, value.DateTime(now)); err != nil {
		return err
	}
	return tx.SetNodeProp(id, propLast, value.Str(enc))
}

// markDone flags a partial as completed; the drain's follow-up transaction
// deletes it and materializes the alert, exactly-once.
func (m *Manager) markDone(tx *graph.Tx, cr *compiledRule, id graph.NodeID, at time.Time) error {
	if err := tx.SetNodeProp(id, propDone, value.Bool(true)); err != nil {
		return err
	}
	if err := tx.SetNodeProp(id, propDoneAt, value.DateTime(at)); err != nil {
		return err
	}
	started, _ := m.timeProp(tx, id, propStartedAt)
	m.onCommit(tx, func() {
		m.m.completed.Inc()
		m.m.matchSeconds.Observe(at.Sub(started).Seconds())
		m.kick()
	})
	return nil
}

func (m *Manager) evict(tx *graph.Tx, id graph.NodeID) error {
	if err := tx.DeleteNode(id, true); err != nil {
		return err
	}
	m.onCommit(tx, func() { m.m.expired.Inc() })
	return nil
}

func (m *Manager) kill(tx *graph.Tx, id graph.NodeID) error {
	if err := tx.DeleteNode(id, true); err != nil {
		return err
	}
	m.onCommit(tx, func() { m.m.killed.Inc() })
	return nil
}

func (m *Manager) onCommit(tx *graph.Tx, fn func()) {
	_ = tx.OnCommitted(func() error { fn(); return nil })
}

// ---- prop accessors ----

func (m *Manager) boolProp(tx *graph.Tx, id graph.NodeID, key string) bool {
	v, _ := tx.NodeProp(id, key)
	b, _ := v.AsBool()
	return b
}

func (m *Manager) intProp(tx *graph.Tx, id graph.NodeID, key string) int64 {
	v, _ := tx.NodeProp(id, key)
	i, _ := v.AsInt()
	return i
}

func (m *Manager) strProp(tx *graph.Tx, id graph.NodeID, key string) string {
	v, _ := tx.NodeProp(id, key)
	s, _ := v.AsString()
	return s
}

func (m *Manager) timeProp(tx *graph.Tx, id graph.NodeID, key string) (time.Time, bool) {
	v, _ := tx.NodeProp(id, key)
	return v.AsDateTime()
}

func (m *Manager) times(tx *graph.Tx, id graph.NodeID) []int64 {
	s := m.strProp(tx, id, propTimes)
	var out []int64
	if s != "" {
		_ = json.Unmarshal([]byte(s), &out)
	}
	return out
}

func (m *Manager) setTimes(tx *graph.Tx, id graph.NodeID, times []int64) error {
	return tx.SetNodeProp(id, propTimes, value.Str(encodeTimes(times)))
}

func encodeTimes(times []int64) string {
	raw, _ := json.Marshal(times)
	return string(raw)
}

// pruneTimes returns the suffix of ascending times at or after cutoff.
func pruneTimes(times []int64, cutoff time.Time) []int64 {
	c := cutoff.UnixNano()
	i := 0
	for i < len(times) && times[i] < c {
		i++
	}
	return times[i:]
}

// ---- the drain: resolving completed and expired partials ----

// DrainOnce resolves every completed or expired partial match across all
// shards, each in its own follow-up transaction that deletes the partial
// node and (for completions) materializes the composite alert atomically.
// It returns the number of partials resolved. Safe to call concurrently
// with writers and with the background loop; deterministic tests drive it
// directly with a manual clock.
func (m *Manager) DrainOnce() (int, error) {
	processed := 0
	var errs []error
	for q := 0; q < m.kb.NumShards(); q++ {
		now := m.kb.Now()
		ids, err := m.collect(q, now)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, id := range ids {
			n, err := m.resolve(q, id)
			processed += n
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return processed, errors.Join(errs...)
}

// collect lists the partials of one shard that are ready to resolve:
// completed, past their window, or orphaned by a dropped rule.
func (m *Manager) collect(q int, now time.Time) ([]graph.NodeID, error) {
	var out []graph.NodeID
	err := m.kb.ViewShard(q, func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel(PartialLabel) {
			if m.boolProp(tx, id, propDone) {
				out = append(out, id)
				continue
			}
			if !m.Has(m.strProp(tx, id, propRule)) {
				out = append(out, id)
				continue
			}
			if deadline, ok := m.timeProp(tx, id, propDeadline); ok && !now.Before(deadline) {
				out = append(out, id)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Node IDs are assigned in commit order; resolve oldest first.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// resolve handles one ready partial in its own follow-up transaction.
// Returns 1 when the partial was resolved (deleted), 0 when it turned out
// to still be live (e.g. a count window that merely slid).
func (m *Manager) resolve(q int, id graph.NodeID) (int, error) {
	n := 0
	_, err := m.kb.UpdateShard(q, func(tx *graph.Tx) error {
		if !tx.NodeExists(id) {
			return nil // another drain got here first
		}
		now := m.kb.Now()
		ruleName := m.strProp(tx, id, propRule)
		m.mu.RLock()
		cr := m.rules[ruleName]
		m.mu.RUnlock()
		if cr == nil {
			// Orphaned by a dropped rule: discard.
			if err := tx.DeleteNode(id, true); err != nil {
				return err
			}
			m.onCommit(tx, func() { m.m.orphaned.Inc() })
			n = 1
			return nil
		}
		if m.boolProp(tx, id, propDone) {
			n = 1
			return m.complete(tx, cr, id)
		}
		deadline, _ := m.timeProp(tx, id, propDeadline)
		if now.Before(deadline) {
			return nil // no longer ready (clock moved, state advanced)
		}
		final := len(cr.Steps) - 1
		if cr.Op == Sequence && cr.Steps[final].Negated &&
			int(m.intProp(tx, id, propState)) == final {
			// Absence detection: the window closed with the match armed and
			// the forbidden event never came — that IS the composite event.
			started, _ := m.timeProp(tx, id, propStartedAt)
			if err := tx.SetNodeProp(id, propDoneAt, value.DateTime(deadline)); err != nil {
				return err
			}
			m.onCommit(tx, func() {
				m.m.completed.Inc()
				m.m.matchSeconds.Observe(deadline.Sub(started).Seconds())
			})
			n = 1
			return m.complete(tx, cr, id)
		}
		if cr.Op == Count {
			times := m.times(tx, id)
			kept := pruneTimes(times, now.Add(-cr.Window))
			if ev := len(times) - len(kept); ev > 0 {
				m.onCommit(tx, func() { m.m.evictions.Add(int64(ev)) })
			}
			if len(kept) > 0 {
				// The window slid but occurrences remain: keep the partial.
				if err := m.setTimes(tx, id, kept); err != nil {
					return err
				}
				if err := tx.SetNodeProp(id, propState, value.Int(int64(len(kept)))); err != nil {
					return err
				}
				return tx.SetNodeProp(id, propDeadline,
					value.DateTime(time.Unix(0, kept[0]).UTC().Add(cr.Window)))
			}
		}
		// Window closed without completing: evict.
		n = 1
		return m.evict(tx, id)
	})
	if err != nil {
		return 0, fmt.Errorf("cep: resolve partial %d: %w", id, err)
	}
	return n, nil
}

// complete deletes a done partial and materializes its composite alert —
// one atomic follow-up transaction, the exactly-once point.
func (m *Manager) complete(tx *graph.Tx, cr *compiledRule, id graph.NodeID) error {
	key, _ := tx.NodeProp(id, propKey)
	started, _ := m.timeProp(tx, id, propStartedAt)
	doneAt, _ := m.timeProp(tx, id, propDoneAt)
	matches := int64(0)
	switch cr.Op {
	case Count:
		matches = m.intProp(tx, id, propState)
	default:
		for _, st := range cr.Steps {
			if !st.Negated {
				matches++
			}
		}
	}
	firstBind := m.decodedBinding(tx, id, propFirst)
	lastBind := m.decodedBinding(tx, id, propLast)
	if err := tx.DeleteNode(id, true); err != nil {
		return err
	}

	now := m.kb.Now()
	bind := trigger.Binding{
		"RULE":      value.Str(cr.Name),
		"KEY":       key,
		"MATCHES":   value.Int(matches),
		"WINDOW":    value.Duration(cr.Window),
		"STARTEDAT": value.DateTime(started),
		"DONEAT":    value.DateTime(doneAt),
		"FIRST":     firstBind,
		"LAST":      lastBind,
	}
	alerts := 0
	if cr.alert != nil {
		res, err := cr.alert.Execute(tx, &cypher.Options{
			Bindings: bind,
			Now:      func() time.Time { return now },
		})
		if err != nil {
			return fmt.Errorf("cep: rule %s alert: %w", cr.Name, err)
		}
		for _, row := range res.Rows {
			if err := m.createAlertNode(tx, cr, now, res.Columns, row); err != nil {
				return err
			}
			alerts++
		}
	} else {
		props := map[string]value.Value{
			"key":         key,
			"matches":     value.Int(matches),
			"window":      value.Duration(cr.Window),
			"startedAt":   value.DateTime(started),
			"completedAt": value.DateTime(doneAt),
		}
		if err := m.createAlertNodeProps(tx, cr, now, props); err != nil {
			return err
		}
		alerts = 1
	}
	na := alerts
	m.onCommit(tx, func() { m.m.alerts.Add(int64(na)) })
	return nil
}

// decodedBinding returns the NEW transition value of a stored occurrence
// binding, or Null.
func (m *Manager) decodedBinding(tx *graph.Tx, id graph.NodeID, prop string) value.Value {
	s := m.strProp(tx, id, prop)
	if s == "" {
		return value.Null
	}
	b, err := trigger.DecodeBinding(s)
	if err != nil {
		return value.Null
	}
	if v, ok := b["NEW"]; ok {
		return v
	}
	return value.Null
}

func (m *Manager) createAlertNode(tx *graph.Tx, cr *compiledRule, now time.Time,
	cols []string, row []value.Value) error {
	props := map[string]value.Value{}
	for i, c := range cols {
		v := row[i]
		if eid, ok := v.EntityID(); ok {
			v = value.Int(eid) // entity references stored by identifier
		}
		props[c] = v
	}
	return m.createAlertNodeProps(tx, cr, now, props)
}

func (m *Manager) createAlertNodeProps(tx *graph.Tx, cr *compiledRule, now time.Time,
	props map[string]value.Value) error {
	props["rule"] = value.Str(cr.Name)
	props["hub"] = value.Str(cr.Hub)
	props["dateTime"] = value.DateTime(now)
	_, err := tx.CreateNode([]string{m.alertLabel(cr)}, props)
	return err
}

// ---- the background drain loop ----

// Start launches the background drain loop: a ticker (plus completion
// kicks) driving DrainOnce. A non-positive interval means
// DefaultDrainInterval. Returns an error if already running.
func (m *Manager) Start(interval time.Duration) error {
	if interval <= 0 {
		interval = DefaultDrainInterval
	}
	m.workerMu.Lock()
	defer m.workerMu.Unlock()
	if m.stop != nil {
		return errors.New("cep: drain loop already running")
	}
	m.wake = make(chan struct{}, 1)
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop(interval, m.wake, m.stop, m.done)
	return nil
}

// Stop halts the background drain loop, finishing any in-flight drain.
func (m *Manager) Stop() {
	m.workerMu.Lock()
	defer m.workerMu.Unlock()
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop, m.done, m.wake = nil, nil, nil
}

func (m *Manager) loop(interval time.Duration, wake, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-wake:
		case <-t.C:
		}
		if _, err := m.DrainOnce(); err != nil {
			m.logf("cep: drain: %v", err)
		}
	}
}

// kick nudges the background loop after a completion commit.
func (m *Manager) kick() {
	m.workerMu.Lock()
	wake := m.wake
	m.workerMu.Unlock()
	if wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}
