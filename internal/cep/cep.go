// Package cep is the runtime of composite events — sequences, conjunctions,
// absence (NOT … WITHIN) and sliding count windows, in the spirit of the
// ECA-LP / Reaction RuleML composite-event algebra the paper's reaction
// rules descend from. The rules themselves are trigger.Rules with a
// composite event term, parsed, installed and exported by internal/trigger;
// the engine fires each step atom like any rule and hands passing
// activations to this package's StepSink.
//
// Partial-match state lives in durable, skip-labeled CEPPartial graph nodes
// created inside the triggering transaction, so it rides the WAL,
// snapshots, crash recovery and replication exactly as the
// async pipeline's PendingAlert nodes do. Completed or expired partials are
// resolved by a drain (Manager.DrainOnce) whose follow-up transaction
// deletes the partial node and materializes the composite alert atomically
// — exactly-once across crashes.
package cep

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trigger"
	"repro/internal/value"
)

// PartialLabel is the label of the durable partial-match bookkeeping
// nodes (core.Bookkeeping). Like PendingAlert, the label is hidden from rule
// matching, so automaton churn is invisible to user rules while still riding
// the WAL, snapshots, recovery and replication.
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
	// Logf receives background drain-loop errors; nil discards them.
	Logf func(format string, args ...any)
}

// Manager runs the composite rules of one knowledge base: it advances
// durable partial-match state from the engine's StepSink and drains
// completed or expired partials into alerts.
type Manager struct {
	kb   *core.KnowledgeBase
	opts Options
	m    cepMetrics

	partials *core.Bookkeeping
	driver   atomic.Pointer[core.Driver] // the background drain loop; nil unless started
}

// Enable attaches composite-event support to a knowledge base: it
// registers the CEPPartial skip label and lookup index, wires the
// rkm_cep_* metrics, installs the engine StepSink, and counts any partial
// matches recovered from a previous run. Call it after the knowledge base
// is opened and before the first write (the sink and skip label must not
// change under concurrent transactions); refused on replication followers,
// whose partial state arrives from the leader.
func Enable(kb *core.KnowledgeBase, opts Options) (*Manager, error) {
	if kb.Follower() {
		return nil, core.ErrFollower
	}
	eng := kb.Engine()
	if eng.StepSink != nil {
		return nil, ErrEnabled
	}
	m := &Manager{kb: kb, opts: opts, partials: kb.Bookkeeping(PartialLabel)}
	m.partials.Hide()
	if err := kb.CreateIndex(PartialLabel, propPKey); err != nil {
		return nil, fmt.Errorf("cep: create partial index: %w", err)
	}
	m.wireMetrics(kb.Metrics())
	m.m.recovered.Add(int64(m.Recovered()))
	eng.StepSink = m.step
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Recovered returns the number of partial matches found on the graph when
// the manager was enabled — state a previous process left behind.
func (m *Manager) Recovered() int { return m.partials.Recovered() }

// Depth returns the number of partial-match nodes currently on the graph
// (open and completed-but-undrained).
func (m *Manager) Depth() int { return m.partials.Depth() }

// Install installs a composite rule: kb.InstallRule, kept for callers that
// hold the manager.
func (m *Manager) Install(r trigger.Rule) error { return m.kb.InstallRule(r) }

// ---- the step sink: advancing partial matches in the writing tx ----

func partialKey(rule, key string) string { return rule + "\x00" + key }

// step is the engine StepSink: one passing step activation, inside the
// writing transaction. All state it touches is durable graph state, so a
// crash either keeps the whole triggering transaction (with the advance) or
// none of it.
func (m *Manager) step(tx *graph.Tx, item trigger.StepItem) error {
	cr := item.Rule
	m.onCommit(tx, func() { m.m.steps.Inc() })

	now := m.kb.Now()
	id, open := m.lookup(tx, cr.Name, item.Key)
	if open && m.boolProp(tx, id, propDone) {
		// Completed, awaiting drain: the key is occupied until the
		// follow-up transaction materializes the alert.
		return nil
	}
	switch cr.Op {
	case trigger.Sequence:
		return m.stepSequence(tx, cr, item, id, open, now)
	case trigger.All:
		return m.stepAll(tx, cr, item, id, open, now)
	default:
		return m.stepCount(tx, cr, item, id, open, now)
	}
}

func (m *Manager) stepSequence(tx *graph.Tx, cr *trigger.Compiled, item trigger.StepItem,
	id graph.NodeID, open bool, now time.Time) error {
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
			if err := m.remove(tx, id, m.m.expired); err != nil {
				return err
			}
			open = false
		case st.Negated && item.Step == final:
			if state == final {
				// The forbidden event occurred while armed: kill the match.
				return m.remove(tx, id, m.m.killed)
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
		id, err := m.openPartial(tx, cr, item, now, value.Int(1), "")
		if err != nil {
			return err
		}
		if !absence && final == 0 {
			return m.markDone(tx, cr, id, now) // degenerate 1-step sequence
		}
	}
	return nil
}

func (m *Manager) stepAll(tx *graph.Tx, cr *trigger.Compiled, item trigger.StepItem,
	id graph.NodeID, open bool, now time.Time) error {
	full := int64(1)<<len(cr.Steps) - 1
	bit := int64(1) << item.Step
	if open {
		deadline, _ := m.timeProp(tx, id, propDeadline)
		if !now.Before(deadline) {
			if err := m.remove(tx, id, m.m.expired); err != nil {
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
		id, err := m.openPartial(tx, cr, item, now, value.Int(bit), "")
		if err != nil {
			return err
		}
		if bit == full {
			return m.markDone(tx, cr, id, now) // degenerate 1-step AND
		}
	}
	return nil
}

func (m *Manager) stepCount(tx *graph.Tx, cr *trigger.Compiled, item trigger.StepItem,
	id graph.NodeID, open bool, now time.Time) error {
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
	id, err := m.openPartial(tx, cr, item, now, value.Int(1), encodeTimes(times))
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
	// Enable created the (CEPPartial, pkey) index before installing the sink.
	ids, _ := tx.NodesByProp(PartialLabel, propPKey, value.Str(partialKey(rule, key)))
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

func (m *Manager) openPartial(tx *graph.Tx, cr *trigger.Compiled, item trigger.StepItem,
	now time.Time, state value.Value, times string) (graph.NodeID, error) {
	enc, err := trigger.EncodeBinding(item.Binding)
	if err != nil {
		return 0, fmt.Errorf("cep: rule %s: %w", cr.Name, err)
	}
	props := map[string]value.Value{
		propRule:      value.Str(cr.Name),
		propKey:       value.Str(item.Key),
		propPKey:      value.Str(partialKey(cr.Name, item.Key)),
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
func (m *Manager) markDone(tx *graph.Tx, cr *trigger.Compiled, id graph.NodeID, at time.Time) error {
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
		m.driver.Load().Kick() // drain now, without waiting for the interval
	})
	return nil
}

// remove deletes a partial without completing it and, on commit, counts
// why: expired (window closed), killed (the negated event came) or orphaned
// (rule dropped).
func (m *Manager) remove(tx *graph.Tx, id graph.NodeID, why *metrics.Counter) error {
	m.onCommit(tx, why.Inc)
	return tx.DeleteNode(id, true)
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

// DrainOnce resolves every completed or expired partial match, oldest first, each in its own follow-up transaction that deletes
// the partial node and (for completions) materializes the composite alert
// atomically (core.Bookkeeping.FollowUp). It returns the number of partials
// resolved. Safe to call concurrently with writers and with the background
// loop; deterministic tests drive it directly with a manual clock.
func (m *Manager) DrainOnce() (int, error) {
	now := m.kb.Now()
	processed := 0
	var errs []error
	for _, id := range m.partials.Scan(func(tx *graph.Tx, id graph.NodeID) bool {
		return m.ready(tx, id, now)
	}) {
		resolved, err := m.partials.FollowUp(id, func(tx *graph.Tx) error { return m.resolve(tx, id) })
		if err != nil {
			errs = append(errs, fmt.Errorf("cep: resolve partial %d: %w", id, err))
		} else if resolved {
			processed++
		}
	}
	return processed, errors.Join(errs...)
}

// ready reports whether a partial is due for the drain: completed, past its
// window, or orphaned by a dropped rule.
func (m *Manager) ready(tx *graph.Tx, id graph.NodeID, now time.Time) bool {
	if m.boolProp(tx, id, propDone) || m.rule(tx, id) == nil {
		return true
	}
	deadline, ok := m.timeProp(tx, id, propDeadline)
	return ok && !now.Before(deadline)
}

// rule returns the installed composite rule a partial belongs to; nil when
// the rule was dropped.
func (m *Manager) rule(tx *graph.Tx, id graph.NodeID) *trigger.Compiled {
	return m.kb.Engine().CompositeRule(m.strProp(tx, id, propRule))
}

// resolve handles one ready partial inside its follow-up transaction. It
// deletes the partial unless it turns out to be still live (the clock moved,
// the state advanced, or a count window merely slid).
func (m *Manager) resolve(tx *graph.Tx, id graph.NodeID) error {
	now := m.kb.Now()
	cr := m.rule(tx, id)
	if cr == nil {
		return m.remove(tx, id, m.m.orphaned)
	}
	if m.boolProp(tx, id, propDone) {
		return m.complete(tx, cr, id)
	}
	deadline, _ := m.timeProp(tx, id, propDeadline)
	if now.Before(deadline) {
		return nil // no longer ready (clock moved, state advanced)
	}
	final := len(cr.Steps) - 1
	if cr.Op == trigger.Sequence && cr.Steps[final].Negated &&
		int(m.intProp(tx, id, propState)) == final {
		// Absence detection: the window closed with the match armed and
		// the forbidden event never came — that IS the composite event.
		if err := m.markDone(tx, cr, id, deadline); err != nil {
			return err
		}
		return m.complete(tx, cr, id)
	}
	if cr.Op == trigger.Count {
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
	return m.remove(tx, id, m.m.expired)
}

// summaryCols are the payload columns of a composite alert whose rule has no
// alert query: the match summary.
var summaryCols = []string{"key", "matches", "window", "startedAt", "completedAt"}

// complete deletes a done partial and materializes its composite alert
// through the engine's one materializer — inside the drain's follow-up
// transaction, the exactly-once point.
func (m *Manager) complete(tx *graph.Tx, cr *trigger.Compiled, id graph.NodeID) error {
	key, _ := tx.NodeProp(id, propKey)
	started, _ := m.timeProp(tx, id, propStartedAt)
	doneAt, _ := m.timeProp(tx, id, propDoneAt)
	matches := int64(0)
	switch cr.Op {
	case trigger.Count:
		matches = m.intProp(tx, id, propState)
	default:
		for _, st := range cr.Steps {
			if !st.Negated {
				matches++
			}
		}
	}
	bind := trigger.Binding{
		"RULE":      value.Str(cr.Name),
		"KEY":       key,
		"MATCHES":   value.Int(matches),
		"WINDOW":    value.Duration(cr.Window),
		"STARTEDAT": value.DateTime(started),
		"DONEAT":    value.DateTime(doneAt),
		"FIRST":     m.decodedBinding(tx, id, propFirst),
		"LAST":      m.decodedBinding(tx, id, propLast),
	}
	if err := tx.DeleteNode(id, true); err != nil {
		return err
	}

	now, eng := m.kb.Now(), m.kb.Engine()
	var (
		cols []string
		rows [][]value.Value
		err  error
	)
	if cr.Alert == "" {
		cols = summaryCols
		rows = [][]value.Value{{key, bind["MATCHES"], bind["WINDOW"], bind["STARTEDAT"], bind["DONEAT"]}}
	} else if cols, rows, err = eng.RunAlert(tx, cr, bind, now); err != nil {
		return err
	}
	alerts, err := eng.Materialize(tx, cr, bind, now, cols, rows)
	m.onCommit(tx, func() { m.m.alerts.Add(int64(len(alerts))) })
	return err
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

// ---- the background drain loop ----

// Start launches the background drain loop: a core.Driver running DrainOnce
// every interval and on every completion kick. A non-positive interval means
// DefaultDrainInterval. Returns an error if already running.
func (m *Manager) Start(interval time.Duration) error {
	if interval <= 0 {
		interval = DefaultDrainInterval
	}
	d := core.Drive(interval, func() {
		if _, err := m.DrainOnce(); err != nil {
			m.logf("cep: drain: %v", err)
		}
	})
	if !m.driver.CompareAndSwap(nil, d) {
		d.Stop()
		return errors.New("cep: drain loop already running")
	}
	return nil
}

// Stop halts the background drain loop, finishing any in-flight drain.
// No-op if it is not running.
func (m *Manager) Stop() { m.driver.Swap(nil).Stop() }
