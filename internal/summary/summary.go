// Package summary implements the paper's Essential Summary (§III-D): an
// auxiliary graph structure that clusters Alert nodes by period of
// observation, giving reactive rules access to historical states without
// transactional OLD/NEW transition variables.
//
// Each period is represented by a Summary node carrying a date property;
// summaries are chained oldest→newest by next relationships, the newest
// also carries the Current label, and alert nodes attach to the summary of
// their period via has relationships (Fig. 4 and Fig. 5).
//
// # Lifecycle
//
// The structure is created lazily: the first alert (or the first
// RolloverIfDue call) creates the initial Summary node via EnsureCurrent,
// dated at that moment. From then on RolloverIfDue — run by the knowledge
// base's Tick at a fraction of the period, mirroring Fig. 8's hourly check
// for a 24-hour period — closes the current period once it has elapsed:
// Rollover creates a new Summary node, links it with a next relationship
// and moves the Current label. Note the consequence for tests and
// simulations: the first check on an empty structure anchors the chain
// rather than closing a period, so a rollover is observed only at the second
// period boundary.
//
// The vocabulary is fixed (SummaryLabel, CurrentLabel, NextRelType,
// HasRelType, DateProp), as R4′ and the schema of Fig. 4 name it. A Manager
// holds only the period length; all state lives in the graph, so it is safe
// to share across goroutines as long as the calls run inside graph
// transactions, which serialize writes. Window queries (Window, Chain,
// Alerts) give rules and ad-hoc analysis access to the per-period alert
// history; rollover counts and durations are exported as rkm_summary_*
// metrics (see OBSERVABILITY.md).
package summary

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// The Essential Summary vocabulary.
const (
	SummaryLabel = "Summary"
	CurrentLabel = "Current"
	NextRelType  = "next"
	HasRelType   = "has"
	DateProp     = "date"
)

var (
	nextTypes = []string{NextRelType}
	hasTypes  = []string{HasRelType}
)

// ErrNoCurrent is returned when the Essential Summary has not been
// initialized yet.
var ErrNoCurrent = errors.New("summary: no current summary node")

// Manager maintains the Essential Summary structure inside graph
// transactions. The zero value is not usable; construct with New.
type Manager struct {
	// Period is the length of one observation period (e.g. 24h).
	Period time.Duration
}

// New returns a manager for the given period.
func New(period time.Duration) *Manager { return &Manager{Period: period} }

// Current returns the Current summary node, if the structure exists.
func (m *Manager) Current(tx *graph.Tx) (graph.NodeID, bool) {
	ids := tx.NodesByLabel(CurrentLabel)
	for _, id := range ids {
		if tx.NodeHasLabel(id, SummaryLabel) {
			return id, true
		}
	}
	return 0, false
}

// EnsureCurrent returns the Current summary node, creating the first
// summary of the chain (dated now) if none exists.
func (m *Manager) EnsureCurrent(tx *graph.Tx, now time.Time) (graph.NodeID, error) {
	if id, ok := m.Current(tx); ok {
		return id, nil
	}
	id, err := tx.CreateNode([]string{SummaryLabel, CurrentLabel},
		map[string]value.Value{DateProp: value.DateTime(now)})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Date returns the date property of a summary node.
func (m *Manager) Date(tx *graph.Tx, id graph.NodeID) (time.Time, bool) {
	v, ok := tx.NodeProp(id, DateProp)
	if !ok {
		return time.Time{}, false
	}
	return v.AsDateTime()
}

// RolloverIfDue implements the periodic check of Fig. 8: when at least one
// Period has elapsed since the Current summary's date, a new summary node
// is created, chained after the previous one, and the Current label moves.
// It returns whether a rollover happened and the identifier of the (new or
// unchanged) current node.
func (m *Manager) RolloverIfDue(tx *graph.Tx, now time.Time) (bool, graph.NodeID, error) {
	cur, err := m.EnsureCurrent(tx, now)
	if err != nil {
		return false, 0, err
	}
	date, ok := m.Date(tx, cur)
	if !ok {
		return false, 0, fmt.Errorf("summary: current node %d lacks %s", cur, DateProp)
	}
	if now.Sub(date) < m.Period {
		return false, cur, nil
	}
	newCur, err := m.Rollover(tx, now)
	if err != nil {
		return false, 0, err
	}
	return true, newCur, nil
}

// Rollover unconditionally closes the current period: it creates a new
// summary node dated now, links (previous)-[:next]->(new), moves the
// Current label, and returns the new current node.
func (m *Manager) Rollover(tx *graph.Tx, now time.Time) (graph.NodeID, error) {
	prev, err := m.EnsureCurrent(tx, now)
	if err != nil {
		return 0, err
	}
	newCur, err := tx.CreateNode([]string{SummaryLabel, CurrentLabel},
		map[string]value.Value{DateProp: value.DateTime(now)})
	if err != nil {
		return 0, err
	}
	if _, err := tx.CreateRel(prev, newCur, NextRelType, nil); err != nil {
		return 0, err
	}
	if err := tx.RemoveLabel(prev, CurrentLabel); err != nil {
		return 0, err
	}
	return newCur, nil
}

// AttachAlert links an alert node to the current summary with a has
// relationship, creating the first summary if the structure is empty. This
// is the hook the rule engine calls for every produced alert node.
func (m *Manager) AttachAlert(tx *graph.Tx, alert graph.NodeID, now time.Time) error {
	cur, err := m.EnsureCurrent(tx, now)
	if err != nil {
		return err
	}
	_, err = tx.CreateRel(cur, alert, HasRelType, nil)
	return err
}

// Previous walks k steps back from the Current node along incoming next
// relationships (k=1 is "yesterday's" summary).
func (m *Manager) Previous(tx *graph.Tx, k int) (graph.NodeID, bool) {
	cur, ok := m.Current(tx)
	for i := 0; i < k && ok; i++ {
		cur, ok = stepBack(tx, cur)
	}
	return cur, ok
}

// stepBack steps from a summary node to the one before it, along its incoming
// next relationship.
func stepBack(tx *graph.Tx, id graph.NodeID) (graph.NodeID, bool) {
	rels := tx.RelsOf(id, graph.Incoming, nextTypes)
	if len(rels) == 0 {
		return 0, false
	}
	return rels[0].Start, true
}

// Chain returns the summary chain from oldest to current.
func (m *Manager) Chain(tx *graph.Tx) []graph.NodeID {
	var out []graph.NodeID
	for cur, ok := m.Current(tx); ok; cur, ok = stepBack(tx, cur) {
		out = append(out, cur)
	}
	slices.Reverse(out)
	return out
}

// Alerts returns the alert nodes attached to a summary node, sorted by
// identifier for determinism.
func (m *Manager) Alerts(tx *graph.Tx, summaryNode graph.NodeID) []graph.NodeID {
	rels := tx.RelsOf(summaryNode, graph.Outgoing, hasTypes)
	out := make([]graph.NodeID, 0, len(rels))
	for _, r := range rels {
		out = append(out, r.End)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WindowFilter selects alerts inside Window by property equality; zero
// values mean "any".
type WindowFilter struct {
	Rule string // match the alert's rule property
	Prop string // property to extract
	// Extra equality constraints on alert properties.
	Where map[string]value.Value
}

// Window reads one property from the alerts of the last k periods
// (including the current one), oldest first; periods without a matching
// alert contribute a NULL. This supports the moving-average style analyses
// §III-D describes. It walks k steps back from Current, so its cost does not
// grow with the length of the chain.
func (m *Manager) Window(tx *graph.Tx, k int, f WindowFilter) []value.Value {
	var out []value.Value
	for sid, ok := m.Current(tx); ok && len(out) < k; sid, ok = stepBack(tx, sid) {
		v := value.Null
		for _, aid := range m.Alerts(tx, sid) {
			if f.Rule != "" {
				rv, ok := tx.NodeProp(aid, "rule")
				if !ok {
					continue
				}
				if s, _ := rv.AsString(); s != f.Rule {
					continue
				}
			}
			match := true
			for key, want := range f.Where {
				got, ok := tx.NodeProp(aid, key)
				if !ok {
					match = false
					break
				}
				if eq, known := value.Equal(got, want); !known || !eq {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if pv, ok := tx.NodeProp(aid, f.Prop); ok {
				v = pv
				break
			}
		}
		out = append(out, v)
	}
	slices.Reverse(out)
	return out
}

// MovingAverage computes the mean of the numeric window values, ignoring
// NULLs; ok is false when no period contributed a number.
func (m *Manager) MovingAverage(tx *graph.Tx, k int, f WindowFilter) (float64, bool) {
	var sum float64
	var n int
	for _, v := range m.Window(tx, k, f) {
		if f64, isNum := v.NumberAsFloat(); isNum {
			sum += f64
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
