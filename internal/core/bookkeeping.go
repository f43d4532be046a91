package core

// Engine bookkeeping kept as graph nodes: the async pipeline's queue
// (PendingAlert), the composite automata's partial matches (CEPPartial) and
// the federation outbox (FedOutbox) store their own state as nodes under a
// label of their own, so it rides the WAL, snapshots, recovery and
// replication like any knowledge. This file is the one implementation of the
// idiom DESIGN.md §11 states: hidden label, entries created inside the
// causing transaction, id-order scan, delete+materialize follow-up,
// rule-free update/discard, background driver.

import (
	"sync"
	"time"

	"repro/internal/graph"
)

// Bookkeeping is the handle on the nodes one engine component keeps under
// its own label.
type Bookkeeping struct {
	kb        *KnowledgeBase
	label     string
	recovered int
}

// Bookkeeping returns the handle for label, noting how many entries are on
// the graph now — for a durable knowledge base just opened, what a previous
// process left behind.
func (kb *KnowledgeBase) Bookkeeping(label string) *Bookkeeping {
	b := &Bookkeeping{kb: kb, label: label}
	b.recovered = b.Depth()
	return b
}

// Hide makes create/delete/update events on the label invisible to rule
// matching; the changes still reach commit validators and the WAL. Call it
// before the first write: the engine reads its skip set without a lock.
func (b *Bookkeeping) Hide() { b.kb.engine.SkipLabels[b.label] = true }

// Depth returns the number of entries.
func (b *Bookkeeping) Depth() int { return b.kb.store.LabelCount(b.label) }

// Recovered returns the Depth found when the handle was made.
func (b *Bookkeeping) Recovered() int { return b.recovered }

// Scan returns the committed entries take accepts, in node-id order; take
// runs against one pinned snapshot.
func (b *Bookkeeping) Scan(take func(tx *graph.Tx, id graph.NodeID) bool) []graph.NodeID {
	var out []graph.NodeID
	_ = b.kb.store.View(func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel(b.label) {
			if take(tx, id) {
				out = append(out, id)
			}
		}
		return nil
	})
	return out
}

// FollowUp runs fn, if the entry still exists, in one write transaction:
// through the rule engine like any write (so rules react
// to what fn materializes), and never throttled by async backpressure — the
// follow-ups are what drains the queues. It reports whether this call
// consumed the entry, i.e. fn deleted it and the transaction committed;
// false with a nil error means another follow-up got there first or fn left
// the entry in place.
func (b *Bookkeeping) FollowUp(id graph.NodeID, fn func(tx *graph.Tx) error) (bool, error) {
	consumed := false
	_, err := b.kb.write(func(tx *graph.Tx) error {
		if !tx.NodeExists(id) {
			return nil
		}
		if err := fn(tx); err != nil {
			return err
		}
		consumed = !tx.NodeExists(id)
		return nil
	}, false)
	return consumed && err == nil, err
}

// Update runs fn in a write transaction that bypasses the rule engine:
// bookkeeping is not knowledge, so no rule fires on it.
func (b *Bookkeeping) Update(fn func(tx *graph.Tx) error) error {
	return b.kb.store.Update(fn)
}

// Discard drops an entry that can never be resolved, without firing rules.
func (b *Bookkeeping) Discard(id graph.NodeID) error {
	return b.Update(func(tx *graph.Tx) error {
		if !tx.NodeExists(id) {
			return nil
		}
		return tx.DeleteNode(id, true)
	})
}

// Driver runs a pass function in the background: once per Kick (kicks
// arriving during a pass coalesce into one more pass) and, with a positive
// interval, once per interval.
type Driver struct {
	wake, stop, done chan struct{}
	once             sync.Once
}

// Drive starts a Driver around pass.
func Drive(interval time.Duration, pass func()) *Driver {
	d := &Driver{wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		var tick <-chan time.Time
		if interval > 0 {
			t := time.NewTicker(interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-d.stop:
				return
			case <-d.wake:
			case <-tick:
			}
			pass()
		}
	}()
	return d
}

// Kick asks for a pass without waiting for the interval. No-op on nil.
func (d *Driver) Kick() {
	if d == nil {
		return
	}
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Stop ends the driver and waits for an in-flight pass to finish; further
// calls, and calls on nil, are no-ops.
func (d *Driver) Stop() {
	if d == nil {
		return
	}
	d.once.Do(func() { close(d.stop) })
	<-d.done
}
