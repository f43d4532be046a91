// Package federation prototypes the distributed deployment the paper's
// discussion (§V) projects: each knowledge hub (or group of hubs) runs its
// own KnowledgeBase on its own infrastructure, and selected knowledge —
// here, alert nodes, the paper's primary cross-hub currency — propagates
// between participants through explicit subscriptions.
//
// Replicated alerts materialize in the target knowledge base as nodes
// labeled RemoteAlert carrying the origin participant, the original rule,
// hub, timestamp and payload. Because replication runs through the normal
// reactive write path, rules in the target that watch RemoteAlert creation
// fire — one organization's alerts can trigger another organization's
// reactions, the paper's "reactive interaction of several knowledge hubs".
//
// Federation in this package is in-process: every participant lives in one
// address space and Sync moves alerts in a lock-step pass. The cross-process
// variant — the same replication semantics over HTTP with a durable outbox,
// retries and at-least-once delivery — is internal/fednet, which builds on
// the apply-side primitives here (ApplyRemoteAlerts, HighWaterFor) so both
// transports share one idempotency contract: a replicated alert is keyed by
// (origin, originId) and is never materialized twice.
package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
)

// RemoteAlertLabel is the label of replicated alert nodes.
const RemoteAlertLabel = "RemoteAlert"

// Property keys of the idempotency key carried by every replicated alert:
// the participant the alert came from and its node id there. Together they
// identify one origin alert, whichever transport delivered it and however
// many times it was delivered.
const (
	OriginProp   = "origin"
	OriginIDProp = "originId"
)

// Errors reported by the federation.
var (
	ErrNodeExists   = errors.New("federation: participant already joined")
	ErrNodeNotFound = errors.New("federation: participant not found")
	ErrSelfLink     = errors.New("federation: cannot subscribe a participant to itself")
)

// Participant is one organization's knowledge base inside the federation.
type Participant struct {
	Name string
	KB   *core.KnowledgeBase
}

// subscription links a source participant's alerts to a target.
type subscription struct {
	from, to string
	rules    map[string]bool // empty = all rules
	// highWater is the largest source alert node id already replicated.
	// Guarded by the owning Federation's mu: Sync snapshots it under the
	// lock before scanning and advances it under the lock afterwards, so
	// concurrent Sync calls never tear it.
	highWater graph.NodeID
}

// Federation coordinates participants and alert propagation. All methods
// are safe for concurrent use.
type Federation struct {
	mu   sync.Mutex
	prts map[string]*Participant
	subs []*subscription
}

// New returns an empty federation.
func New() *Federation {
	return &Federation{prts: make(map[string]*Participant)}
}

// Join adds a participant.
func (f *Federation) Join(name string, kb *core.KnowledgeBase) (*Participant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.prts[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, name)
	}
	p := &Participant{Name: name, KB: kb}
	f.prts[name] = p
	return p, nil
}

// Participants lists the joined participants sorted by name.
func (f *Federation) Participants() []*Participant {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Participant, 0, len(f.prts))
	for _, p := range f.prts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Subscribe propagates alerts produced in from to the knowledge base of to.
// With rule names given, only those rules' alerts replicate.
//
// The subscription's high-water mark is recovered from the target: alerts
// from this origin that already materialized there (in an earlier process
// life, or through an earlier Federation value over the same knowledge
// bases) are not replicated again.
func (f *Federation) Subscribe(from, to string, rules ...string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from == to {
		return ErrSelfLink
	}
	if _, ok := f.prts[from]; !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, from)
	}
	dst, ok := f.prts[to]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, to)
	}
	mark, err := HighWaterFor(dst.KB, from)
	if err != nil {
		return fmt.Errorf("federation: recover mark %s→%s: %w", from, to, err)
	}
	sub := &subscription{from: from, to: to, rules: make(map[string]bool), highWater: mark}
	for _, r := range rules {
		sub.rules[r] = true
	}
	f.subs = append(f.subs, sub)
	return nil
}

// Sync propagates all new alerts along every subscription and returns the
// number of alerts replicated. Replication is idempotent twice over: a
// high-water mark per subscription skips alerts already scanned, and the
// apply side (ApplyRemoteAlerts) refuses duplicates by (origin, originId).
// Replication runs through the targets' reactive pipelines, so RemoteAlert
// rules fire.
func (f *Federation) Sync() (int, error) {
	f.mu.Lock()
	subs := append([]*subscription(nil), f.subs...)
	prts := make(map[string]*Participant, len(f.prts))
	for k, v := range f.prts {
		prts[k] = v
	}
	f.mu.Unlock()

	total := 0
	for _, sub := range subs {
		n, err := f.syncOne(prts, sub)
		total += n
		if err != nil {
			return total, fmt.Errorf("federation: %s→%s: %w", sub.from, sub.to, err)
		}
	}
	return total, nil
}

func (f *Federation) syncOne(prts map[string]*Participant, sub *subscription) (int, error) {
	src := prts[sub.from]
	dst := prts[sub.to]
	f.mu.Lock()
	mark := sub.highWater
	f.mu.Unlock()
	fresh, maxID, err := src.KB.AlertCursor(mark, sub.rules)
	if err != nil {
		return 0, err
	}
	applied, _, err := ApplyRemoteAlerts(dst.KB, src.Name, fresh)
	if err != nil {
		return 0, err
	}
	f.advance(sub, maxID)
	return applied, nil
}

// advance moves a subscription's high-water mark forward under the lock.
func (f *Federation) advance(sub *subscription, id graph.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id > sub.highWater {
		sub.highWater = id
	}
}

// EnsureRemoteAlertIndex creates the (RemoteAlert, originId) property index
// the duplicate check of ApplyRemoteAlerts and the mark recovery of
// HighWaterFor use. It is idempotent; without it both fall back to a label
// scan. Not safe to call while transactions are open on the store.
func EnsureRemoteAlertIndex(kb *core.KnowledgeBase) error {
	err := kb.Store().CreateIndex(RemoteAlertLabel, OriginIDProp)
	if errors.Is(err, graph.ErrIndexExists) {
		return nil
	}
	return err
}

// ApplyRemoteAlerts materializes alerts from origin as RemoteAlert nodes in
// kb, skipping every alert whose (origin, originId) pair is already present
// — in the graph or earlier in the same batch — so redelivery under
// at-least-once transports never duplicates knowledge. The whole batch is
// one transaction through the reactive pipeline: target rules watching
// RemoteAlert creation fire, and on any error nothing is applied.
func ApplyRemoteAlerts(kb *core.KnowledgeBase, origin string, alerts []core.Alert) (applied, duplicates int, err error) {
	if len(alerts) == 0 {
		return 0, 0, nil
	}
	_, err = kb.WriteTx(func(tx *graph.Tx) error {
		for _, a := range alerts {
			if remoteAlertExists(tx, origin, a.ID) {
				duplicates++
				continue
			}
			props := map[string]value.Value{
				OriginProp:   value.Str(origin),
				"rule":       value.Str(a.Rule),
				"hub":        value.Str(a.Hub),
				"dateTime":   value.DateTime(a.DateTime),
				OriginIDProp: value.Int(int64(a.ID)),
			}
			for k, v := range a.Props {
				if _, taken := props[k]; !taken {
					props[k] = v
				}
			}
			if _, err := tx.CreateNode([]string{RemoteAlertLabel}, props); err != nil {
				return err
			}
			applied++
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return applied, duplicates, nil
}

// remoteAlertExists reports whether a RemoteAlert with the given idempotency
// key is present, preferring the (RemoteAlert, originId) index. Nodes
// created earlier in the same open transaction are visible.
func remoteAlertExists(tx *graph.Tx, origin string, originID graph.NodeID) bool {
	ids, indexed := tx.NodesByProp(RemoteAlertLabel, OriginIDProp, value.Int(int64(originID)))
	if !indexed {
		ids = tx.NodesByLabel(RemoteAlertLabel)
	}
	for _, id := range ids {
		n, ok := tx.Node(id)
		if !ok {
			continue
		}
		if got, _ := n.Props[OriginProp].AsString(); got != origin {
			continue
		}
		if oid, _ := n.Props[OriginIDProp].AsInt(); graph.NodeID(oid) == originID {
			return true
		}
	}
	return false
}

// HighWaterFor returns the largest originId among kb's RemoteAlert nodes
// from the given origin — the replication mark a rebuilt subscription (or a
// restarted sender without its own outbox state) resumes from.
func HighWaterFor(kb *core.KnowledgeBase, origin string) (graph.NodeID, error) {
	alerts, err := RemoteAlerts(kb)
	var mark graph.NodeID
	for _, a := range alerts {
		if got, _ := a.Props[OriginProp].AsString(); got == origin && a.ID > mark {
			mark = a.ID
		}
	}
	return mark, err
}

// RemoteAlerts lists the replicated alerts present in a participant's
// knowledge base, sorted by origin alert id (which is also each one's ID).
func RemoteAlerts(kb *core.KnowledgeBase) ([]core.Alert, error) {
	var out []core.Alert
	err := kb.Store().View(func(tx *graph.Tx) error {
		for _, id := range tx.NodesByLabel(RemoteAlertLabel) {
			if n, ok := tx.Node(id); ok {
				a := core.DecodeAlert(n)
				oid, _ := a.Props[OriginIDProp].AsInt()
				a.ID = graph.NodeID(oid)
				out = append(out, a)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
