package fednet

import (
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
)

// RemoteAlertLabel is the label of replicated alert nodes. A receiver
// materializes each pushed alert as one such node through its reactive write
// path, so its rules watching RemoteAlert creation fire: one organization's
// alerts trigger another organization's reactions.
const RemoteAlertLabel = "RemoteAlert"

// Property keys of the idempotency key carried by every replicated alert:
// the participant the alert came from and its node id there. Together they
// identify one origin alert however many times it was delivered.
const (
	OriginProp   = "origin"
	OriginIDProp = "originId"
)

// ensureRemoteAlertIndex creates the (RemoteAlert, originId) property index
// the duplicate check of applyRemoteAlerts uses. It is idempotent; without it
// the check falls back to a label scan. Not safe to call while transactions
// are open on the store.
func ensureRemoteAlertIndex(kb *core.KnowledgeBase) error {
	err := kb.Store().CreateIndex(RemoteAlertLabel, OriginIDProp)
	if errors.Is(err, graph.ErrIndexExists) {
		return nil
	}
	return err
}

// applyRemoteAlerts materializes alerts from origin as RemoteAlert nodes in
// kb, skipping every alert whose (origin, originId) pair is already present
// — in the graph or earlier in the same batch — so redelivery never
// duplicates knowledge. The whole batch is one transaction through the
// reactive pipeline: rules watching RemoteAlert creation fire, and on any
// error nothing is applied.
func applyRemoteAlerts(kb *core.KnowledgeBase, origin string, alerts []core.Alert) (applied, duplicates int, err error) {
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
				OriginProp:                value.Str(origin),
				trigger.AlertRuleProp:     value.Str(a.Rule),
				trigger.AlertHubProp:      value.Str(a.Hub),
				trigger.AlertDateTimeProp: value.DateTime(a.DateTime),
				OriginIDProp:              value.Int(int64(a.ID)),
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

// RemoteAlerts lists the replicated alerts present in kb, sorted by origin
// alert id (which is also each one's ID).
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

// alertCursor is the read a peer's outbox advances by: the alerts of kb
// after a mark that the rule filter admits (empty = all rules), in id order,
// plus the highest alert id scanned — which can exceed the last fresh one,
// so filtered-out alerts are not rescanned forever.
func alertCursor(kb *core.KnowledgeBase, after graph.NodeID, rules map[string]bool) (fresh []core.Alert, scanned graph.NodeID, err error) {
	alerts, err := kb.AlertsAfter(after)
	if err != nil {
		return nil, after, err
	}
	scanned = after
	if len(alerts) > 0 {
		scanned = alerts[len(alerts)-1].ID
	}
	fresh = alerts[:0]
	for _, a := range alerts {
		if len(rules) == 0 || rules[a.Rule] {
			fresh = append(fresh, a)
		}
	}
	return fresh, scanned, nil
}
