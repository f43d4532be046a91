package fednet

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
)

// OutboxLabel is the label of the per-peer replication-state nodes a fednet
// node keeps in its own knowledge graph. Storing the acknowledged mark as a
// graph node means the outbox rides the existing durability machinery for
// free: mark updates commit through the store, the write-ahead-log hook
// appends them, checkpoints snapshot them, and recovery replays them — so a
// crashed sender resumes exactly where the last acknowledged batch left it.
//
// The pending half of the outbox needs no storage of its own: pending(peer)
// is, by definition, every alert node with id greater than the acked mark
// that the subscription's rule filter admits, and the alert log is already
// durable graph content.
const OutboxLabel = "FedOutbox"

// Outbox node property keys.
const (
	outboxPeerProp  = "peer"
	outboxAckedProp = "ackedId"
)

// loadOrCreateOutbox returns the outbox node for peer, creating it with an
// empty mark on first subscription. The outbox is engine bookkeeping kept as
// graph nodes (core.Bookkeeping): replication state is not knowledge, so its
// writes are rule-free updates — but still commit through the write-ahead
// log. Callers serialize per node (Subscribe holds n.mu), which keeps the
// find and the create from interleaving.
func loadOrCreateOutbox(kb *core.KnowledgeBase, peer string) (node graph.NodeID, acked graph.NodeID, err error) {
	if box, ok := outboxMarks(kb)[peer]; ok {
		return box.node, box.acked, nil
	}
	err = kb.Bookkeeping(OutboxLabel).Update(func(tx *graph.Tx) error {
		var err error
		node, err = tx.CreateNode([]string{OutboxLabel}, map[string]value.Value{
			outboxPeerProp:  value.Str(peer),
			outboxAckedProp: value.Int(0),
		})
		return err
	})
	return node, 0, err
}

type outboxMark struct{ node, acked graph.NodeID }

// outboxMarks reads every persisted outbox node, keyed by peer.
func outboxMarks(kb *core.KnowledgeBase) map[string]outboxMark {
	out := make(map[string]outboxMark)
	kb.Bookkeeping(OutboxLabel).Scan(func(tx *graph.Tx, id graph.NodeID) bool {
		peer, _ := tx.NodeProp(id, outboxPeerProp)
		mark, _ := tx.NodeProp(id, outboxAckedProp)
		name, _ := peer.AsString()
		acked, _ := mark.AsInt()
		out[name] = outboxMark{node: id, acked: graph.NodeID(acked)}
		return false
	})
	return out
}
