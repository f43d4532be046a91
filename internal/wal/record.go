// Package wal implements the durability subsystem of the knowledge base: an
// append-only, segment-rotated write-ahead log of committed transactions,
// plus snapshot-based log compaction and crash recovery.
//
// Every committed read-write transaction becomes one Record — a sequence of
// logical operations in the same eight event kinds the trigger engine
// consumes (create/delete node, create/delete relationship, set/remove
// label, set/remove property). Records are canonical: the operations are
// derived from the transaction's final state at commit time, so applying a
// record to the pre-transaction store always reproduces the
// post-transaction store, regardless of the order in which the transaction
// interleaved its writes. Alert nodes produced by reactive rules are
// ordinary created nodes inside the record, which is why recovery replays
// the log with rule triggering suppressed: the rules' effects are already
// in the log.
//
// On disk, each record is length-prefixed and CRC32-C-checksummed; see
// segment.go for the framing and wal.go for the log itself.
package wal

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/value"
)

// Operation kinds — the eight event kinds of graph.TxData.
const (
	OpCreateNode  = "createNode"
	OpDeleteNode  = "deleteNode"
	OpCreateRel   = "createRel"
	OpDeleteRel   = "deleteRel"
	OpSetLabel    = "setLabel"
	OpRemoveLabel = "removeLabel"
	OpSetProp     = "setProp"
	OpRemoveProp  = "removeProp"
)

// Op is one logical operation within a transaction record. Node and Rel
// identify the target entity; property values use the tagged JSON encoding
// of value.ToJSON so typed values (datetime, duration, nested list/map)
// survive the round trip. For property operations, On distinguishes
// relationship targets ("rel") from the default node target.
type Op struct {
	Op     string   `json:"op"`
	Node   int64    `json:"node,omitempty"`
	Rel    int64    `json:"rel,omitempty"`
	On     string   `json:"on,omitempty"`
	Type   string   `json:"type,omitempty"`
	Start  int64    `json:"start,omitempty"`
	End    int64    `json:"end,omitempty"`
	Label  string   `json:"label,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Key    string   `json:"key,omitempty"`
	// Value deliberately has no omitempty: false and "" are valid stored
	// values and must not collapse into JSON null (= property removal).
	Value any            `json:"value"`
	Props map[string]any `json:"props,omitempty"`
}

// onRel marks a property operation as targeting a relationship.
const onRel = "rel"

// Record is one committed transaction. Seq is assigned by Log.AppendAsync and is
// strictly increasing across the life of a log directory. NextNode and
// NextRel capture the store's identifier-allocation counters at commit, so
// recovery reproduces identifier allocation exactly even when the
// transaction's highest-numbered entities were created and deleted within
// it (and therefore appear in no operation).
type Record struct {
	Seq      uint64 `json:"seq"`
	Ops      []Op   `json:"ops"`
	NextNode int64  `json:"nextNode"`
	NextRel  int64  `json:"nextRel"`
}

func propsJSON(props map[string]value.Value) map[string]any {
	if len(props) == 0 {
		return nil
	}
	out := make(map[string]any, len(props))
	for k, v := range props {
		out[k] = value.ToJSON(v)
	}
	return out
}

func propsFromJSON(raw map[string]any) (map[string]value.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]value.Value, len(raw))
	for k, e := range raw {
		v, err := value.FromJSON(e)
		if err != nil {
			return nil, fmt.Errorf("wal: prop %s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// RecordFromTx derives the canonical record of a committing transaction.
// It must be called while the transaction is still live (the commit hook is
// the intended call site) because it reads the final state of every changed
// entity from the transaction. It returns nil if the transaction made no
// effective changes. The transaction's change data is compacted in place
// (a semantics-preserving normalization).
func RecordFromTx(tx *graph.Tx) *Record {
	data := tx.Data()
	data.Compact()
	if data.Empty() {
		return nil
	}
	rec := &Record{}
	nextNode, nextRel := tx.Counters()
	rec.NextNode, rec.NextRel = int64(nextNode), int64(nextRel)

	// Created entities are logged as full snapshots of their state at
	// commit, so later label/property changes to them need no ops of their
	// own.
	createdNodes := make(map[graph.NodeID]bool, len(data.CreatedNodes))
	for _, id := range data.CreatedNodes {
		createdNodes[id] = true
	}
	createdRels := make(map[graph.RelID]bool, len(data.CreatedRels))
	for _, id := range data.CreatedRels {
		createdRels[id] = true
	}

	for _, id := range data.CreatedNodes {
		n, ok := tx.Node(id)
		if !ok {
			continue // created and deleted; Compact should have removed it
		}
		rec.Ops = append(rec.Ops, Op{
			Op: OpCreateNode, Node: int64(id),
			Labels: n.Labels, Props: propsJSON(n.Props),
		})
	}
	for _, id := range data.CreatedRels {
		r, ok := tx.Rel(id)
		if !ok {
			continue
		}
		rec.Ops = append(rec.Ops, Op{
			Op: OpCreateRel, Rel: int64(id), Type: r.Type,
			Start: int64(r.Start), End: int64(r.End), Props: propsJSON(r.Props),
		})
	}
	// Deletions of pre-existing entities: relationships first so that node
	// deletion replays onto detached nodes.
	for _, r := range data.DeletedRels {
		rec.Ops = append(rec.Ops, Op{Op: OpDeleteRel, Rel: int64(r.ID)})
	}
	for _, n := range data.DeletedNodes {
		rec.Ops = append(rec.Ops, Op{Op: OpDeleteNode, Node: int64(n.ID)})
	}

	// Label and property changes on surviving pre-existing entities,
	// canonicalized to the entity's final state at commit. TxData splits
	// assignments and removals into separate lists and thereby loses their
	// relative order; reading the final state restores a replayable record.
	type labelKey struct {
		node  graph.NodeID
		label string
	}
	seenLabels := make(map[labelKey]bool)
	addLabel := func(c graph.LabelChange) {
		if createdNodes[c.Node] || !tx.NodeExists(c.Node) {
			return
		}
		k := labelKey{c.Node, c.Label}
		if seenLabels[k] {
			return
		}
		seenLabels[k] = true
		op := Op{Node: int64(c.Node), Label: c.Label}
		if tx.NodeHasLabel(c.Node, c.Label) {
			op.Op = OpSetLabel
		} else {
			op.Op = OpRemoveLabel
		}
		rec.Ops = append(rec.Ops, op)
	}
	for _, c := range data.AssignedLabels {
		addLabel(c)
	}
	for _, c := range data.RemovedLabels {
		addLabel(c)
	}

	type propKey struct {
		kind graph.EntityKind
		node graph.NodeID
		rel  graph.RelID
		key  string
	}
	seenProps := make(map[propKey]bool)
	addProp := func(c graph.PropChange) {
		k := propKey{c.Kind, 0, 0, c.Key}
		if c.Kind == graph.NodeEntity {
			if createdNodes[c.Node] || !tx.NodeExists(c.Node) {
				return
			}
			k.node = c.Node
		} else {
			if createdRels[c.Rel] {
				return
			}
			if _, _, _, ok := tx.RelEndpoints(c.Rel); !ok {
				return
			}
			k.rel = c.Rel
		}
		if seenProps[k] {
			return
		}
		seenProps[k] = true
		var op Op
		if c.Kind == graph.NodeEntity {
			op.Node = int64(c.Node)
			if v, has := tx.NodeProp(c.Node, c.Key); has {
				op.Op, op.Key, op.Value = OpSetProp, c.Key, value.ToJSON(v)
			} else {
				op.Op, op.Key = OpRemoveProp, c.Key
			}
		} else {
			op.Rel, op.On = int64(c.Rel), onRel
			if v, has := tx.RelProp(c.Rel, c.Key); has {
				op.Op, op.Key, op.Value = OpSetProp, c.Key, value.ToJSON(v)
			} else {
				op.Op, op.Key = OpRemoveProp, c.Key
			}
		}
		rec.Ops = append(rec.Ops, op)
	}
	for _, c := range data.AssignedProps {
		addProp(c)
	}
	for _, c := range data.RemovedProps {
		addProp(c)
	}

	if len(rec.Ops) == 0 {
		return nil
	}
	return rec
}

// ApplyRecord replays one record into an open read-write transaction.
// Records are canonical, so replaying a record onto the state that preceded
// it reproduces the committed post-state exactly.
func ApplyRecord(tx *graph.Tx, rec *Record) error {
	for i, op := range rec.Ops {
		var err error
		switch op.Op {
		case OpCreateNode:
			var props map[string]value.Value
			if props, err = propsFromJSON(op.Props); err == nil {
				err = tx.CreateNodeWithID(graph.NodeID(op.Node), op.Labels, props)
			}
		case OpCreateRel:
			var props map[string]value.Value
			if props, err = propsFromJSON(op.Props); err == nil {
				err = tx.CreateRelWithID(graph.RelID(op.Rel),
					graph.NodeID(op.Start), graph.NodeID(op.End), op.Type, props)
			}
		case OpDeleteNode:
			err = tx.DeleteNode(graph.NodeID(op.Node), true)
		case OpDeleteRel:
			err = tx.DeleteRel(graph.RelID(op.Rel))
		case OpSetLabel:
			err = tx.SetLabel(graph.NodeID(op.Node), op.Label)
		case OpRemoveLabel:
			err = tx.RemoveLabel(graph.NodeID(op.Node), op.Label)
		case OpSetProp:
			var v value.Value
			if v, err = value.FromJSON(op.Value); err == nil {
				if op.On == onRel {
					err = tx.SetRelProp(graph.RelID(op.Rel), op.Key, v)
				} else {
					err = tx.SetNodeProp(graph.NodeID(op.Node), op.Key, v)
				}
			}
		case OpRemoveProp:
			if op.On == onRel {
				err = tx.RemoveRelProp(graph.RelID(op.Rel), op.Key)
			} else {
				err = tx.RemoveNodeProp(graph.NodeID(op.Node), op.Key)
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return fmt.Errorf("wal: apply record %d op %d (%s): %w", rec.Seq, i, op.Op, err)
		}
	}
	return tx.EnsureCounters(graph.NodeID(rec.NextNode), graph.RelID(rec.NextRel))
}
