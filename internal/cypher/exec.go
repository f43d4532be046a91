package cypher

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// UpdateStats counts the write effects of a statement execution.
type UpdateStats struct {
	NodesCreated  int
	NodesDeleted  int
	RelsCreated   int
	RelsDeleted   int
	PropsSet      int
	LabelsAdded   int
	LabelsRemoved int
}

// Add accumulates other into s.
func (s *UpdateStats) Add(other UpdateStats) {
	s.NodesCreated += other.NodesCreated
	s.NodesDeleted += other.NodesDeleted
	s.RelsCreated += other.RelsCreated
	s.RelsDeleted += other.RelsDeleted
	s.PropsSet += other.PropsSet
	s.LabelsAdded += other.LabelsAdded
	s.LabelsRemoved += other.LabelsRemoved
}

// Result is the outcome of executing a statement.
type Result struct {
	Columns []string
	Rows    [][]value.Value
	Stats   UpdateStats
}

// Value returns the single value of a single-row single-column result.
func (r *Result) Value() (value.Value, bool) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return value.Null, false
	}
	return r.Rows[0][0], true
}

// Options configures statement execution.
type Options struct {
	// Params supplies $name parameters.
	Params map[string]value.Value
	// Bindings pre-binds variables visible to the first clause; reactive
	// rules use this for the NEW and OLD transition variables.
	Bindings map[string]value.Value
	// Now supplies the clock for datetime()/timestamp(); nil means
	// time.Now. Deterministic tests and the summary machinery set it.
	Now func() time.Time
}

// executor carries the per-execution runtime state of a compiled plan.
type executor struct {
	ctx    *evalCtx
	stats  UpdateStats
	result *Result
}

// Run parses and executes a query through its compiled plan.
func Run(tx *graph.Tx, query string, opts *Options) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return stmt.Prepared().Execute(tx, opts)
}

// ---- compiled-op runtime helpers ----

// createPattern creates the pattern's nodes and relationships for one row,
// reusing already bound variables, and returns the row with fresh bindings.
func (ex *executor) createPattern(r row, cp *compiledPattern) (row, error) {
	w := ex.ctx.tx
	ids := make([]graph.NodeID, len(cp.part.Nodes))
	for i, np := range cp.part.Nodes {
		slot := cp.nodeSlots[i]
		if slot >= 0 && !r[slot].IsNull() {
			// Reuse an already bound node; labels/props in the pattern are
			// not allowed on bound variables in CREATE.
			if len(np.Labels) > 0 || len(np.Props) > 0 {
				return r, errAt(ex.ctx.query, np.pos,
					"variable `%s` already bound; cannot redeclare with labels or properties", np.Var)
			}
			id, ok := r[slot].EntityID()
			if !ok || r[slot].Kind() != value.KindNode {
				return r, errAt(ex.ctx.query, np.pos, "variable `%s` is not a node", np.Var)
			}
			ids[i] = graph.NodeID(id)
			continue
		}
		props, err := cp.nodeProps[i](ex.ctx, r)
		if err != nil {
			return r, err
		}
		id, err := w.CreateNode(np.Labels, props)
		if err != nil {
			return r, err
		}
		ex.stats.NodesCreated++
		ex.stats.LabelsAdded += len(np.Labels)
		ex.stats.PropsSet += len(props)
		ids[i] = id
		if slot >= 0 {
			r[slot] = value.Node(int64(id))
		}
	}
	for i, rp := range cp.part.Rels {
		if rp.VarHops {
			return r, errAt(ex.ctx.query, rp.pos, "variable-length relationships cannot be created")
		}
		if len(rp.Types) != 1 {
			return r, errAt(ex.ctx.query, rp.pos, "CREATE requires exactly one relationship type")
		}
		var start, end graph.NodeID
		switch rp.Dir {
		case DirRight:
			start, end = ids[i], ids[i+1]
		case DirLeft:
			start, end = ids[i+1], ids[i]
		default:
			return r, errAt(ex.ctx.query, rp.pos, "CREATE requires a directed relationship")
		}
		props, err := cp.relProps[i](ex.ctx, r)
		if err != nil {
			return r, err
		}
		id, err := w.CreateRel(start, end, rp.Types[0], props)
		if err != nil {
			return r, err
		}
		ex.stats.RelsCreated++
		ex.stats.PropsSet += len(props)
		if slot := cp.relSlots[i]; slot >= 0 {
			r[slot] = value.Relationship(int64(id))
		}
	}
	return r, nil
}

// deleteEntity deletes the node or relationship v refers to, tolerating
// entities already deleted by an earlier row.
func (ex *executor) deleteEntity(v value.Value, detach bool) error {
	if v.Kind() == value.KindNull {
		return nil
	}
	w := ex.ctx.tx
	switch v.Kind() {
	case value.KindNode:
		id, _ := v.EntityID()
		nid := graph.NodeID(id)
		if !w.NodeExists(nid) {
			return nil // deleted by an earlier row
		}
		before := w.Degree(nid, graph.Both)
		if err := w.DeleteNode(nid, detach); err != nil {
			return err
		}
		ex.stats.NodesDeleted++
		ex.stats.RelsDeleted += before
		return nil
	case value.KindRelationship:
		id, _ := v.EntityID()
		rid := graph.RelID(id)
		if _, _, _, ok := w.RelEndpoints(rid); !ok {
			return nil
		}
		if err := w.DeleteRel(rid); err != nil {
			return err
		}
		ex.stats.RelsDeleted++
		return nil
	default:
		return fmt.Errorf("cypher: DELETE of %s", v.Kind())
	}
}

// applySetOps applies compiled SET items to one row.
func (ex *executor) applySetOps(r row, ops []setOp) error {
	for i := range ops {
		if err := ex.applySetOp(r, &ops[i]); err != nil {
			return err
		}
	}
	return nil
}

func (ex *executor) applySetOp(r row, op *setOp) error {
	target := r[op.slot]
	if target.IsNull() {
		return nil // SET on null is a no-op (OPTIONAL MATCH semantics)
	}
	w := ex.ctx.tx
	id, isEnt := target.EntityID()
	switch op.kind {
	case SetLabels:
		if target.Kind() != value.KindNode {
			return fmt.Errorf("cypher: cannot set labels on %s", target.Kind())
		}
		for _, l := range op.labels {
			if err := w.SetLabel(graph.NodeID(id), l); err != nil {
				return err
			}
			ex.stats.LabelsAdded++
		}
		return nil
	case SetProp:
		v, err := op.valFn(ex.ctx, r)
		if err != nil {
			return err
		}
		switch target.Kind() {
		case value.KindNode:
			if err := w.SetNodeProp(graph.NodeID(id), op.key, v); err != nil {
				return err
			}
		case value.KindRelationship:
			if err := w.SetRelProp(graph.RelID(id), op.key, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cypher: cannot set property on %s", target.Kind())
		}
		ex.stats.PropsSet++
		return nil
	case SetAllProps, SetMergeProps:
		v, err := op.valFn(ex.ctx, r)
		if err != nil {
			return err
		}
		m, ok := v.AsMap()
		if !ok {
			if props, err2 := propertiesOf(ex.ctx, v); err2 == nil {
				m, ok = props.AsMap()
			}
			if !ok {
				return fmt.Errorf("cypher: SET %s = requires a map", op.target)
			}
		}
		if !isEnt {
			return fmt.Errorf("cypher: cannot set properties on %s", target.Kind())
		}
		if op.kind == SetAllProps {
			// Clear existing properties first.
			switch target.Kind() {
			case value.KindNode:
				for _, k := range w.NodePropKeys(graph.NodeID(id)) {
					if err := w.RemoveNodeProp(graph.NodeID(id), k); err != nil {
						return err
					}
					ex.stats.PropsSet++
				}
			case value.KindRelationship:
				for _, k := range w.RelPropKeys(graph.RelID(id)) {
					if err := w.RemoveRelProp(graph.RelID(id), k); err != nil {
						return err
					}
					ex.stats.PropsSet++
				}
			}
		}
		for k, pv := range m {
			switch target.Kind() {
			case value.KindNode:
				if err := w.SetNodeProp(graph.NodeID(id), k, pv); err != nil {
					return err
				}
			case value.KindRelationship:
				if err := w.SetRelProp(graph.RelID(id), k, pv); err != nil {
					return err
				}
			}
			ex.stats.PropsSet++
		}
		return nil
	}
	return fmt.Errorf("cypher: unknown SET item kind")
}

// applyRemoveOp applies one compiled REMOVE item to one row.
func (ex *executor) applyRemoveOp(r row, op *removeOp) error {
	target := r[op.slot]
	if target.IsNull() {
		return nil
	}
	w := ex.ctx.tx
	id, _ := target.EntityID()
	if op.key != "" {
		switch target.Kind() {
		case value.KindNode:
			if err := w.RemoveNodeProp(graph.NodeID(id), op.key); err != nil {
				return err
			}
		case value.KindRelationship:
			if err := w.RemoveRelProp(graph.RelID(id), op.key); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cypher: cannot remove property from %s", target.Kind())
		}
		ex.stats.PropsSet++
	}
	for _, l := range op.labels {
		if target.Kind() != value.KindNode {
			return fmt.Errorf("cypher: cannot remove label from %s", target.Kind())
		}
		if err := w.RemoveLabel(graph.NodeID(id), l); err != nil {
			return err
		}
		ex.stats.LabelsRemoved++
	}
	return nil
}
