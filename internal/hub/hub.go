// Package hub implements the knowledge-hub partitioning of the paper
// (§III-A): every node of the knowledge graph is owned by exactly one hub,
// which alone is responsible for creating, updating and deleting it.
// Selected relationships cross hub borders ("knowledge bridges") and link
// the communities' partitions into a single partitioned knowledge graph.
//
// Ownership is recorded in two places, mirroring the paper's prototype:
// each label is declared as owned by a hub, and every node carries a
// mandatory hub property naming its owner. A registry validator enforces
// both at commit time.
package hub

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/value"
)

// HubProperty is the node property naming the owning hub.
const HubProperty = "hub"

// Errors reported by the registry.
var (
	ErrUnknownHub   = errors.New("hub: unknown hub")
	ErrLabelClaimed = errors.New("hub: label already owned by another hub")
	ErrWrongOwner   = errors.New("hub: node labeled with a label owned by another hub")
	ErrMissingHub   = errors.New("hub: node lacks the mandatory hub property")
	ErrHubExists    = errors.New("hub: hub already defined")
)

// Hub describes one knowledge hub (a scientific community or regulatory
// body owning part of the knowledge graph).
type Hub struct {
	Name        string
	Description string
}

// Registry tracks hubs and label ownership. One registry may govern many
// stores at once — a knowledge base and its what-if forks share a single
// ontology of hubs and owned labels.
type Registry struct {
	mu      sync.RWMutex
	hubs    map[string]*Hub
	ownerOf map[string]string // label -> hub name
	// enforced tracks the stores Enforce has installed its validator on, so
	// repeated calls never double-install.
	enforced map[*graph.Store]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hubs:     make(map[string]*Hub),
		ownerOf:  make(map[string]string),
		enforced: make(map[*graph.Store]bool),
	}
}

// Define registers a hub.
func (r *Registry) Define(name, description string) (*Hub, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.hubs[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrHubExists, name)
	}
	h := &Hub{Name: name, Description: description}
	r.hubs[name] = h
	return h, nil
}

// Get returns a hub by name.
func (r *Registry) Get(name string) (*Hub, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.hubs[name]
	return h, ok
}

// Hubs lists the defined hubs sorted by name.
func (r *Registry) Hubs() []*Hub {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Hub, 0, len(r.hubs))
	for _, h := range r.hubs {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Own assigns ownership of one or more labels to a hub. A label can be
// owned by at most one hub.
func (r *Registry) Own(hubName string, labels ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hubs[hubName]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHub, hubName)
	}
	for _, l := range labels {
		if owner, taken := r.ownerOf[l]; taken && owner != hubName {
			return fmt.Errorf("%w: %s is owned by %s", ErrLabelClaimed, l, owner)
		}
	}
	for _, l := range labels {
		r.ownerOf[l] = hubName
	}
	return nil
}

// OwnerOfLabel returns the hub owning a label.
func (r *Registry) OwnerOfLabel(label string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	owner, ok := r.ownerOf[label]
	return owner, ok
}

// OwnedLabels returns the labels owned by a hub, sorted.
func (r *Registry) OwnedLabels(hubName string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for l, h := range r.ownerOf {
		if h == hubName {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// OwnerOfNode determines the hub owning a node, preferring the node's hub
// property and falling back to label ownership.
func (r *Registry) OwnerOfNode(tx *graph.Tx, id graph.NodeID) (string, bool) {
	if v, ok := tx.NodeProp(id, HubProperty); ok {
		if s, isStr := v.AsString(); isStr {
			return s, true
		}
	}
	labels, ok := tx.NodeLabels(id)
	if !ok {
		return "", false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, l := range labels {
		if owner, has := r.ownerOf[l]; has {
			return owner, true
		}
	}
	return "", false
}

// Enforce installs a commit-time validator on the store: every created
// node whose labels include an owned label must carry the hub property, and
// that property must name the owning hub. Unowned labels are unconstrained,
// so enforcement can be adopted incrementally. Calling Enforce again for a
// store it already governs is a no-op.
func (r *Registry) Enforce(s *graph.Store) {
	r.mu.Lock()
	already := r.enforced[s]
	r.enforced[s] = true
	r.mu.Unlock()
	if already {
		return
	}
	s.AddValidator(func(tx *graph.Tx) error {
		data := tx.Data()
		check := make(map[graph.NodeID]bool)
		for _, id := range data.CreatedNodes {
			check[id] = true
		}
		for _, lc := range data.AssignedLabels {
			check[lc.Node] = true
		}
		for _, pc := range data.AssignedProps {
			if pc.Kind == graph.NodeEntity && pc.Key == HubProperty {
				check[pc.Node] = true
			}
		}
		ids := make([]graph.NodeID, 0, len(check))
		for id := range check {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := r.checkNode(tx, id); err != nil {
				return err
			}
		}
		return nil
	})
}

func (r *Registry) checkNode(tx *graph.Tx, id graph.NodeID) error {
	labels, ok := tx.NodeLabels(id)
	if !ok {
		return nil // deleted within the same transaction
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var owner string
	for _, l := range labels {
		h, owned := r.ownerOf[l]
		if !owned {
			continue
		}
		if owner == "" {
			owner = h
		} else if owner != h {
			return fmt.Errorf("%w: node %d has labels owned by both %s and %s",
				ErrLabelClaimed, id, owner, h)
		}
	}
	if owner == "" {
		return nil // no owned labels: unconstrained
	}
	v, has := tx.NodeProp(id, HubProperty)
	if !has {
		return fmt.Errorf("%w: node %d (labels owned by %s)", ErrMissingHub, id, owner)
	}
	got, isStr := v.AsString()
	if !isStr || got != owner {
		return fmt.Errorf("%w: node %d declares hub %s but labels belong to %s",
			ErrWrongOwner, id, v, owner)
	}
	return nil
}

// Stats summarizes the partitioning of the graph: per-hub node counts and
// the number of intra- and inter-hub relationships.
type Stats struct {
	NodesPerHub map[string]int
	Unassigned  int
	IntraEdges  int
	InterEdges  int
	Bridges     []Bridge
}

// Bridge describes one inter-hub relationship class.
type Bridge struct {
	Type    string
	FromHub string
	ToHub   string
	Count   int
}

// ComputeStats scans the graph and summarizes the partitioning.
func (r *Registry) ComputeStats(tx *graph.Tx) Stats {
	st := Stats{NodesPerHub: make(map[string]int)}
	for _, id := range tx.AllNodes() {
		if h, ok := r.OwnerOfNode(tx, id); ok {
			st.NodesPerHub[h]++
		} else {
			st.Unassigned++
		}
	}
	bridgeCount := make(map[Bridge]int)
	for _, rid := range tx.AllRels() {
		typ, start, end, ok := tx.RelEndpoints(rid)
		if !ok {
			continue
		}
		h1, ok1 := r.OwnerOfNode(tx, start)
		h2, ok2 := r.OwnerOfNode(tx, end)
		if !ok1 || !ok2 {
			continue
		}
		if h1 == h2 {
			st.IntraEdges++
			continue
		}
		st.InterEdges++
		bridgeCount[Bridge{Type: typ, FromHub: h1, ToHub: h2}]++
	}
	for b, n := range bridgeCount {
		b.Count = n
		st.Bridges = append(st.Bridges, b)
	}
	sort.Slice(st.Bridges, func(i, j int) bool {
		a, b := st.Bridges[i], st.Bridges[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.FromHub != b.FromHub {
			return a.FromHub < b.FromHub
		}
		return a.ToHub < b.ToHub
	})
	return st
}

// HubProp builds the property map fragment {hub: name}; a convenience for
// node-creation call sites.
func HubProp(name string) map[string]value.Value {
	return map[string]value.Value{HubProperty: value.Str(name)}
}
