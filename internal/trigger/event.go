// Package trigger implements the paper's reactive rules for knowledge
// graphs (§III-B): Event–Guard–Alert quadruples evaluated over the change
// records of graph transactions, with Alert-node production, cascade
// control, rule classification (§III-C) and conservative termination
// analysis in the tradition of active databases.
package trigger

// This file is the event model, and the only one that knows the eight event
// kinds: the table of their textual forms (DSL, JSON, APOC), the enumerator
// that turns a round's change record into events, and the index that routes
// an event to the rules whose selector can match it.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/value"
)

// EventKind enumerates the graph-change events a rule can monitor —
// creation/deletion of nodes and relationships and setting/removal of
// labels and properties, exactly the event taxonomy of §III-B.
type EventKind int

// Event kinds.
const (
	CreateNode EventKind = iota
	DeleteNode
	CreateRelationship
	DeleteRelationship
	SetLabel
	RemoveLabel
	SetProperty
	RemoveProperty
)

// kindRow holds every textual form of one event kind.
type kindRow struct {
	// verb and target spell the kind in the rule DSL: AFTER <verb> OF
	// <target> [selector].
	verb, target string
	// json is the kind's name in a structured POST /rules request.
	json string
	// apoc is the transaction-data parameter the paper's Fig. 6 translation
	// UNWINDs. Label and property events use map-shaped parameters in APOC
	// and are outside that translation, which covers creation and deletion.
	apoc string
	// onRel says the selector names a relationship type, not a node label.
	onRel bool
}

// kinds is the event taxonomy: one row per kind.
var kinds = [...]kindRow{
	CreateNode:         {"CREATE", "NODE", "createNode", "$createdNodes", false},
	DeleteNode:         {"DELETE", "NODE", "deleteNode", "$deletedNodes", false},
	CreateRelationship: {"CREATE", "RELATIONSHIP", "createRelationship", "$createdRelationships", true},
	DeleteRelationship: {"DELETE", "RELATIONSHIP", "deleteRelationship", "$deletedRelationships", true},
	SetLabel:           {"SET", "LABEL", "setLabel", "", false},
	RemoveLabel:        {"REMOVE", "LABEL", "removeLabel", "", false},
	SetProperty:        {"SET", "PROPERTY", "setProperty", "", false},
	RemoveProperty:     {"REMOVE", "PROPERTY", "removeProperty", "", false},
}

// row returns the kind's table row; the zero row for a value that is not one
// of the eight kinds.
func (k EventKind) row() kindRow {
	if k < 0 || int(k) >= len(kinds) {
		return kindRow{}
	}
	return kinds[k]
}

// String returns the event kind name, "CREATE NODE".
func (k EventKind) String() string {
	row := k.row()
	if row.verb == "" {
		return fmt.Sprintf("EVENT(%d)", int(k))
	}
	return row.verb + " " + row.target
}

// ParseEventKind resolves the JSON name of an event kind ("createNode").
func ParseEventKind(name string) (EventKind, bool) {
	for k, row := range kinds {
		if row.json == name {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event selects the graph changes that activate a rule. Label restricts
// node events to nodes carrying the label (like relational triggers
// targeting a table, as the paper prescribes) and relationship events to
// the relationship type; for SetLabel/RemoveLabel it names the label
// assigned or removed. PropKey optionally narrows property events to one
// key. Empty selectors match everything of the kind.
type Event struct {
	Kind    EventKind
	Label   string
	PropKey string
}

// String renders the selector as a composite atom spells it, the AFTER
// clause without its OF: parseEventSpec(e.String()) == e. A property
// selector reads [Label.][key], so "Case." is any property of a Case node
// and "status" the status property of anything.
func (e Event) String() string {
	sel := e.Label
	if e.Kind.row().target == "PROPERTY" {
		if sel != "" {
			sel += "."
		}
		sel += e.PropKey
	}
	if sel == "" {
		return e.Kind.String()
	}
	return e.Kind.String() + " " + sel
}

// parseEventSpec parses the verb/target part of a composite atom — e.g.
// "CREATE OF NODE Sequence", or the shorthand "CREATE NODE Sequence"
// without OF.
func parseEventSpec(spec string) (Event, error) {
	return parseEventFields(strings.Fields(spec), false)
}

func parseEventFields(fields []string, requireOF bool) (Event, error) {
	hasOF := len(fields) >= 2 && strings.EqualFold(fields[1], "OF")
	if hasOF {
		fields = append(fields[:1:1], fields[2:]...)
	} else if requireOF {
		if len(fields) == 0 {
			return Event{}, fmt.Errorf("expected <verb> OF <target>")
		}
		return Event{}, fmt.Errorf("expected OF after %s", strings.ToUpper(fields[0]))
	}
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("expected <verb> OF <target>")
	}
	verb := strings.ToUpper(fields[0])
	target := strings.ToUpper(fields[1])
	if target == "EDGE" {
		target = "RELATIONSHIP"
	}
	selector := ""
	if len(fields) >= 3 {
		selector = fields[2]
	}
	if len(fields) > 3 {
		return Event{}, fmt.Errorf("unexpected %q in event clause",
			strings.Join(fields[3:], " "))
	}
	for k, row := range kinds {
		if row.verb != verb || row.target != target {
			continue
		}
		ev := Event{Kind: EventKind(k), Label: selector}
		switch target {
		case "LABEL":
			if selector == "" {
				return Event{}, fmt.Errorf("SET/REMOVE OF LABEL needs a label name")
			}
		case "PROPERTY":
			if i := strings.IndexByte(selector, '.'); i >= 0 {
				ev.Label, ev.PropKey = selector[:i], selector[i+1:]
			} else {
				ev.Label, ev.PropKey = "", selector
			}
		}
		return ev, nil
	}
	return Event{}, fmt.Errorf("unsupported event %s OF %s", verb, target)
}

// APOC returns what the Fig. 6 translation needs of a rule or composite
// step on e: the transaction-data parameter to UNWIND into NEW, and the
// condition selecting its occurrences — the selector's label or type test
// (the paper's "NEW:Sequence" check), then the guard. The condition is
// empty when there is neither; ok is false for kinds the scheme does not
// cover.
func (e Event) APOC(guard string) (source, condition string, ok bool) {
	row := e.Kind.row()
	var conds []string
	switch {
	case e.Label == "":
	case row.onRel:
		conds = append(conds, fmt.Sprintf("type(NEW) = '%s'", e.Label))
	default:
		conds = append(conds, fmt.Sprintf("'%s' IN labels(NEW)", e.Label))
	}
	if guard != "" {
		conds = append(conds, "("+collapseSpace(guard)+")")
	}
	return row.apoc, strings.Join(conds, " AND "), row.apoc != ""
}

// Binding carries the transition variables made visible to a rule's guard
// and alert for one event occurrence: NEW for the affected live entity,
// OLD for deleted snapshots and previous property values, plus KEY / LABEL
// metadata where applicable.
type Binding map[string]value.Value

// event is one change of a round, as rules see it.
type event struct {
	kind EventKind
	// labels are the node's labels as of round start (for a deletion, as of
	// the deletion). label is the relationship's type, or for SetLabel and
	// RemoveLabel the label set or removed. A selector's Label is looked up
	// in both.
	labels []string
	label  string
	// id names the live node or relationship (isRel), so that a rule can
	// recheck it when it fires; deletions carry the snapshot instead.
	id      int64
	isRel   bool
	oldNode *graph.Node
	oldRel  *graph.Rel
	prop    *graph.PropChange // property events
	// bind is built when the first rule needs it and shared, read-only, by
	// every rule the event reaches.
	bind Binding
}

// events enumerates one round's change record: kind by kind, and within a
// kind in the order the transaction made the changes. Changes to entities
// that no longer exist at round start are dropped (a deletion event carries
// what is left of them), and so is every change to a node carrying one of
// the skip labels; the record itself stays complete for commit validators
// and the WAL.
func events(tx *graph.Tx, data *graph.TxData, skip map[string]bool) []event {
	var out []event
	node := func(id graph.NodeID, ev event) {
		if ls, ok := tx.NodeLabels(id); ok && !hidden(ls, skip) {
			if ev.label == "" { // a label event is selected by its own label, not the node's
				ev.labels = ls
			}
			ev.id = int64(id)
			out = append(out, ev)
		}
	}
	rel := func(id graph.RelID, ev event) {
		if typ, _, _, ok := tx.RelEndpoints(id); ok {
			ev.label, ev.id, ev.isRel = typ, int64(id), true
			out = append(out, ev)
		}
	}
	for _, id := range data.CreatedNodes {
		node(id, event{kind: CreateNode})
	}
	for i := range data.DeletedNodes {
		if snap := &data.DeletedNodes[i]; !hidden(snap.Labels, skip) {
			out = append(out, event{kind: DeleteNode, labels: snap.Labels, oldNode: snap})
		}
	}
	for _, id := range data.CreatedRels {
		rel(id, event{kind: CreateRelationship})
	}
	for i := range data.DeletedRels {
		snap := &data.DeletedRels[i]
		out = append(out, event{kind: DeleteRelationship, label: snap.Type, oldRel: snap})
	}
	for _, lc := range data.AssignedLabels {
		node(lc.Node, event{kind: SetLabel, label: lc.Label})
	}
	for _, lc := range data.RemovedLabels {
		node(lc.Node, event{kind: RemoveLabel, label: lc.Label})
	}
	props := func(kind EventKind, changes []graph.PropChange) {
		for i := range changes {
			if pc := &changes[i]; pc.Kind == graph.NodeEntity {
				node(pc.Node, event{kind: kind, prop: pc})
			} else {
				rel(pc.Rel, event{kind: kind, prop: pc})
			}
		}
	}
	props(SetProperty, data.AssignedProps)
	props(RemoveProperty, data.RemovedProps)
	return out
}

// bindingShape returns the names of the transition variables an event of
// kind k binds: the binding shape its rules' alerts compile for.
func bindingShape(k EventKind) []string {
	ev := event{kind: k, oldNode: &graph.Node{}, oldRel: &graph.Rel{}}
	if k.row().target == "PROPERTY" {
		ev.prop = &graph.PropChange{}
	}
	var names []string
	for name := range ev.binding() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// txMark is a position in a change record: the length of each of its
// lists. The aggregate fold (counts.go) reads a record a suffix at a time.
type txMark [8]int

func markOf(d *graph.TxData) txMark {
	return txMark{len(d.CreatedNodes), len(d.DeletedNodes), len(d.CreatedRels), len(d.DeletedRels),
		len(d.AssignedLabels), len(d.RemovedLabels), len(d.AssignedProps), len(d.RemovedProps)}
}

// delta is the part of a change record after a mark, as the aggregate fold
// reads it: labels and props hold the assigned, then the removed ones.
type delta struct {
	nodes     []graph.NodeID
	goneNodes []graph.Node
	rels      []graph.RelID
	goneRels  []graph.Rel
	labels    [2][]graph.LabelChange
	props     [2][]graph.PropChange
}

func since(d *graph.TxData, m txMark) delta {
	return delta{
		nodes: d.CreatedNodes[m[0]:], goneNodes: d.DeletedNodes[m[1]:],
		rels: d.CreatedRels[m[2]:], goneRels: d.DeletedRels[m[3]:],
		labels: [2][]graph.LabelChange{d.AssignedLabels[m[4]:], d.RemovedLabels[m[5]:]},
		props:  [2][]graph.PropChange{d.AssignedProps[m[6]:], d.RemovedProps[m[7]:]},
	}
}

func hidden(labels []string, skip map[string]bool) bool {
	for _, l := range labels {
		if skip[l] {
			return true
		}
	}
	return false
}

// selects reports whether the selector matches ev as enumerated, that is
// against the labels of round start.
func (e Event) selects(ev *event) bool {
	return e.Kind == ev.kind &&
		(e.Label == "" || e.Label == ev.label || slices.Contains(ev.labels, e.Label)) &&
		(e.PropKey == "" || ev.prop == nil || e.PropKey == ev.prop.Key)
}

// live rechecks ev when a rule selecting on label is about to fire: rules
// fired earlier in the round may have deleted the entity or removed the
// node label the selector asked for. (The label of a SetLabel or
// RemoveLabel event names the change, not a label the node must keep.)
func (ev *event) live(tx *graph.Tx, label string) bool {
	switch {
	case ev.oldNode != nil || ev.oldRel != nil:
		return true
	case ev.isRel:
		_, _, _, ok := tx.RelEndpoints(graph.RelID(ev.id))
		return ok
	case label == "" || ev.label != "":
		return tx.NodeExists(graph.NodeID(ev.id))
	default:
		return tx.NodeHasLabel(graph.NodeID(ev.id), label)
	}
}

// binding returns the event's transition variables.
func (ev *event) binding() Binding {
	if ev.bind != nil {
		return ev.bind
	}
	b := Binding{"NEW": value.Null}
	switch ev.kind {
	case DeleteNode:
		b["OLD"] = value.Map(ev.oldNode.Props)
		labels := make([]value.Value, len(ev.labels))
		for i, l := range ev.labels {
			labels[i] = value.Str(l)
		}
		b["OLDLABELS"] = value.ListOf(labels)
	case DeleteRelationship:
		b["OLD"] = value.Map(ev.oldRel.Props)
		b["OLDTYPE"] = value.Str(ev.label)
	default:
		b["NEW"] = value.Node(ev.id)
		if ev.isRel {
			b["NEW"] = value.Relationship(ev.id)
		}
		switch {
		case ev.prop != nil:
			b["KEY"] = value.Str(ev.prop.Key)
			b["OLDVALUE"] = ev.prop.Old
			b["NEWVALUE"] = ev.prop.New
		case ev.kind == SetLabel || ev.kind == RemoveLabel:
			b["LABEL"] = value.Str(ev.label)
		}
	}
	ev.bind = b
	return b
}

// dispatchIndex buckets compiled rules by the (EventKind, Label) pairs their
// selectors can match; the "" bucket of a kind holds its wildcard selectors.
// Each bucket is sorted by installation order (a composite rule's steps in
// step order), and every entry carries its guard family (see family.go).
// Rebuilt on Install/Drop under the engine lock and read immutably by
// Process, it lets a round skip every rule whose selector cannot possibly
// match the round's changes.
type dispatchIndex struct {
	byKind   map[EventKind]map[string][]dispatchEntry
	families int
	// aggs are the installed rules' maintained aggregates, in installation
	// order (see folder).
	aggs []*aggregate
}

// dispatchEntry is one indexed rule or composite step, with the number of
// the guard family it belongs to (-1 for none).
type dispatchEntry struct {
	cr  *Compiled
	fam int
}

func buildDispatch(rules map[string]*Compiled) *dispatchIndex {
	fam, n := numberFamilies(rules)
	idx := &dispatchIndex{byKind: make(map[EventKind]map[string][]dispatchEntry), families: n}
	for _, r := range rules {
		idx.aggs = append(idx.aggs, r.aggs...)
		for _, cr := range r.dispatched() {
			byLabel := idx.byKind[cr.Event.Kind]
			if byLabel == nil {
				byLabel = make(map[string][]dispatchEntry)
				idx.byKind[cr.Event.Kind] = byLabel
			}
			f, ok := fam[cr]
			if !ok {
				f = -1
			}
			byLabel[cr.Event.Label] = append(byLabel[cr.Event.Label], dispatchEntry{cr: cr, fam: f})
		}
	}
	for _, byLabel := range idx.byKind {
		for _, bucket := range byLabel {
			slices.SortFunc(bucket, firingOrder)
		}
	}
	slices.SortFunc(idx.aggs, func(a, b *aggregate) int { return a.slot - b.slot })
	return idx
}

// firingOrder orders entries by installation, a composite rule's steps by
// step.
func firingOrder(a, b dispatchEntry) int {
	if a.cr.seq != b.cr.seq {
		return a.cr.seq - b.cr.seq
	}
	return a.cr.step - b.cr.step
}

// candidates returns, in firing order, the entries at least one of the
// events reaches by its kind and a label or type it carries. Buckets are
// disjoint, so a round that reaches one bucket fires it as it stands (the
// caller only reads it); several are concatenated and sorted.
func (idx *dispatchIndex) candidates(evs []event) []dispatchEntry {
	var reached [][]dispatchEntry
	reach := func(bucket []dispatchEntry) {
		if len(bucket) == 0 {
			return
		}
		for _, b := range reached {
			if &b[0] == &bucket[0] {
				return
			}
		}
		reached = append(reached, bucket)
	}
	for i := range evs {
		ev := &evs[i]
		byLabel := idx.byKind[ev.kind]
		if byLabel == nil {
			continue
		}
		reach(byLabel[""])
		if ev.label != "" {
			reach(byLabel[ev.label])
		}
		for _, l := range ev.labels {
			reach(byLabel[l])
		}
	}
	switch len(reached) {
	case 0:
		return nil
	case 1:
		return reached[0]
	}
	var out []dispatchEntry
	for _, b := range reached {
		out = append(out, b...)
	}
	slices.SortFunc(out, firingOrder)
	return out
}
