package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/value"
)

// exportDoc is the on-disk JSON document shape.
type exportDoc struct {
	Format   string       `json:"format"`
	Nodes    []exportNode `json:"nodes"`
	Rels     []exportRel  `json:"relationships"`
	NextNode int64        `json:"nextNode"`
	NextRel  int64        `json:"nextRel"`
}

type exportNode struct {
	ID     int64          `json:"id"`
	Labels []string       `json:"labels,omitempty"`
	Props  map[string]any `json:"props,omitempty"`
}

type exportRel struct {
	ID    int64          `json:"id"`
	Type  string         `json:"type"`
	Start int64          `json:"start"`
	End   int64          `json:"end"`
	Props map[string]any `json:"props,omitempty"`
}

// exportFormat tags the document version.
const exportFormat = "reactive-graph/v1"

// Export writes the store's content (nodes, relationships, identifier
// counters — not indexes or validators, which are configuration) as JSON.
// The output is deterministic: entities are ordered by identifier and keys
// sort lexicographically, so two stores with equal content export
// byte-identical documents. Export reads the committed snapshot lock-free
// and never blocks a writer, however large the store.
func (s *Store) Export(w io.Writer) error {
	return s.snap.Load().export(w)
}

// Export writes the store's content as seen by the transaction: a
// read-write transaction exports its own uncommitted state, a read-only
// transaction its pinned snapshot. Checkpointing pairs a SnapshotView with
// the write-ahead-log position and exports from it after the write lock is
// released.
func (tx *Tx) Export(w io.Writer) error {
	if tx.done {
		return ErrTxDone
	}
	return tx.view.export(w)
}

func (sn *snapshot) export(w io.Writer) error {
	doc := exportDoc{
		Format:   exportFormat,
		NextNode: int64(sn.nextNode),
		NextRel:  int64(sn.nextRel),
	}
	for _, id := range sn.nodes.keys() {
		rec := sn.nodes.at(id)
		en := exportNode{ID: int64(id)}
		for l := range rec.labels {
			en.Labels = append(en.Labels, l)
		}
		sort.Strings(en.Labels)
		if len(rec.props) > 0 {
			en.Props = make(map[string]any, len(rec.props))
			for k, v := range rec.props {
				en.Props[k] = value.ToJSON(v)
			}
		}
		doc.Nodes = append(doc.Nodes, en)
	}
	for _, id := range sn.rels.keys() {
		rec := sn.rels.at(id)
		er := exportRel{
			ID: int64(id), Type: rec.typ,
			Start: int64(rec.start), End: int64(rec.end),
		}
		if len(rec.props) > 0 {
			er.Props = make(map[string]any, len(rec.props))
			for k, v := range rec.props {
				er.Props[k] = value.ToJSON(v)
			}
		}
		doc.Rels = append(doc.Rels, er)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Import loads a document produced by Export into the store, which must be
// empty. Identifiers are preserved; indexes already created on the store
// are populated as nodes arrive. The load is one replication-style
// transaction (BeginApply): validators do NOT run (the data was valid when
// exported; subsequent transactions are validated as usual) and a follower
// accepts it, but the commit hook does — a durable store logs an import like
// any other commit. On error the transaction is rolled back, so the store is
// left unchanged, and concurrent readers never observe a partial import.
func (s *Store) Import(r io.Reader) error {
	var doc exportDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("graph: import: %w", err)
	}
	if doc.Format != exportFormat {
		return fmt.Errorf("graph: import: unknown format %q", doc.Format)
	}
	tx := s.BeginApply()
	defer tx.Rollback()
	if tx.NodeCount() != 0 || tx.RelCount() != 0 {
		return fmt.Errorf("graph: import requires an empty store")
	}
	tx.view.nextNode, tx.view.nextRel = NodeID(doc.NextNode), RelID(doc.NextRel)
	tx.view.by.dirty = true
	for _, en := range doc.Nodes {
		props, err := importProps(en.Props)
		if err != nil {
			return fmt.Errorf("graph: import node %d: %w", en.ID, err)
		}
		id := NodeID(en.ID)
		if id > tx.view.nextNode {
			tx.view.nextNode = id
		}
		tx.createNode(id, en.Labels, props)
	}
	for _, er := range doc.Rels {
		props, err := importProps(er.Props)
		if err != nil {
			return fmt.Errorf("graph: import rel %d: %w", er.ID, err)
		}
		if err := tx.createRelWithID(RelID(er.ID), NodeID(er.Start), NodeID(er.End), er.Type, props); err != nil {
			return fmt.Errorf("graph: import: %w", err)
		}
	}
	return tx.Commit()
}

// importProps decodes a document property map, dropping NULLs.
func importProps(raw map[string]any) (map[string]value.Value, error) {
	props := make(map[string]value.Value, len(raw))
	for k, r := range raw {
		v, err := value.FromJSON(r)
		if err != nil {
			return nil, fmt.Errorf("prop %s: %w", k, err)
		}
		if !v.IsNull() {
			props[k] = v
		}
	}
	return props, nil
}
