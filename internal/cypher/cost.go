package cypher

import "repro/internal/graph"

// statsSnapshot memoizes the store statistics a compilation consulted while
// choosing access paths. The snapshot doubles as the plan's staleness stamp:
// stale() replays exactly the reads that informed the plan and reports
// whether any of them has drifted far enough to change a costing decision,
// which is what lets cached plans adapt to data growth without re-parsing.
type statsSnapshot struct {
	nodeCount    int
	sawNodeCount bool
	labels       map[string]int
	indexes      map[indexKey]bool
}

type indexKey struct{ label, key string }

func newStatsSnapshot() *statsSnapshot {
	return &statsSnapshot{
		labels:  make(map[string]int),
		indexes: make(map[indexKey]bool),
	}
}

func (s *statsSnapshot) labelCount(tx *graph.Tx, label string) int {
	if c, ok := s.labels[label]; ok {
		return c
	}
	c := tx.CountByLabel(label)
	s.labels[label] = c
	return c
}

func (s *statsSnapshot) totalNodes(tx *graph.Tx) int {
	if !s.sawNodeCount {
		s.nodeCount = tx.NodeCount()
		s.sawNodeCount = true
	}
	return s.nodeCount
}

func (s *statsSnapshot) hasIndex(tx *graph.Tx, label, key string) bool {
	k := indexKey{label, key}
	if has, ok := s.indexes[k]; ok {
		return has
	}
	has := tx.HasIndex(label, key)
	s.indexes[k] = has
	return has
}

// stale reports whether the statistics have drifted enough since compilation
// that access-path choices should be recomputed: an index appeared or
// disappeared, or a cardinality the plan was costed on changed by more than
// 2x (with absolute slack so tiny stores don't thrash).
func (s *statsSnapshot) stale(tx *graph.Tx) bool {
	for k, had := range s.indexes {
		if tx.HasIndex(k.label, k.key) != had {
			return true
		}
	}
	if s.sawNodeCount && drifted(s.nodeCount, tx.NodeCount()) {
		return true
	}
	for l, c := range s.labels {
		if drifted(c, tx.CountByLabel(l)) {
			return true
		}
	}
	return false
}

func drifted(old, cur int) bool {
	hi, lo := old, cur
	if cur > hi {
		hi, lo = cur, old
	}
	if hi < 16 {
		return false
	}
	return hi > 2*lo
}

// accessPlan records the compile-time choice of how to enumerate anchor
// candidates for one pattern part, plus the cardinality estimate that drove
// the choice (surfaced by EXPLAIN).
type accessPlan struct {
	anchor int        // node position in the pattern chain
	kind   accessKind // how candidates are produced
	label  string     // accessIndex, accessLabel
	key    string     // accessIndex
	valFn  exprFn     // accessIndex: the property's compiled expression
	est    int        // estimated candidate count at plan time
}

// cost ranks the plan for ordering a MATCH's parts: an index lookup, then a
// label scan, then a full scan, each by its estimate.
func (ap *accessPlan) cost() int64 {
	switch ap.kind {
	case accessIndex:
		return 1
	case accessLabel:
		return 2 + int64(ap.est)
	default:
		return 2 + 2*int64(ap.est)
	}
}

type accessKind int

const (
	accessScan  accessKind = iota
	accessLabel            // nodes with the label
	accessIndex            // nodes with the indexed (label, key) value
	accessBound            // the one node the anchor's variable is bound to
)
