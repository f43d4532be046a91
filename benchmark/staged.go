package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
)

// Span names: one per layer boundary the benchmark can see from outside.
const (
	spanExecute    = "core.execute" // root of a write or read operation
	spanPlanLookup = "cypher.plan_lookup"
	spanBegin      = "graph.begin"
	spanExec       = "cypher.exec"      // a write statement's execution
	spanExecRead   = "cypher.exec_read" // a read-only statement's execution
	spanMutate     = "graph.mutate"     // direct Tx mutations of a programmatic write
	spanTrigger    = "trigger.process"
	spanCommit     = "graph.commit"
	spanWALAppend  = "wal.append"
	spanWALFsync   = "wal.fsync_wait"
)

// executor is how a workload talks to an in-process knowledge base: either
// through the product's own entry points (direct) or through the staged
// copy of the write path that records a span per layer (staged).
type executor interface {
	// write runs a programmatic transaction: fn's changes, then the rules.
	write(op int, fn func(tx *graph.Tx) error) (*trigger.Report, error)
	// execute runs a Cypher write statement, then the rules.
	execute(op int, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error)
	// query runs a read-only Cypher statement.
	query(op int, query string, params map[string]value.Value) (*cypher.Result, error)
}

// direct is the untraced path: the entry points every embedder calls.
type direct struct{ kb *core.KnowledgeBase }

func (d direct) write(_ int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	return d.kb.WriteTx(fn)
}

func (d direct) execute(_ int, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	return d.kb.ExecuteReport(query, params)
}

func (d direct) query(_ int, query string, params map[string]value.Value) (*cypher.Result, error) {
	return d.kb.Query(query, params)
}

// staged performs the write path itself, stage by stage, exactly as
// core.KnowledgeBase.write does — plan lookup, Begin, Execute, ResetData +
// Compact, Engine.Process, Commit — so each stage can carry a span. On a
// durable knowledge base it re-installs the commit hook as the same
// AppendAsync + OnCommitted(WaitDurable) pair core.OpenDurable wires, wrapped
// in spans. With a nil recorder it is the same code with tracing off.
type staged struct {
	kb    *core.KnowledgeBase
	plans *cypher.PlanCache
	rec   *recorder

	// curOp and commitSpan tell the commit hook which operation is
	// committing. They are written after Begin(ReadWrite) returned, i.e.
	// under the store's write lock, and read by the hook under that lock.
	curOp      int
	commitSpan int
	// muted silences the commit hook's spans while a commit that did not
	// come through run is in flight (alternating's untraced operations).
	muted bool
}

func newStaged(kb *core.KnowledgeBase, rec *recorder) *staged {
	s := &staged{kb: kb, plans: cypher.NewPlanCache(0), rec: rec}
	if l := kb.WAL(); l != nil {
		kb.Store().SetCommitHook(func(tx *graph.Tx) error {
			r := wal.RecordFromTx(tx)
			if r == nil {
				return nil
			}
			rec, op, parent := s.rec, s.curOp, s.commitSpan
			if s.muted {
				rec = nil
			}
			sp := rec.begin(spanWALAppend, op, parent)
			seq, err := l.AppendAsync(r)
			rec.end(sp)
			if err != nil {
				return err
			}
			return tx.OnCommitted(func() error {
				sp := rec.begin(spanWALFsync, op, parent)
				err := l.WaitDurable(seq)
				rec.end(sp)
				return err
			})
		})
	}
	return s
}

// run is core.write with a span per stage; body performs the transaction's
// own changes under the given parent span.
func (s *staged) run(op, root int, body func(tx *graph.Tx) error) (*trigger.Report, error) {
	sp := s.rec.begin(spanBegin, op, root)
	tx := s.kb.Store().Begin(graph.ReadWrite)
	s.rec.end(sp)
	if err := body(tx); err != nil {
		tx.Rollback()
		return nil, err
	}
	data := tx.ResetData()
	data.Compact()
	sp = s.rec.begin(spanTrigger, op, root)
	rep, err := s.kb.Engine().Process(tx, data)
	s.rec.end(sp)
	if err != nil {
		tx.Rollback()
		return rep, err
	}
	sp = s.rec.begin(spanCommit, op, root)
	s.curOp, s.commitSpan = op, sp
	err = tx.Commit()
	s.rec.end(sp)
	return rep, err
}

func (s *staged) write(op int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	root := s.rec.begin(spanExecute, op, noSpan)
	defer s.rec.end(root)
	return s.run(op, root, func(tx *graph.Tx) error {
		sp := s.rec.begin(spanMutate, op, root)
		defer s.rec.end(sp)
		return fn(tx)
	})
}

func (s *staged) plan(op, root int, query string) (*cypher.Plan, error) {
	sp := s.rec.begin(spanPlanLookup, op, root)
	defer s.rec.end(sp)
	return s.plans.Get(query)
}

func (s *staged) execute(op int, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	root := s.rec.begin(spanExecute, op, noSpan)
	defer s.rec.end(root)
	plan, err := s.plan(op, root, query)
	if err != nil {
		return nil, nil, err
	}
	var res *cypher.Result
	rep, err := s.run(op, root, func(tx *graph.Tx) error {
		sp := s.rec.begin(spanExec, op, root)
		defer s.rec.end(sp)
		var err error
		res, err = plan.Execute(tx, &cypher.Options{Params: params, Now: s.kb.Clock().Now})
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}

func (s *staged) query(op int, query string, params map[string]value.Value) (*cypher.Result, error) {
	root := s.rec.begin(spanExecute, op, noSpan)
	defer s.rec.end(root)
	plan, err := s.plan(op, root, query)
	if err != nil {
		return nil, err
	}
	sp := s.rec.begin(spanBegin, op, root)
	tx := s.kb.Store().Begin(graph.ReadOnly)
	s.rec.end(sp)
	defer tx.Rollback()
	sp = s.rec.begin(spanExecRead, op, root)
	defer s.rec.end(sp)
	return plan.Execute(tx, &cypher.Options{Params: params, Now: s.kb.Clock().Now})
}

// opaque times a call the benchmark cannot stage — it goes through the
// knowledge base's own write path (summary rollover, composite drain) — as
// one root span; the WAL spans of the commits it makes hang below it.
func (s *staged) opaque(op int, name string, fn func() error) error {
	root := s.rec.begin(name, op, noSpan)
	defer s.rec.end(root)
	s.curOp, s.commitSpan = op, root
	return fn()
}

// alternateBlock is how many operations run on one path before alternating
// switches to the other.
const alternateBlock = 25

// alternating switches between the staged, traced path and the product's
// own entry points every alternateBlock operations, and keeps each path's
// latencies apart. Both paths then see the same graph sizes and the same
// moments of the run, which a traced stretch followed by an untraced one
// would not — the graph grows with every write.
type alternating struct {
	stg              *staged
	dir              direct
	n                int
	traced, untraced *collector
}

func newAlternating(stg *staged) *alternating {
	return &alternating{stg: stg, dir: direct{stg.kb}, traced: newCollector(), untraced: newCollector()}
}

func (a *alternating) pick() (executor, *collector) {
	a.n++
	a.stg.muted = (a.n/alternateBlock)%2 == 1
	if a.stg.muted {
		return a.dir, a.untraced
	}
	return a.stg, a.traced
}

func (a *alternating) write(op int, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	ex, c := a.pick()
	t0 := time.Now()
	rep, err := ex.write(op, fn)
	c.observe(classWrite, time.Since(t0))
	return rep, err
}

func (a *alternating) execute(op int, query string, params map[string]value.Value) (*cypher.Result, *trigger.Report, error) {
	ex, c := a.pick()
	t0 := time.Now()
	res, rep, err := ex.execute(op, query, params)
	c.observe(classWrite, time.Since(t0))
	return res, rep, err
}

func (a *alternating) query(op int, query string, params map[string]value.Value) (*cypher.Result, error) {
	ex, c := a.pick()
	t0 := time.Now()
	res, err := ex.query(op, query, params)
	c.observe(classRead, time.Since(t0))
	return res, err
}
