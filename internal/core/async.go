package core

// The asynchronous alert pipeline: the detached coupling mode of the
// active-database literature, and the engine behind the afterAsync trigger
// phase of the paper's APOC translation (§IV-B).
//
// Guards still run synchronously inside the writing transaction — they are
// cheap and intra-hub by design. The alert query of a Phase: AfterAsync
// rule, which may be arbitrarily complex and inter-hub, is deferred: the
// passing binding is serialized onto a durable pending queue and evaluated
// later by a worker pool against a committed snapshot, producing the alert
// nodes in a follow-up transaction that cascades through the rule engine as
// usual.
//
// The queue is the graph itself: every staged activation is a PendingAlert
// node created inside the triggering transaction, so it rides the existing
// WAL/snapshot/recovery machinery exactly like the federation's FedOutbox
// does — enqueue is atomic with the triggering write, crash recovery gets
// the queue back for free, and StartAsync after OpenDurable drains whatever
// a crash left behind. A worker's follow-up transaction deletes the
// PendingAlert node and materializes the alert nodes atomically, which is
// what makes delivery exactly-once across restarts.
//
// Ordering: node identifiers are assigned in commit order, the scanner
// dispatches entries in identifier order, and all entries of one rule hash
// to the same worker — so alerts of a given rule materialize in the order
// their activations committed (per-rule ordered delivery). No ordering is
// guaranteed across rules.
//
// The queue mechanics are the bookkeeping idiom of bookkeeping.go; this file
// keeps what is specific to the pipeline: per-rule worker routing, the
// in-flight and parked sets, backpressure.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/trigger"
	"repro/internal/value"
)

// PendingAlertLabel is the label of the durable pending-queue nodes staged
// by AfterAsync rules. The rule engine is configured to skip create/delete
// events on this label, so queue bookkeeping never re-triggers rules.
const PendingAlertLabel = "PendingAlert"

// PendingAlert node properties.
const (
	pendingRuleProp    = "rule"
	pendingBindingProp = "binding"
	pendingAtProp      = "enqueuedAt"
)

// Backpressure selects how writers behave when the pending queue is full.
type Backpressure int

// Backpressure policies.
const (
	// BlockOnFull makes the enqueuing writer wait, after its commit, until
	// the workers bring the queue back under the limit. Nothing is lost;
	// writer throughput degrades to worker throughput under sustained
	// overload. Requires workers (enqueue-only pipelines never block).
	BlockOnFull Backpressure = iota
	// ShedOnFull drops activations while the queue is at the limit; sheds
	// are counted in rkm_trigger_async_shed_total and in the transaction's
	// Report.AsyncShed. The bound is approximate: the check runs against
	// the transaction's view at enqueue time.
	ShedOnFull
)

// String returns the policy name.
func (b Backpressure) String() string {
	if b == ShedOnFull {
		return "shed"
	}
	return "block"
}

// ParseBackpressure parses "block" or "shed". Empty means BlockOnFull.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "", "block":
		return BlockOnFull, nil
	case "shed":
		return ShedOnFull, nil
	default:
		return BlockOnFull, fmt.Errorf("core: unknown backpressure policy %q (want block or shed)", s)
	}
}

// Async pipeline defaults.
const (
	DefaultAsyncWorkers    = 2
	DefaultAsyncQueueLimit = 1024
)

// AsyncOptions tunes the asynchronous alert pipeline.
type AsyncOptions struct {
	// Workers is the number of evaluation goroutines. 0 means
	// DefaultAsyncWorkers; negative means enqueue-only — activations are
	// staged durably but nothing drains them until DrainAsync or a later
	// StartAsync with workers (fault-injection tests freeze the queue this
	// way).
	Workers int
	// QueueLimit bounds the pending queue (0 = DefaultAsyncQueueLimit).
	QueueLimit int
	// Backpressure selects blocking or shedding at the limit.
	Backpressure Backpressure
}

// ErrAsyncRunning is returned by StartAsync when the pipeline already runs.
var ErrAsyncRunning = errors.New("core: async pipeline already running")

// pendingEntry is one dequeued PendingAlert node.
type pendingEntry struct {
	id      graph.NodeID
	rule    string
	binding string
}

// asyncPipeline drains the PendingAlert queue: the scanner (a Driver kicked
// by every enqueuing commit) collects committed entries in node-id order and
// routes them by rule hash to per-worker channels; workers evaluate against
// pinned read snapshots and materialize in follow-up transactions.
type asyncPipeline struct {
	kb   *KnowledgeBase
	opts AsyncOptions

	scanner *Driver // nil for an enqueue-only pipeline
	stop    chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signaled when an entry finishes (throttle/idle waiters)
	inflight map[graph.NodeID]bool
	// parked holds entries whose evaluation or materialization failed; they
	// stay on the durable queue and are retried by the next StartAsync.
	parked  map[graph.NodeID]bool
	stopped bool
	workers []chan pendingEntry
	hooks   asyncHooks
}

// asyncHooks let a test order the pipeline's goroutines without sleeping:
// beforeConsume runs in a worker before each entry, blocked in a writer
// about to wait on block-mode backpressure. Both are nil outside tests.
type asyncHooks struct {
	beforeConsume, blocked func()
}

// StartAsync starts the asynchronous alert pipeline. Any PendingAlert
// entries already on the queue — for a durable knowledge base, whatever a
// crash or shutdown left behind — are drained first, in order (counted in
// rkm_trigger_async_recovered_total). Until StartAsync is called, AfterAsync
// rules are evaluated synchronously, like Before rules.
func (kb *KnowledgeBase) StartAsync(opts AsyncOptions) error {
	// A follower's graph must stay a verbatim mirror of the leader's record
	// stream; local async evaluation would commit writes of its own and fork
	// the replica. The leader evaluates rules and its alerts replicate like
	// any other committed data.
	if kb.follower {
		return ErrFollower
	}
	if opts.Workers == 0 {
		opts.Workers = DefaultAsyncWorkers
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultAsyncQueueLimit
	}
	p := &asyncPipeline{
		kb:       kb,
		opts:     opts,
		stop:     make(chan struct{}),
		inflight: make(map[graph.NodeID]bool),
		parked:   make(map[graph.NodeID]bool),
		hooks:    kb.asyncHooks,
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.Workers > 0 {
		p.workers = make([]chan pendingEntry, opts.Workers)
		for i := range p.workers {
			p.workers[i] = make(chan pendingEntry, 16)
		}
		p.scanner = Drive(0, p.dispatch)
	}
	if !kb.async.CompareAndSwap(nil, p) {
		p.scanner.Stop()
		return ErrAsyncRunning
	}
	kb.asyncM.recovered.Add(int64(kb.AsyncDepth()))
	for _, ch := range p.workers {
		p.wg.Add(1)
		go p.worker(ch)
	}
	p.scanner.Kick()
	return nil
}

// StopAsync stops the pipeline and waits for in-flight evaluations to
// finish. Pending entries stay on the durable queue; a later StartAsync (or
// a restart of a durable knowledge base) resumes them. After StopAsync,
// AfterAsync rules fall back to synchronous evaluation. No-op if the
// pipeline is not running.
func (kb *KnowledgeBase) StopAsync() {
	p := kb.async.Swap(nil)
	if p == nil {
		return
	}
	close(p.stop)
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.scanner.Stop()
	p.wg.Wait()
}

// AsyncDepth returns the number of PendingAlert entries queued.
func (kb *KnowledgeBase) AsyncDepth() int { return kb.pending.Depth() }

// WaitAsyncIdle blocks until the pending queue is drained and no evaluation
// is in flight (failed entries parked for the next restart excepted), or the
// timeout elapses. Tests, benchmarks and graceful shutdowns use it.
func (kb *KnowledgeBase) WaitAsyncIdle(timeout time.Duration) error {
	p := kb.async.Load()
	if p == nil {
		return errors.New("core: async pipeline not running")
	}
	deadline := time.Now().Add(timeout)
	for {
		if p.idle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: async queue not idle after %v (depth %d)",
				timeout, kb.AsyncDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *asyncPipeline) idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inflight) == 0 && p.kb.AsyncDepth() <= len(p.parked)
}

// asyncEnqueue is the engine's AsyncSink: called inside the writing
// transaction for every passing AfterAsync activation, it stages a
// PendingAlert node so the activation commits (or rolls back) atomically
// with the write that caused it.
func (kb *KnowledgeBase) asyncEnqueue(tx *graph.Tx, item trigger.AsyncItem) (bool, error) {
	p := kb.async.Load()
	if p == nil {
		return false, trigger.ErrAsyncFallback
	}
	if p.opts.Backpressure == ShedOnFull && tx.CountByLabel(PendingAlertLabel) >= p.opts.QueueLimit {
		kb.asyncM.shed.Inc()
		return false, nil
	}
	enc, err := trigger.EncodeBinding(item.Binding)
	if err != nil {
		return false, err
	}
	_, err = tx.CreateNode([]string{PendingAlertLabel}, map[string]value.Value{
		pendingRuleProp:    value.Str(item.Rule),
		pendingBindingProp: value.Str(enc),
		pendingAtProp:      value.DateTime(kb.clock.Now()),
	})
	if err != nil {
		return false, err
	}
	return true, tx.OnCommitted(func() error {
		kb.asyncM.enqueued.Inc()
		p.scanner.Kick()
		return nil
	})
}

// throttleAsync applies BlockOnFull backpressure: called after a commit that
// enqueued, outside any lock, it waits until the workers bring the queue
// back under the limit. Workers themselves never throttle (their follow-up
// transactions are what drains the queue).
func (kb *KnowledgeBase) throttleAsync() {
	p := kb.async.Load()
	if p == nil || p.opts.Backpressure != BlockOnFull || p.opts.Workers <= 0 {
		return
	}
	if kb.AsyncDepth() < p.opts.QueueLimit {
		return
	}
	t0 := time.Now()
	p.mu.Lock()
	if p.hooks.blocked != nil {
		p.hooks.blocked()
	}
	for !p.stopped && kb.AsyncDepth() >= p.opts.QueueLimit {
		p.cond.Wait()
	}
	p.mu.Unlock()
	kb.asyncM.blockSeconds.ObserveSince(t0)
}

// dispatch is the scanner's pass: it routes committed pending entries to the
// workers until none are left. Entries of the same rule always land on the
// same worker, and each batch dispatches in node-id (= commit) order, which
// together give per-rule ordered delivery.
func (p *asyncPipeline) dispatch() {
	for {
		p.mu.Lock()
		batch := p.kb.readPending(func(id graph.NodeID) bool {
			if p.inflight[id] || p.parked[id] {
				return false
			}
			p.inflight[id] = true
			return true
		})
		p.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, en := range batch {
			h := fnv.New32a()
			h.Write([]byte(en.rule))
			select {
			case p.workers[h.Sum32()%uint32(len(p.workers))] <- en:
			case <-p.stop:
				return
			}
		}
	}
}

// readPending decodes the committed queue entries take accepts (see
// Bookkeeping.Scan for the order).
func (kb *KnowledgeBase) readPending(take func(graph.NodeID) bool) []pendingEntry {
	var out []pendingEntry
	kb.pending.Scan(func(tx *graph.Tx, id graph.NodeID) bool {
		if !take(id) {
			return false
		}
		rule, _ := tx.NodeProp(id, pendingRuleProp)
		binding, _ := tx.NodeProp(id, pendingBindingProp)
		en := pendingEntry{id: id}
		en.rule, _ = rule.AsString()
		en.binding, _ = binding.AsString()
		out = append(out, en)
		return true
	})
	return out
}

func (p *asyncPipeline) worker(ch chan pendingEntry) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case en := <-ch:
			if p.hooks.beforeConsume != nil {
				p.hooks.beforeConsume()
			}
			_, err := p.kb.consumePending(en)
			p.mu.Lock()
			if err != nil {
				// A failed entry stays on the durable queue but out of this
				// pipeline's rotation; the next StartAsync retries it.
				p.parked[en.id] = true
			}
			delete(p.inflight, en.id)
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// DrainAsync synchronously evaluates and materializes every queued entry in
// one pass, in enqueue order, until the queue is empty —
// what the workers of a running pipeline do in the background. It returns
// how many entries it materialized; entries that fail stay queued and are
// reported joined, corrupt or orphaned ones are discarded. Callers without
// workers (enqueue-only pipelines, tests, a drain before shutdown) use it.
func (kb *KnowledgeBase) DrainAsync() (int, error) {
	if kb.follower {
		return 0, ErrFollower
	}
	done := 0
	var errs []error
	failed := make(map[graph.NodeID]bool)
	for {
		entries := kb.readPending(func(id graph.NodeID) bool { return !failed[id] })
		if len(entries) == 0 {
			return done, errors.Join(errs...)
		}
		for _, en := range entries {
			ok, err := kb.consumePending(en)
			if err != nil {
				failed[en.id] = true
				errs = append(errs, fmt.Errorf("core: pending %d: %w", en.id, err))
			} else if ok {
				done++
			}
		}
	}
}

// consumePending evaluates one entry: alert query against a pinned committed
// snapshot, then the follow-up write transaction that deletes the PendingAlert node and materializes the alert nodes. It
// reports whether this call materialized the entry; false with a nil error
// means the entry was discarded (corrupt payload, dropped rule) or an earlier
// incarnation had already consumed it.
func (kb *KnowledgeBase) consumePending(en pendingEntry) (bool, error) {
	t0 := time.Now()
	bind, err := trigger.DecodeBinding(en.binding)
	if err != nil {
		// Corrupt payload: nothing can ever evaluate it. Drop it.
		kb.asyncM.failed.Inc()
		return false, kb.pending.Discard(en.id)
	}
	ro := kb.store.Begin(graph.ReadOnly)
	cols, rows, err := kb.engine.EvaluateAsync(ro, en.rule, bind)
	ro.Rollback()
	switch {
	case errors.Is(err, trigger.ErrRuleNotFound):
		// The rule was dropped after the activation was staged.
		kb.asyncM.orphaned.Inc()
		return false, kb.pending.Discard(en.id)
	case err != nil:
		kb.asyncM.failed.Inc()
		return false, err
	}
	consumed, err := kb.pending.FollowUp(en.id, func(tx *graph.Tx) error {
		if err := tx.DeleteNode(en.id, true); err != nil {
			return err
		}
		_, err := kb.engine.MaterializeAsync(tx, en.rule, bind, cols, rows)
		return err
	})
	if err != nil {
		kb.asyncM.failed.Inc()
		return false, err
	}
	if consumed {
		kb.asyncM.evaluated.Inc()
		kb.asyncM.evalSeconds.ObserveSince(t0)
	}
	return consumed, nil
}
