// Package fednet is the federation transport: it moves alert nodes between
// knowledge bases over HTTP with at-least-once delivery — the federated
// deployment the paper's §V projects (each knowledge hub on its own
// infrastructure, alerts as the cross-hub currency).
//
// A Node wraps one KnowledgeBase and plays both sides of the protocol:
//
//   - Sender: Subscribe registers a peer URL; SyncAll (or the background
//     loop Start runs) pushes every not-yet-acknowledged alert to each peer
//     in ascending-id batches via POST /fed/push. The acknowledged mark is a
//     durable outbox node in the sender's own graph (see OutboxLabel), so
//     replication state survives crashes through the existing write-ahead
//     log and snapshot machinery — a restarted sender resumes from the last
//     acknowledged batch, never from zero.
//   - Receiver: Handler (or Register) mounts POST /fed/push and GET
//     /fed/status. Each pushed alert becomes a RemoteAlert node, and apply is
//     idempotent by (origin, originId), so redelivered batches count as
//     duplicates instead of materializing twice. At-least-once delivery plus
//     idempotent apply yields exactly-once materialization.
//
// The wire path is defensive: requests carry timeouts, failed pushes retry
// with capped exponential backoff and jitter, and a per-peer circuit breaker
// fails fast while a peer is down, probing it again after a cooldown.
// Delivery metrics are registered on the knowledge base's registry (see
// OBSERVABILITY.md).
package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
)

// pushBatchSize is the maximum number of alerts per push request.
const pushBatchSize = 256

// Errors reported by a node.
var (
	ErrPeerExists      = errors.New("fednet: peer already subscribed")
	ErrPeerUnavailable = errors.New("fednet: circuit open")
)

// HTTPError is a push rejected by the peer with a non-2xx status. 5xx
// statuses are retryable (the peer may heal), 4xx are not (the request
// itself is wrong).
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("fednet: peer returned %d: %s", e.Status, strings.TrimSpace(e.Msg))
}

// retryable reports whether a failed push attempt is worth repeating.
func retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status >= 500
	}
	return true // network errors and timeouts
}

// Options tunes a node's wire behaviour. The zero value gives production
// defaults; tests shrink the timing knobs.
type Options struct {
	// RequestTimeout bounds each push HTTP request (default 5s).
	RequestTimeout time.Duration
	// MaxAttempts is the per-batch attempt budget, first try included
	// (default 4).
	MaxAttempts int
	// Policy paces retries of a failed push (BackoffBase, BackoffMax) and
	// sizes each peer's circuit breaker (BreakerThreshold, BreakerCooldown).
	backoff.Policy
	// Now overrides the breaker clock for deterministic tests (default
	// time.Now).
	Now func() time.Time
	// Seed fixes the jitter source for reproducible tests (0 = time-based).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	o.Policy = o.Policy.WithDefaults()
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// peerLink is one outgoing subscription: a peer's address, the rule filter,
// the durable outbox node and the in-memory copy of its acknowledged mark,
// and the peer's circuit breaker.
type peerLink struct {
	name    string
	baseURL string
	rules   map[string]bool // empty = all rules
	outbox  graph.NodeID
	breaker *backoff.Breaker

	mu    sync.Mutex
	acked graph.NodeID
}

func (p *peerLink) mark() graph.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

func (p *peerLink) setMark(id graph.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id > p.acked {
		p.acked = id
	}
}

// Node is one federation participant on the network: the sender and
// receiver half of the wire protocol around a single KnowledgeBase. All
// methods are safe for concurrent use.
type Node struct {
	name   string
	kb     *core.KnowledgeBase
	opts   Options
	jitter *backoff.Jitter

	mu    sync.Mutex
	peers map[string]*peerLink

	// syncMu serializes SyncAll so overlapping sync rounds (background loop
	// plus a manual /fed/sync) cannot push the same pending batch twice.
	syncMu sync.Mutex

	driver atomic.Pointer[core.Driver] // the background sync loop; nil unless started

	nm nodeMetrics
}

// NewNode wraps kb as federation participant name. It ensures the
// (RemoteAlert, originId) duplicate-check index and registers the fed_*
// instruments on the knowledge base's metrics registry.
func NewNode(name string, kb *core.KnowledgeBase, opts Options) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("fednet: node name must not be empty")
	}
	opts = opts.withDefaults()
	if err := ensureRemoteAlertIndex(kb); err != nil {
		return nil, err
	}
	n := &Node{
		name:   name,
		kb:     kb,
		opts:   opts,
		jitter: backoff.NewJitter(opts.Policy, opts.Seed),
		peers:  make(map[string]*peerLink),
	}
	n.wireMetrics(kb.Metrics())
	return n, nil
}

// Name returns the node's participant name (the origin its pushes carry).
func (n *Node) Name() string { return n.name }

// KB returns the wrapped knowledge base.
func (n *Node) KB() *core.KnowledgeBase { return n.kb }

// Subscribe registers an outgoing subscription: this node's alerts (all of
// them, or only the named rules') replicate to the peer at baseURL. The
// durable outbox state for the peer is loaded if an earlier process life
// left one, so a restart resumes instead of re-sending history.
func (n *Node) Subscribe(peer, baseURL string, rules ...string) error {
	if peer == "" || peer == n.name {
		return fmt.Errorf("fednet: bad peer name %q", peer)
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fednet: bad peer URL %q", baseURL)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.peers[peer]; dup {
		return fmt.Errorf("%w: %s", ErrPeerExists, peer)
	}
	node, acked, err := loadOrCreateOutbox(n.kb, peer)
	if err != nil {
		return fmt.Errorf("fednet: outbox for %s: %w", peer, err)
	}
	p := &peerLink{
		name:    peer,
		baseURL: strings.TrimSuffix(baseURL, "/"),
		rules:   make(map[string]bool),
		outbox:  node,
		acked:   acked,
		breaker: backoff.NewBreaker(n.opts.BreakerThreshold, n.opts.BreakerCooldown, n.opts.Now),
	}
	for _, r := range rules {
		p.rules[r] = true
	}
	n.peers[peer] = p
	return nil
}

// peerList snapshots the peers sorted by name.
func (n *Node) peerList() []*peerLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*peerLink, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SyncAll pushes every pending alert to every peer and returns the number
// of alerts delivered (acknowledged by a peer, duplicates included). A
// failing peer does not block the others; the first error is returned after
// all peers were attempted, and undelivered alerts simply stay pending —
// the outbox mark only advances past acknowledged batches.
func (n *Node) SyncAll(ctx context.Context) (int, error) {
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	total := 0
	var firstErr error
	for _, p := range n.peerList() {
		sent, err := n.syncPeer(ctx, p)
		total += sent
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fednet: %s→%s: %w", n.name, p.name, err)
		}
	}
	n.updateDepth()
	return total, firstErr
}

// syncPeer delivers one peer's pending alerts in batches, advancing the
// durable mark after each acknowledged batch so a crash between batches
// re-sends at most one batch (which the receiver deduplicates).
func (n *Node) syncPeer(ctx context.Context, p *peerLink) (int, error) {
	acked := p.mark()
	fresh, maxScanned, err := alertCursor(n.kb, acked, p.rules)
	if err != nil {
		return 0, err
	}
	if len(fresh) == 0 {
		// Nothing to send, but filtered-out alerts still advance the mark
		// so they are not rescanned forever.
		if maxScanned > acked {
			if err := n.persistMark(p, maxScanned); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	sent := 0
	for start := 0; start < len(fresh); start += pushBatchSize {
		end := start + pushBatchSize
		if end > len(fresh) {
			end = len(fresh)
		}
		chunk := fresh[start:end]
		if !p.breaker.Allow() {
			return sent, fmt.Errorf("%w: %s", ErrPeerUnavailable, p.name)
		}
		if _, err := n.pushBatch(ctx, p, chunk); err != nil {
			return sent, err
		}
		sent += len(chunk)
		mark := chunk[len(chunk)-1].ID
		if end == len(fresh) {
			mark = maxScanned // cover trailing filtered-out alerts too
		}
		if err := n.persistMark(p, mark); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// persistMark durably advances the peer's outbox node, then the in-memory
// copy of its acknowledged mark.
func (n *Node) persistMark(p *peerLink, mark graph.NodeID) error {
	err := n.kb.Bookkeeping(OutboxLabel).Update(func(tx *graph.Tx) error {
		return tx.SetNodeProp(p.outbox, outboxAckedProp, value.Int(int64(mark)))
	})
	if err != nil {
		return fmt.Errorf("persist mark: %w", err)
	}
	p.setMark(mark)
	return nil
}

// pushBatch sends one batch with bounded retries: capped exponential
// backoff with jitter between attempts, breaker bookkeeping around each.
func (n *Node) pushBatch(ctx context.Context, p *peerLink, chunk []core.Alert) (*PushResponse, error) {
	req := PushRequest{Version: wireVersion, Origin: n.name, Alerts: make([]WireAlert, len(chunk))}
	for i, a := range chunk {
		req.Alerts[i] = toWire(a)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode batch: %w", err)
	}
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		resp, err := n.doPush(ctx, p, body)
		n.nm.pushSeconds.ObserveSince(t0)
		if err == nil {
			p.breaker.Success()
			n.nm.push.With(p.name).Inc()
			return resp, nil
		}
		p.breaker.Failure()
		n.nm.pushErrors.With(p.name).Inc()
		if attempt >= n.opts.MaxAttempts || !retryable(err) {
			return nil, err
		}
		if !p.breaker.Allow() {
			return nil, fmt.Errorf("%w: %s (after %v)", ErrPeerUnavailable, p.name, err)
		}
		n.nm.retries.With(p.name).Inc()
		log.Printf("fednet: %s→%s: attempt %d failed (%v), retrying", n.name, p.name, attempt, err)
		if err := backoff.Sleep(ctx, n.jitter.Delay(attempt)); err != nil {
			return nil, err
		}
	}
}

// doPush performs one push HTTP request under the configured timeout.
func (n *Node) doPush(ctx context.Context, p *peerLink, body []byte) (*PushResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, n.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.baseURL+"/fed/push", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &HTTPError{Status: resp.StatusCode, Msg: string(msg)}
	}
	var out PushResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode ack: %w", err)
	}
	return &out, nil
}

// Start launches the background sync loop: a core.Driver running SyncAll
// every interval of wall-clock time. Push failures are logged and retried on
// the next pass, so a down peer never stops the loop. Returns an error if
// the interval is not positive or the loop is already running.
func (n *Node) Start(every time.Duration) error {
	if every <= 0 {
		return errors.New("fednet: sync interval must be positive")
	}
	d := core.Drive(every, func() {
		if _, err := n.SyncAll(context.Background()); err != nil {
			log.Printf("fednet: background sync: %v", err)
		}
	})
	if !n.driver.CompareAndSwap(nil, d) {
		d.Stop()
		return errors.New("fednet: sync loop already running")
	}
	return nil
}

// Stop halts the background sync loop, finishing any in-flight pass. No-op
// if it is not running.
func (n *Node) Stop() { n.driver.Swap(nil).Stop() }

// pendingFor counts the alerts not yet acknowledged by p.
func (n *Node) pendingFor(p *peerLink) int {
	fresh, _, _ := alertCursor(n.kb, p.mark(), p.rules)
	return len(fresh)
}

// Status reports the node's identity, its outbox per peer and the remote
// alerts it has received, grouped by origin.
func (n *Node) Status() (Status, error) {
	counts, err := remoteCounts(n.kb)
	if err != nil {
		return Status{}, err
	}
	st := Status{Name: n.name, Peers: []PeerStatus{}, RemoteAlerts: counts}
	for _, p := range n.peerList() {
		st.Peers = append(st.Peers, PeerStatus{
			Peer:    p.name,
			URL:     p.baseURL,
			Acked:   int64(p.mark()),
			Pending: n.pendingFor(p),
			Breaker: p.breaker.Current().String(),
		})
	}
	return st, nil
}

// remoteCounts tallies RemoteAlert nodes by origin.
func remoteCounts(kb *core.KnowledgeBase) (map[string]int, error) {
	alerts, err := RemoteAlerts(kb)
	counts := make(map[string]int)
	for _, a := range alerts {
		origin, _ := a.Props[OriginProp].AsString()
		counts[origin]++
	}
	return counts, err
}

// KBInfo is the federation-relevant state visible in a knowledge graph
// without a running node: what was received, and the persisted outbox marks
// of what was sent. rkm-shell's :fed prints it.
type KBInfo struct {
	// RemoteByOrigin counts RemoteAlert nodes per origin participant.
	RemoteByOrigin map[string]int
	// OutboxMarks maps peer name to the persisted acknowledged alert id.
	OutboxMarks map[string]int64
}

// Inspect summarizes a knowledge base's federation state from the graph
// alone.
func Inspect(kb *core.KnowledgeBase) (KBInfo, error) {
	counts, err := remoteCounts(kb)
	if err != nil {
		return KBInfo{}, err
	}
	info := KBInfo{RemoteByOrigin: counts, OutboxMarks: make(map[string]int64)}
	for peer, box := range outboxMarks(kb) {
		info.OutboxMarks[peer] = int64(box.acked)
	}
	return info, nil
}
