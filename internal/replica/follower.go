package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/wal"
)

// Follower streams a leader's write-ahead log into a local follower
// knowledge base and keeps it within bounded staleness. Construct with
// OpenFollower (which bootstraps or resumes), then Start the streaming loop;
// the wrapped KB serves reads the whole time.
type Follower struct {
	kb        *core.KnowledgeBase
	leaderURL string
	opts      Options
	m         followerMetrics

	// leaderSeq is the leader's durable position as of the last received
	// chunk; leaderSeq - ReplicaAppliedSeq is the record lag.
	leaderSeq atomic.Uint64
	// caughtUp is the wall time (UnixNano) the follower was last fully
	// caught up with leaderSeq; the time lag reads from it.
	caughtUp atomic.Int64

	mu    sync.Mutex
	state string // "streaming", "stopped", "failed", "bootstrap-required"

	startOnce sync.Once
	stopOnce  sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

// FollowerStatus is a point-in-time view of the replication loop.
type FollowerStatus struct {
	LeaderURL  string  `json:"leaderUrl"`
	State      string  `json:"state"`
	AppliedSeq uint64  `json:"appliedSeq"`
	LeaderSeq  uint64  `json:"leaderSeq"`
	LagRecords uint64  `json:"lagRecords"`
	LagSeconds float64 `json:"lagSeconds"`
}

// OpenFollower builds a follower of the leader at leaderURL.
//
// With dataDir == "" the follower is in-memory: it always bootstraps from a
// fresh leader snapshot (the leader must be reachable). With a dataDir the
// follower is durable: an empty directory is seeded from a leader snapshot;
// a directory with state simply reopens and resumes from its own recovered
// apply cursor — unless that cursor has fallen behind the leader's retained
// tail (the leader checkpointed past it), in which case the local state is
// discarded and re-seeded from a fresh snapshot.
//
// OpenFollower only prepares the knowledge base; call Start to begin
// streaming, and Close when done.
func OpenFollower(dataDir, leaderURL string, cfg core.Config, opts Options) (*Follower, error) {
	opts = opts.withDefaults()
	f := &Follower{
		leaderURL: trimURL(leaderURL),
		opts:      opts,
		state:     "stopped",
		done:      make(chan struct{}),
	}

	if dataDir == "" {
		st, err := f.fetchStatus(context.Background())
		if err != nil {
			return nil, fmt.Errorf("replica: leader status: %w", err)
		}
		if st.Version != StreamVersion {
			return nil, fmt.Errorf("%w: leader speaks v%d, follower v%d", ErrVersionMismatch, st.Version, StreamVersion)
		}
		kb := core.NewFollower(cfg)
		snap, seq, err := f.fetchSnapshot(context.Background())
		if err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
		if err := kb.BootstrapReplica(bytes.NewReader(snap), seq); err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
		f.kb = kb
		f.wireMetrics()
		f.m.bootstraps.Inc()
		f.caughtUp.Store(time.Now().UnixNano())
		return f, nil
	}

	has, err := wal.HasState(dataDir)
	if err != nil {
		return nil, err
	}
	st, serr := f.fetchStatus(context.Background())
	if serr == nil && st.Version != StreamVersion {
		return nil, fmt.Errorf("%w: leader speaks v%d, follower v%d", ErrVersionMismatch, st.Version, StreamVersion)
	}
	bootstrapped := false
	if !has {
		// Fresh directory: seed it with a leader snapshot so recovery below
		// starts from the snapshot instead of replaying from zero.
		if serr != nil {
			return nil, fmt.Errorf("replica: bootstrap needs the leader: %w", serr)
		}
		snap, seq, err := f.fetchSnapshot(context.Background())
		if err != nil {
			return nil, fmt.Errorf("replica: bootstrap: %w", err)
		}
		if err := wal.SeedSnapshot(dataDir, seq, snap); err != nil {
			return nil, err
		}
		bootstrapped = true
	}
	kb, _, err := core.OpenFollowerDurable(dataDir, cfg, opts.WAL)
	if err != nil {
		return nil, err
	}
	if serr == nil && kb.ReplicaAppliedSeq() < st.TailStart {
		// The leader compacted past our cursor while we were down. Local
		// state is unrecoverable for streaming; start over from a snapshot.
		log.Printf("replica: cursor %d behind leader tail %d; re-bootstrapping", kb.ReplicaAppliedSeq(), st.TailStart)
		if err := kb.Close(); err != nil {
			return nil, err
		}
		if err := wal.RemoveState(dataDir); err != nil {
			return nil, err
		}
		snap, seq, err := f.fetchSnapshot(context.Background())
		if err != nil {
			return nil, fmt.Errorf("replica: re-bootstrap: %w", err)
		}
		if err := wal.SeedSnapshot(dataDir, seq, snap); err != nil {
			return nil, err
		}
		if kb, _, err = core.OpenFollowerDurable(dataDir, cfg, opts.WAL); err != nil {
			return nil, err
		}
		bootstrapped = true
	}
	f.kb = kb
	f.wireMetrics()
	if bootstrapped {
		f.m.bootstraps.Inc()
	}
	f.caughtUp.Store(time.Now().UnixNano())
	return f, nil
}

func trimURL(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// KB returns the follower knowledge base (reads only; writes fail with
// core.ErrFollower).
func (f *Follower) KB() *core.KnowledgeBase { return f.kb }

// Start launches the streaming loop. Safe to call once; returns immediately.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		f.cancel = cancel
		f.setState("streaming")
		go f.run(ctx)
	})
}

// Stop halts the streaming loop and waits for it to exit. The knowledge base
// stays open and keeps serving (increasingly stale) reads. Idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		if f.cancel != nil {
			f.cancel()
			<-f.done
		} else {
			close(f.done) // never started
		}
		f.setState("stopped")
	})
}

// Close stops the streaming loop and closes the knowledge base.
func (f *Follower) Close() error {
	f.Stop()
	return f.kb.Close()
}

func (f *Follower) setState(s string) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

// State reports the streaming loop's state: "streaming", "stopped", "failed"
// (in-memory divergence; restart the process), or "bootstrap-required" (the
// leader compacted past our cursor mid-run; restart re-bootstraps).
func (f *Follower) State() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// Lag returns how far the follower trails the leader. Records is the
// leader's durable position (as of the last received chunk) minus the apply
// cursor. Seconds is the time since the follower last confirmed it was fully
// caught up — heartbeats refresh it about every HeartbeatInterval while the
// stream is healthy, and it keeps growing while the leader is unreachable,
// which makes it the staleness bound -max-lag gates /healthz on: a follower
// cut off from its leader cannot know the record lag, but it always knows
// how old its view is.
func (f *Follower) Lag() (records uint64, seconds float64) {
	applied := f.kb.ReplicaAppliedSeq()
	leader := f.leaderSeq.Load()
	if leader > applied {
		records = leader - applied
	}
	seconds = time.Since(time.Unix(0, f.caughtUp.Load())).Seconds()
	if seconds < 0 {
		seconds = 0
	}
	return records, seconds
}

// Status returns a point-in-time view for /stats and diagnostics.
func (f *Follower) Status() FollowerStatus {
	recs, secs := f.Lag()
	return FollowerStatus{
		LeaderURL:  f.leaderURL,
		State:      f.State(),
		AppliedSeq: f.kb.ReplicaAppliedSeq(),
		LeaderSeq:  f.leaderSeq.Load(),
		LagRecords: recs,
		LagSeconds: secs,
	}
}

// run is the reconnect loop: stream until the window closes or an error
// drops the connection, back off on consecutive failures (cooling down after
// BreakerThreshold of them), stop for good on terminal conditions.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	jitter := backoff.NewJitter(f.opts.Policy, 0)
	failures := 0
	for {
		if ctx.Err() != nil {
			return
		}
		err := f.streamOnce(ctx)
		switch {
		case err == nil:
			failures = 0
			continue
		case ctx.Err() != nil:
			return
		case errors.Is(err, core.ErrReplicaDiverged):
			// The local log is ahead of the in-memory graph; applying more
			// would compound the damage. A process restart recovers cleanly.
			log.Printf("replica: %v", err)
			f.setState("failed")
			return
		}
		var te *TruncatedStreamError
		if errors.As(err, &te) {
			log.Printf("replica: %v", te)
			f.setState("bootstrap-required")
			return
		}
		failures++
		f.m.streamErrors.Inc()
		log.Printf("replica: stream attempt failed (%v), retrying", err)
		delay := jitter.Delay(failures)
		if failures >= f.opts.BreakerThreshold {
			delay = f.opts.BreakerCooldown
			failures = 0
		}
		if backoff.Sleep(ctx, delay) != nil {
			return
		}
	}
}

// streamOnce opens one stream request at the current apply cursor and
// applies chunks until the leader closes the window (nil) or the connection
// errors. A 410 maps to *TruncatedStreamError.
func (f *Follower) streamOnce(ctx context.Context) error {
	after := f.kb.ReplicaAppliedSeq()
	url := fmt.Sprintf("%s/wal/stream?after=%d", f.leaderURL, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		var g gone
		if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
			return &TruncatedStreamError{After: after}
		}
		return &TruncatedStreamError{After: after, TailStart: g.TailStart}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &HTTPError{Status: resp.StatusCode, Msg: string(msg)}
	}
	if v := resp.Header.Get(HeaderStreamVersion); v != "" && v != strconv.Itoa(StreamVersion) {
		return fmt.Errorf("%w: leader speaks v%s", ErrVersionMismatch, v)
	}
	f.m.connects.Inc()

	dec := json.NewDecoder(resp.Body)
	for {
		var ch chunk
		if err := dec.Decode(&ch); err != nil {
			if err == io.EOF {
				return nil // window closed; reconnect
			}
			return err
		}
		if ch.LeaderSeq > f.leaderSeq.Load() {
			f.leaderSeq.Store(ch.LeaderSeq)
		}
		if len(ch.Records) > 0 {
			// Drop any prefix a reconnect redelivered; apply is exactly-once.
			applied := f.kb.ReplicaAppliedSeq()
			recs := ch.Records
			for len(recs) > 0 && recs[0].Seq <= applied {
				recs = recs[1:]
			}
			if len(recs) > 0 {
				t0 := time.Now()
				err := f.kb.ApplyReplicated(recs)
				f.m.applySeconds.ObserveSince(t0)
				if err != nil {
					return err
				}
				f.m.applied.Add(int64(len(recs)))
				f.m.batches.Inc()
			}
		}
		if f.kb.ReplicaAppliedSeq() >= f.leaderSeq.Load() {
			f.caughtUp.Store(time.Now().UnixNano())
		}
	}
}

// fetchStatus asks the leader for its stream status.
func (f *Follower) fetchStatus(ctx context.Context) (*statusDoc, error) {
	ctx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leaderURL+"/wal/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &HTTPError{Status: resp.StatusCode, Msg: string(msg)}
	}
	var st statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchSnapshot downloads a bootstrap snapshot and the log position it
// covers.
func (f *Follower) fetchSnapshot(ctx context.Context) ([]byte, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leaderURL+"/wal/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, &HTTPError{Status: resp.StatusCode, Msg: string(msg)}
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad %s header: %w", HeaderSnapshotSeq, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, seq, nil
}
