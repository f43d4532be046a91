// Package replica is WAL-shipping read replication: one leader rkm-server
// streams its write-ahead-log record stream over HTTP to any number of
// followers, each of which mirrors the records into its own graph and log
// and serves all snapshot reads locally. Writes stay on the leader; reads
// scale horizontally at bounded staleness (the follower's lag is exported as
// rkm_replica_lag_records / rkm_replica_lag_seconds and can gate /healthz).
//
// The protocol has three leader endpoints (Leader.Register):
//
//   - GET /wal/status — role, protocol version, last/durable sequence
//     numbers and the earliest streamable position (TailStart).
//   - GET /wal/snapshot — a graph Export pinned to an exact log position,
//     carried in the X-Rkm-Snapshot-Seq header: every record at or below it
//     is in the snapshot, every later one is streamable. Followers bootstrap
//     from this.
//   - GET /wal/stream?after=<seq> — a chunked NDJSON stream of records
//     after the given sequence number, in order, each chunk stamped with the
//     leader's durable position so the follower can measure lag. Positions
//     compacted away by a checkpoint answer 410 Gone plus the tailStart to
//     re-bootstrap from.
//
// The Follower ties the loop together: it bootstraps (snapshot into a fresh
// durable directory via wal.SeedSnapshot, or straight into memory), applies
// the tail through core.ApplyReplicated — which mirrors leader sequence
// numbers into the follower's own log, making the follower's wal.LastSeq the
// durable apply cursor — and reconnects with capped backoff and a cooldown
// breaker, resuming exactly where the cursor points after either side
// crashes. At-least-once delivery plus the strictly sequential apply cursor
// yields exactly-once application.
package replica

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/backoff"
	"repro/internal/wal"
)

// StreamVersion is the wire-protocol version; leader and follower must
// match exactly.
const StreamVersion = 1

// Header names of the replication protocol.
const (
	// HeaderSnapshotSeq carries the log position a /wal/snapshot response is
	// pinned to.
	HeaderSnapshotSeq = "X-Rkm-Snapshot-Seq"
	// HeaderStreamVersion carries StreamVersion on every response.
	HeaderStreamVersion = "X-Rkm-Stream-Version"
)

// chunk is one NDJSON line of /wal/stream: a batch of consecutive records
// (empty for heartbeats) plus the leader's durable sequence number at send
// time, the reference point for follower lag.
type chunk struct {
	LeaderSeq uint64        `json:"leaderSeq"`
	Records   []*wal.Record `json:"recs,omitempty"`
}

// statusDoc is the /wal/status response body.
type statusDoc struct {
	Role       string `json:"role"`
	Version    int    `json:"version"`
	LastSeq    uint64 `json:"lastSeq"`
	DurableSeq uint64 `json:"durableSeq"`
	TailStart  uint64 `json:"tailStart"`
}

// gone is the 410 response body of a truncated stream position.
type gone struct {
	Error     string `json:"error"`
	TailStart uint64 `json:"tailStart"`
}

// HTTPError is a leader response with an unexpected status.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("replica: leader returned %d: %s", e.Status, strings.TrimSpace(e.Msg))
}

// TruncatedStreamError reports that the follower's apply cursor precedes the
// leader's retained log tail (a leader checkpoint compacted it away): the
// follower must re-bootstrap from a fresh snapshot. OpenFollower does this
// automatically on startup; mid-run it is terminal for the streaming loop.
type TruncatedStreamError struct {
	// After is the cursor position the follower asked to stream from.
	After uint64
	// TailStart is the earliest position the leader can still serve.
	TailStart uint64
}

func (e *TruncatedStreamError) Error() string {
	return fmt.Sprintf("replica: leader compacted records after %d (tail starts at %d); re-bootstrap required",
		e.After, e.TailStart)
}

// ErrVersionMismatch reports a leader speaking a different protocol version.
var ErrVersionMismatch = errors.New("replica: leader stream version mismatch")

// Options tunes both sides of the replication wire. The zero value gives
// production defaults; tests shrink the timing knobs.
type Options struct {
	// WAL configures the durable follower's local log (fsync policy, segment
	// size). Ignored by in-memory followers and by the leader.
	WAL wal.Options
	// RequestTimeout bounds the point requests (status, snapshot); the
	// stream itself is long-lived and bounded by StreamWindow instead
	// (default 15s).
	RequestTimeout time.Duration
	// BatchSize caps the records per stream chunk (default 256).
	BatchSize int
	// PollInterval is how long the leader's stream handler sleeps when it is
	// caught up with the durable watermark (default 20ms).
	PollInterval time.Duration
	// HeartbeatInterval is how often an idle stream still sends an empty
	// chunk, so the follower keeps an up-to-date lag reference and detects
	// dead connections (default 500ms).
	HeartbeatInterval time.Duration
	// StreamWindow bounds one stream response; the follower transparently
	// reconnects, picking up any retention change (default 30s).
	StreamWindow time.Duration
	// Policy paces the follower's reconnects after a failed connect or
	// stream (BackoffBase, BackoffMax, jittered) and, after BreakerThreshold
	// consecutive failures, makes it stay away for BreakerCooldown.
	backoff.Policy
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Millisecond
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.StreamWindow <= 0 {
		o.StreamWindow = 30 * time.Second
	}
	o.Policy = o.Policy.WithDefaults()
	return o
}
