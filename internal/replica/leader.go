package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Leader serves a durable knowledge base's write-ahead log to followers:
// status, bootstrap snapshots pinned to exact log positions, and the chunked
// record stream. It never blocks the leader's writers — snapshots pin a
// lock-free view, and the stream reads segment files through wal.Cursor,
// which takes no lock during disk I/O. A follower knowledge base can itself
// be a Leader (cascading replication): it re-serves the records it applied.
type Leader struct {
	kb   *core.KnowledgeBase
	opts Options
	m    leaderMetrics
}

// NewLeader wraps kb, which must be durable (the log is the replication
// stream), and registers the leader-side rkm_replica_* instruments on its
// metrics registry.
func NewLeader(kb *core.KnowledgeBase, opts Options) (*Leader, error) {
	if !kb.Durable() {
		return nil, errors.New("replica: leader requires a durable knowledge base")
	}
	ld := &Leader{kb: kb, opts: opts.withDefaults()}
	ld.wireMetrics(kb.Metrics())
	return ld, nil
}

// Register mounts the replication endpoints on mux.
func (ld *Leader) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /wal/status", ld.handleStatus)
	mux.HandleFunc("GET /wal/snapshot", ld.handleSnapshot)
	mux.HandleFunc("GET /wal/stream", ld.handleStream)
}

func (ld *Leader) handleStatus(w http.ResponseWriter, r *http.Request) {
	l := ld.kb.WAL()
	tail, err := l.TailStart()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(HeaderStreamVersion, strconv.Itoa(StreamVersion))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statusDoc{
		Role:       ld.kb.Role(),
		Version:    StreamVersion,
		LastSeq:    l.LastSeq(),
		DurableSeq: l.DurableSeq(),
		TailStart:  tail,
	})
}

// handleSnapshot streams a graph Export pinned to an exact log position. The
// barrier inside ReplicaSnapshotView syncs the log, so a follower loading
// this snapshot can immediately stream from the advertised position.
func (ld *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	view, seq, err := ld.kb.ReplicaSnapshotView()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer view.Rollback()
	w.Header().Set(HeaderStreamVersion, strconv.Itoa(StreamVersion))
	w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", "application/json")
	if err := view.Export(w); err != nil {
		// Headers are gone; the export is torn. The follower's JSON decode
		// fails and it retries.
		log.Printf("replica: snapshot export: %v", err)
		return
	}
	ld.m.snapshotsServed.Inc()
}

// handleStream ships records after ?after=<seq> as an NDJSON chunk stream:
// batches as they become durable, heartbeats while idle, for at most
// StreamWindow per request (the follower reconnects). A position compacted
// away by a checkpoint answers 410 Gone with the tailStart to re-bootstrap
// from — detected on the first read, before the response status is written.
func (ld *Leader) handleStream(w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad after parameter: %v", err), http.StatusBadRequest)
		return
	}
	cur := ld.kb.WAL().Cursor(after)
	defer cur.Close()

	recs, err := cur.Next(ld.opts.BatchSize)
	if err != nil {
		ld.streamError(w, err)
		return
	}
	ld.m.streams.Inc()
	w.Header().Set(HeaderStreamVersion, strconv.Itoa(StreamVersion))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	deadline := time.Now().Add(ld.opts.StreamWindow)
	lastSent := time.Now()
	for {
		now := time.Now()
		if len(recs) > 0 || now.Sub(lastSent) >= ld.opts.HeartbeatInterval {
			if err := enc.Encode(chunk{LeaderSeq: ld.kb.WAL().DurableSeq(), Records: recs}); err != nil {
				return // follower hung up
			}
			if flusher != nil {
				flusher.Flush()
			}
			ld.m.shipped.Add(int64(len(recs)))
			lastSent = now
		}
		if now.After(deadline) {
			return
		}
		if len(recs) == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(ld.opts.PollInterval):
			}
		}
		if recs, err = cur.Next(ld.opts.BatchSize); err != nil {
			// Mid-stream truncation or read error: the status line is sent,
			// so cut the connection; the follower's reconnect gets the 410.
			log.Printf("replica: stream after %d: %v", after, err)
			return
		}
	}
}

// streamError maps a first-read cursor error onto the response status.
func (ld *Leader) streamError(w http.ResponseWriter, err error) {
	var te *wal.TruncatedError
	if errors.As(err, &te) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(gone{Error: te.Error(), TailStart: te.TailStart})
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
