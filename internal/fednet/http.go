package fednet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
)

// maxPushBody bounds a push request body (1 MiB is hundreds of alerts; a
// sender's batches are far smaller).
const maxPushBody = 1 << 20

// Register mounts the receiver endpoints on mux:
//
//	POST /fed/push    apply a batch of alerts from a peer (idempotent)
//	GET  /fed/status  this node's outbox, breakers and received origins
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /fed/push", n.handlePush)
	mux.HandleFunc("GET /fed/status", n.handleStatus)
}

// Handler returns a mux with just the federation endpoints, for embedding
// the receiver into tests or auxiliary listeners.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	n.Register(mux)
	return mux
}

func fedWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func fedWriteErr(w http.ResponseWriter, status int, err error) {
	fedWriteJSON(w, status, map[string]string{"error": err.Error()})
}

// handlePush applies one pushed batch. The response is only sent after the
// batch committed, so an acknowledged batch is durable on a durable
// receiver; a response lost on the wire just means the sender redelivers
// and every alert lands in Duplicates.
func (n *Node) handlePush(w http.ResponseWriter, r *http.Request) {
	var req PushRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxPushBody)).Decode(&req); err != nil {
		fedWriteErr(w, http.StatusBadRequest, fmt.Errorf("bad push body: %w", err))
		return
	}
	if req.Version != wireVersion {
		fedWriteErr(w, http.StatusBadRequest,
			fmt.Errorf("wire version %d not supported (want %d)", req.Version, wireVersion))
		return
	}
	if req.Origin == "" {
		fedWriteErr(w, http.StatusBadRequest, fmt.Errorf("missing origin"))
		return
	}
	if req.Origin == n.name {
		fedWriteErr(w, http.StatusBadRequest, fmt.Errorf("push from my own origin %q", n.name))
		return
	}
	alerts := make([]core.Alert, len(req.Alerts))
	var acked int64
	for i, wa := range req.Alerts {
		a, err := fromWire(wa)
		if err != nil {
			fedWriteErr(w, http.StatusBadRequest, err)
			return
		}
		alerts[i] = a
		if wa.OriginID > acked {
			acked = wa.OriginID
		}
	}
	applied, dups, err := applyRemoteAlerts(n.kb, req.Origin, alerts)
	if err != nil {
		fedWriteErr(w, http.StatusInternalServerError, err)
		return
	}
	n.nm.applied.With(req.Origin).Add(int64(applied))
	n.nm.duplicates.With(req.Origin).Add(int64(dups))
	fedWriteJSON(w, http.StatusOK, PushResponse{Applied: applied, Duplicates: dups, Acked: acked})
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := n.Status()
	if err != nil {
		fedWriteErr(w, http.StatusInternalServerError, err)
		return
	}
	fedWriteJSON(w, http.StatusOK, st)
}
