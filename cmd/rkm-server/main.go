// Command rkm-server exposes a reactive knowledge base over HTTP with a
// JSON API, in the spirit of the paper's public CoV2K API.
//
//	rkm-server -addr :8080 -demo
//
// Endpoints:
//
//	POST /query    {"query": "...", "params": {...}}   read-only
//	POST /execute  {"query": "...", "params": {...}}   write + rules fire
//	GET  /alerts                                       alert log
//	GET  /rules                                        installed rules
//	POST /rules    {"name","hub","event","label","guard","alert","action"}
//	               or {"text": "CREATE TRIGGER …"} (PG-Triggers syntax,
//	               single-event or composite)
//	DELETE /rules?name=R9                              drop a rule
//	GET  /hubs                                         hubs and owned labels
//	GET  /stats                                        graph + hub statistics
//	POST /tick     {"hours": 24}                       advance demo clock
//	POST /checkpoint                                   snapshot + compact the WAL
//	GET  /metrics                                      Prometheus text exposition
//	GET  /healthz                                      503 until recovery + seed done, then 200
//
// A JSON request body larger than 4 MiB is refused with 413, and a malformed
// one with 400.
//
// With -fed-name the server joins a federation (see internal/fednet): it
// accepts alert batches from peers and, when -fed-peers lists subscriptions,
// pushes its own alerts to them with at-least-once delivery:
//
//	POST /fed/push                                     receive a batch from a peer
//	GET  /fed/status                                   outbox, breakers, received origins
//	POST /fed/sync                                     push pending alerts to all peers now
//
// A background sync round runs every -fed-sync of wall-clock time, -demo
// included (0 disables it; /fed/sync still works). On a durable server the
// outbox marks live in the graph, so replication resumes where it stopped
// after a restart.
//
// Rules whose phase is afterAsync evaluate their alert queries off the write
// path, on the async pipeline started with -trigger-async-workers (0 makes
// them synchronous again); -trigger-async-queue bounds the durable pending
// queue and -trigger-async-backpressure picks what full means for writers
// (block or shed). Queue depth is the rkm_trigger_async_queue_depth gauge in
// /metrics and the asyncPending field of /stats.
//
// With -pprof the stdlib profiling endpoints are additionally served under
// /debug/pprof/ (heap, CPU profile, goroutines, execution trace). See
// OBSERVABILITY.md for the metric catalog and worked scrape examples.
//
// With -data-dir the knowledge base is durable: committed transactions are
// appended to a write-ahead log under that directory and the pre-crash state
// is recovered on startup. -fsync picks the log's durability/latency
// trade-off. SIGINT/SIGTERM shut the server down gracefully: in-flight
// requests drain, the background loops stop, and a final checkpoint
// compacts the log before exit.
//
// With -hubs the server declares knowledge hubs and enforces their
// ownership of nodes (§III-A): a node created with a label a hub owns must
// carry that hub's name in its hub property, or the write is rejected. Hubs
// own nodes; they do not partition storage — the graph, the write-ahead log
// and every endpoint are the same as without -hubs:
//
//	rkm-server -hubs 'people:Person+Admin,places:City' -data-dir ./data
//
// -demo declares the demo's own four hubs and is incompatible with -hubs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	reactive "repro"
	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/democovid"
	"repro/internal/fednet"
	"repro/internal/replica"
)

type server struct {
	kb    *reactive.KnowledgeBase
	clock *reactive.ManualClock // nil when running on the wall clock
	fed   *fednet.Node          // nil unless -fed-name was given
	// leader serves the /wal replication endpoints of a durable server;
	// follower streams from -replica-of. At most one of the two is set.
	leader   *replica.Leader
	follower *replica.Follower
	// cep runs composite rules' durable partial-match automata; nil on
	// followers, whose partial state replicates from the leader.
	cep *cep.Manager
	// maxLag is the -max-lag staleness bound a follower's /healthz enforces
	// (0 = no bound).
	maxLag time.Duration
	// ready flips to true once recovery and demo seeding have completed;
	// /healthz reports 503 until then — the readiness signal orchestrators
	// and load balancers gate traffic on.
	ready atomic.Bool
}

// options are the command-line settings that shape the serving instance.
type options struct {
	demo     bool
	dataDir  string
	fsync    string
	fedName  string
	fedPeers string
	fedSync  time.Duration

	asyncWorkers int
	asyncQueue   int
	asyncBP      string

	cepDrain time.Duration

	replicaOf string
	maxLag    time.Duration

	hubs string
}

func main() {
	var (
		o         options
		addr      = flag.String("addr", ":8080", "listen address")
		withPprof = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/")
	)
	flag.BoolVar(&o.demo, "demo", false, "load the four-hub COVID-19 demo (uses a simulated clock)")
	flag.StringVar(&o.dataDir, "data-dir", "", "persist the graph under this directory (empty = in-memory)")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy: always, interval or none")
	flag.StringVar(&o.fedName, "fed-name", "", "federation participant name (enables the /fed endpoints)")
	flag.StringVar(&o.fedPeers, "fed-peers", "", "comma-separated peers to push alerts to, as name=baseURL")
	flag.DurationVar(&o.fedSync, "fed-sync", 30*time.Second, "background federation sync period (0 = manual /fed/sync only)")
	flag.IntVar(&o.asyncWorkers, "trigger-async-workers", 2, "async alert pipeline workers (0 = afterAsync rules evaluate synchronously)")
	flag.IntVar(&o.asyncQueue, "trigger-async-queue", 1024, "async pending-queue bound")
	flag.StringVar(&o.asyncBP, "trigger-async-backpressure", "block", "behavior at a full async queue: block or shed")
	flag.DurationVar(&o.cepDrain, "cep-drain", time.Second, "composite-event drain period: how often done/expired partial matches are materialized or evicted (0 = drain only on /tick)")
	flag.StringVar(&o.replicaOf, "replica-of", "", "run as a read replica of the leader at this base URL (writes are rejected)")
	flag.DurationVar(&o.maxLag, "max-lag", 10*time.Second, "replica staleness bound: /healthz degrades to 503 beyond this time lag (0 = no bound)")
	flag.StringVar(&o.hubs, "hubs", "", "hubs whose node ownership is enforced: comma-separated declarations, name:Label1+Label2")
	flag.Parse()

	srv, err := start(o)
	if err != nil {
		log.Fatal(err)
	}
	srv.serve(*addr, *withPprof)
}

// start opens the knowledge base the options describe and brings up
// everything that runs beside the HTTP listener; the returned server is
// ready to serve. Every mode runs the same sequence — open (recovering a
// durable directory), composite events, demo, federation, async pipeline,
// replication leader — except a follower, which only mirrors its leader.
func start(o options) (*server, error) {
	srv := &server{maxLag: o.maxLag}
	cfg := reactive.Config{}
	var hubs []hubDecl
	if o.hubs != "" {
		if o.demo {
			return nil, errors.New("-hubs is incompatible with -demo (the demo declares its own hubs)")
		}
		var err error
		if hubs, err = parseHubs(o.hubs); err != nil {
			return nil, fmt.Errorf("-hubs: %w", err)
		}
	}
	policy, err := reactive.ParseFsyncPolicy(o.fsync)
	if err != nil {
		return nil, fmt.Errorf("-fsync: %w", err)
	}
	wopts := reactive.WALOptions{Fsync: policy}
	if o.demo {
		srv.clock = reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))
		cfg.Clock = srv.clock
	}
	if o.replicaOf != "" {
		// A follower mirrors the leader's record stream verbatim: it cannot
		// seed demo data, join a federation as a distinct participant, or run
		// local rule evaluation — those all write.
		if o.demo || o.fedName != "" {
			return nil, errors.New("-replica-of is incompatible with -demo and -fed-name (followers are read-only)")
		}
		fol, err := replica.OpenFollower(o.dataDir, o.replicaOf, cfg, replica.Options{WAL: wopts})
		if err != nil {
			return nil, fmt.Errorf("replica of %s: %w", o.replicaOf, err)
		}
		srv.kb = fol.KB()
		srv.follower = fol
		if err := declareHubs(srv.kb, hubs); err != nil {
			fol.Close()
			return nil, err
		}
		fol.Start()
		log.Printf("replica: following %s from seq %d (durable=%v, max-lag %v)",
			o.replicaOf, fol.KB().ReplicaAppliedSeq(), o.dataDir != "", o.maxLag)
		srv.ready.Store(true)
		return srv, nil
	}

	recovered := false
	if o.dataDir == "" {
		srv.kb = reactive.New(cfg)
	} else {
		var info *reactive.RecoveryInfo
		if srv.kb, info, err = reactive.OpenDurable(o.dataDir, cfg, wopts); err != nil {
			return nil, fmt.Errorf("open knowledge base: %w", err)
		}
		log.Printf("recovered %s: snapshot seq %d, %d records replayed, last seq %d",
			o.dataDir, info.SnapshotSeq, info.RecordsReplayed, info.LastSeq)
		if info.DiscardedBytes > 0 {
			log.Printf("discarded %d bytes of torn log tail at %s",
				info.DiscardedBytes, info.DiscardedPath)
		}
		recovered = info.LastSeq > 0
	}
	if err := declareHubs(srv.kb, hubs); err != nil {
		srv.kb.Close()
		return nil, err
	}
	// Composite-event rules hook the trigger engine before any demo rules
	// install; Enable also recovers partial-match state left in the graph by
	// a previous run.
	cm, err := cep.Enable(srv.kb, cep.Options{Logf: log.Printf})
	if err != nil {
		return nil, fmt.Errorf("composite events: %w", err)
	}
	srv.cep = cm
	if n := cm.Recovered(); n > 0 {
		log.Printf("composite events: recovered %d open partial match(es)", n)
	}

	if o.demo {
		if err := democovid.Setup(srv.kb); err != nil {
			return nil, fmt.Errorf("demo setup: %w", err)
		}
		// Seed data is regular graph content: after a recovery it is already
		// there (and re-seeding would duplicate it). Setup above is pure
		// configuration (hubs, schema, rules) and always reapplies.
		if !recovered {
			if err := democovid.Seed(srv.kb); err != nil {
				return nil, fmt.Errorf("demo seed: %w", err)
			}
		}
	}

	if o.fedName != "" {
		node, err := fednet.NewNode(o.fedName, srv.kb, fednet.Options{})
		if err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		peers, err := parseFedPeers(o.fedPeers)
		if err != nil {
			return nil, fmt.Errorf("-fed-peers: %w", err)
		}
		for _, p := range peers {
			if err := node.Subscribe(p.name, p.url); err != nil {
				return nil, fmt.Errorf("federation peer %s: %w", p.name, err)
			}
		}
		srv.fed = node
		if o.fedSync > 0 {
			if err := node.Start(o.fedSync); err != nil {
				return nil, fmt.Errorf("federation sync loop: %w", err)
			}
		}
		log.Printf("federation: participating as %q with %d peer(s)", o.fedName, len(peers))
	} else if o.fedPeers != "" {
		return nil, errors.New("-fed-peers requires -fed-name")
	}

	if o.asyncWorkers > 0 {
		bp, err := reactive.ParseBackpressure(o.asyncBP)
		if err != nil {
			return nil, fmt.Errorf("-trigger-async-backpressure: %w", err)
		}
		opts := reactive.AsyncOptions{
			Workers: o.asyncWorkers, QueueLimit: o.asyncQueue, Backpressure: bp,
		}
		if err := srv.kb.StartAsync(opts); err != nil {
			return nil, fmt.Errorf("async pipeline: %w", err)
		}
		if pending := srv.kb.AsyncDepth(); pending > 0 {
			log.Printf("async pipeline: draining %d pending alert(s) recovered from the log", pending)
		}
		log.Printf("async pipeline: %d worker(s), queue %d, %s backpressure",
			o.asyncWorkers, o.asyncQueue, bp)
	}

	if srv.kb.Durable() {
		// Every durable server is a potential replication leader: followers
		// attach with -replica-of pointed at this server's /wal endpoints.
		ld, err := replica.NewLeader(srv.kb, replica.Options{})
		if err != nil {
			return nil, fmt.Errorf("replication leader: %w", err)
		}
		srv.leader = ld
	}

	if o.cepDrain > 0 {
		if err := cm.Start(o.cepDrain); err != nil {
			return nil, fmt.Errorf("composite-event drain loop: %w", err)
		}
	}

	srv.ready.Store(true) // recovery and seeding are done; serving can begin
	return srv, nil
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers. There is no read or write timeout: a /wal/stream response
// legitimately lasts up to the replication StreamWindow.
const readHeaderTimeout = 5 * time.Second

// httpServer builds the HTTP server serve runs: every endpoint, pprof when
// asked for, and the header deadline.
func (s *server) httpServer(addr string, withPprof bool) *http.Server {
	mux := http.NewServeMux()
	s.register(mux)
	if withPprof {
		registerPprof(mux)
	}
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
}

// serve runs the HTTP server, the wall-clock tick driver and the graceful
// shutdown sequence; leader and follower processes share it.
func (s *server) serve(addr string, withPprof bool) {
	hs := s.httpServer(addr, withPprof)

	// On the wall clock a driver ticks the knowledge base every second, so
	// the Essential Summary rolls over; a failed check is logged and the
	// next due one retries. With -demo the clock is manual and /tick
	// advances it instead.
	var ticker *core.Driver
	if s.clock == nil {
		ticker = core.Drive(time.Second, func() {
			if err := s.kb.Tick(); err != nil {
				log.Printf("summary rollover check: %v", err)
			}
		})
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	log.Printf("rkm-server listening on %s (role=%s, durable=%v)",
		addr, s.kb.Role(), s.kb.Durable())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("%s received, shutting down", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	ticker.Stop()
	s.stop()
}

// stop halts what start brought up and leaves a durable directory compacted.
func (s *server) stop() {
	// Stop the replication stream before the final checkpoint so no apply
	// batch races the log compaction; the durable apply cursor resumes the
	// stream on the next start.
	if s.follower != nil {
		s.follower.Stop()
	}
	// Stop the composite-event drain loop before the final checkpoint so no
	// completion transaction races the log compaction; open partial matches
	// stay in the graph and recover on the next start.
	if s.cep != nil {
		s.cep.Stop()
	}
	// Likewise the federation sync loop: its outbox-mark writes must not
	// race the compaction; the marks resume the sync on the next start.
	if s.fed != nil {
		s.fed.Stop()
	}
	// Stop the async workers before the final checkpoint so no follow-up
	// transaction races the log compaction; unprocessed pending entries stay
	// in the graph and drain on the next start.
	s.kb.StopAsync()
	if s.kb.Durable() {
		if err := s.kb.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := s.kb.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}
}

func (s *server) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /execute", s.handleExecute)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /rules", s.handleRulesList)
	mux.HandleFunc("POST /rules", s.handleRuleInstall)
	mux.HandleFunc("DELETE /rules", s.handleRuleDrop)
	mux.HandleFunc("GET /hubs", s.handleHubs)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /tick", s.handleTick)
	mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /rules/apoc", s.handleRulesAPOC)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.fed != nil {
		s.fed.Register(mux) // POST /fed/push, GET /fed/status
		mux.HandleFunc("POST /fed/sync", s.handleFedSync)
	}
	if s.leader != nil {
		s.leader.Register(mux) // GET /wal/status, /wal/snapshot, /wal/stream
	}
}

// hubDecl is one parsed -hubs entry: a hub and the node labels it owns.
type hubDecl struct {
	Hub    string
	Labels []string
}

// parseHubs parses the -hubs declaration list: comma-separated
// "name:Label1+Label2" entries.
func parseHubs(s string) ([]hubDecl, error) {
	var out []hubDecl
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, labels, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad hub %q (want name:Label1+Label2)", part)
		}
		hd := hubDecl{Hub: name}
		for _, l := range strings.Split(labels, "+") {
			if l = strings.TrimSpace(l); l != "" {
				hd.Labels = append(hd.Labels, l)
			}
		}
		if len(hd.Labels) == 0 {
			return nil, fmt.Errorf("hub %q owns no labels (want name:Label1+Label2)", name)
		}
		out = append(out, hd)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no hubs declared")
	}
	return out, nil
}

// declareHubs defines the parsed -hubs on kb and, if there are any, turns
// on ownership enforcement: an owned label must carry its hub.
func declareHubs(kb *reactive.KnowledgeBase, hubs []hubDecl) error {
	for _, h := range hubs {
		if err := kb.DefineHub(h.Hub, "hub "+h.Hub, h.Labels...); err != nil {
			return fmt.Errorf("-hubs: %w", err)
		}
	}
	if len(hubs) > 0 {
		kb.EnforceHubOwnership()
		log.Printf("hubs: %d declared, ownership enforced", len(hubs))
	}
	return nil
}

// fedPeer is one parsed -fed-peers entry.
type fedPeer struct{ name, url string }

// parseFedPeers parses "name=baseURL,name=baseURL" (empty input = no peers,
// which is a pure receiver).
func parseFedPeers(s string) ([]fedPeer, error) {
	var out []fedPeer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q (want name=baseURL)", part)
		}
		out = append(out, fedPeer{name: name, url: url})
	}
	return out, nil
}

// handleFedSync pushes every pending alert to every peer right now, on top
// of whatever -fed-sync schedules. A partial failure still reports how many
// alerts were delivered; the rest stay in the outbox for the next round.
func (s *server) handleFedSync(w http.ResponseWriter, r *http.Request) {
	delivered, err := s.fed.SyncAll(r.Context())
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"delivered": delivered, "error": err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"delivered": delivered})
}

// registerPprof exposes the stdlib profiling handlers; pprof.Index serves
// the profile directory and the name-addressed profiles (heap, goroutine,
// block, mutex), the rest need dedicated routes.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

type statementRequest struct {
	Query  string         `json:"query"`
	Params map[string]any `json:"params"`
}

type resultResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]any        `json:"rows"`
	Stats   map[string]int `json:"stats,omitempty"`
	Rules   map[string]int `json:"rules,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds every JSON request body. The largest body the
// benchmark sends, its 80-row base load, is a few KB.
const maxBodyBytes = 4 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes. An
// empty body leaves v as it is. On failure it answers the request itself —
// 413 for an oversized body, 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// decodeStatement decodes a /query or /execute body, answering the request
// itself and returning false when it is unusable.
func decodeStatement(w http.ResponseWriter, r *http.Request) (statementRequest, bool) {
	var req statementRequest
	if !decodeBody(w, r, &req) {
		return req, false
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return req, false
	}
	return req, true
}

func toResponse(res *reactive.Result) resultResponse {
	out := resultResponse{Columns: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, row := range res.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			cells[j] = jsonValue(v)
		}
		out.Rows[i] = cells
	}
	st := res.Stats
	if st != (reactive.Result{}).Stats {
		out.Stats = map[string]int{
			"nodesCreated": st.NodesCreated, "nodesDeleted": st.NodesDeleted,
			"relsCreated": st.RelsCreated, "relsDeleted": st.RelsDeleted,
			"propsSet": st.PropsSet, "labelsAdded": st.LabelsAdded,
			"labelsRemoved": st.LabelsRemoved,
		}
	}
	return out
}

// jsonValue converts a graph value into a JSON-encodable form.
func jsonValue(v reactive.Value) any {
	x := v.Go()
	if t, ok := x.(time.Time); ok {
		return t.Format(time.RFC3339Nano)
	}
	if d, ok := x.(time.Duration); ok {
		return d.String()
	}
	return x
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeStatement(w, r)
	if !ok {
		return
	}
	res, err := s.kb.Query(req.Query, reactive.Params(req.Params))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
}

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeStatement(w, r)
	if !ok {
		return
	}
	res, rep, err := s.kb.ExecuteReport(req.Query, reactive.Params(req.Params))
	if err != nil {
		if errors.Is(err, reactive.ErrFollowerWrite) {
			writeErr(w, http.StatusForbidden, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := toResponse(res)
	if rep != nil {
		out.Rules = map[string]int{
			"guardChecks": rep.GuardChecks, "guardPasses": rep.GuardPasses,
			"alertRuns": rep.AlertRuns, "alertNodes": rep.AlertNodes,
			"rounds": rep.Rounds,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	alerts, err := s.kb.Alerts()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	type alertJSON struct {
		ID       int64          `json:"id"`
		Rule     string         `json:"rule"`
		Hub      string         `json:"hub"`
		DateTime string         `json:"dateTime"`
		Props    map[string]any `json:"props"`
	}
	out := make([]alertJSON, 0, len(alerts))
	for _, a := range alerts {
		props := make(map[string]any, len(a.Props))
		for k, v := range a.Props {
			props[k] = jsonValue(v)
		}
		out = append(out, alertJSON{
			ID: int64(a.ID), Rule: a.Rule, Hub: a.Hub,
			DateTime: a.DateTime.Format(time.RFC3339Nano), Props: props,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleRulesList(w http.ResponseWriter, r *http.Request) {
	type ruleJSON struct {
		Name      string `json:"name"`
		Hub       string `json:"hub"`
		Event     string `json:"event"`
		Phase     string `json:"phase"`
		Guard     string `json:"guard,omitempty"`
		Alert     string `json:"alert,omitempty"`
		Action    string `json:"action,omitempty"`
		Paused    bool   `json:"paused"`
		Scope     string `json:"scope,omitempty"`
		State     string `json:"state,omitempty"`
		Composite bool   `json:"composite,omitempty"`
		Text      string `json:"text,omitempty"`
	}
	var out []ruleJSON
	for _, info := range s.kb.Rules() {
		rj := ruleJSON{
			Name: info.Name, Hub: info.Hub, Event: info.Event.String(),
			Phase: info.Phase.String(),
			Guard: info.Guard, Alert: info.Alert, Action: info.Action,
			Paused: info.Paused,
			Scope:  info.Classification.Scope.String(),
			State:  info.Classification.State.String(),
			Text:   info.Text(),
		}
		if info.Composite != nil {
			rj.Event, rj.Composite = info.Op.String(), true
		}
		out = append(out, rj)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleRuleInstall(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name    string `json:"name"`
		Hub     string `json:"hub"`
		Event   string `json:"event"`
		Label   string `json:"label"`
		PropKey string `json:"propKey"`
		Phase   string `json:"phase"`
		Guard   string `json:"guard"`
		Alert   string `json:"alert"`
		Action  string `json:"action"`
		// Text carries a whole CREATE TRIGGER declaration instead of the
		// structured fields.
		Text string `json:"text"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Text != "" {
		rule, err := s.kb.InstallRuleText(req.Text)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		out := map[string]any{"installed": rule.Name}
		if rule.Composite != nil {
			out["composite"] = true
		}
		writeJSON(w, http.StatusCreated, out)
		return
	}
	kind, ok := reactive.ParseEventKind(req.Event)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown event %q", req.Event))
		return
	}
	phase, err := reactive.ParsePhase(req.Phase)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rule := reactive.Rule{
		Name:   req.Name,
		Hub:    req.Hub,
		Event:  reactive.Event{Kind: kind, Label: req.Label, PropKey: req.PropKey},
		Phase:  phase,
		Guard:  req.Guard,
		Alert:  req.Alert,
		Action: req.Action,
	}
	if err := s.kb.InstallRule(rule); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"installed": req.Name})
}

func (s *server) handleRuleDrop(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?name="))
		return
	}
	if err := s.kb.DropRule(name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

// handleRulesAPOC exports the rule set as Neo4j APOC trigger calls
// (Fig. 6/7 translation).
func (s *server) handleRulesAPOC(w http.ResponseWriter, r *http.Request) {
	exp := s.kb.TranslateRulesAPOC("neo4j", "before")
	writeJSON(w, http.StatusOK, map[string]any{
		"triggers":         exp.Triggers,
		"skipped":          exp.Skipped,
		"composite":        exp.Composite,
		"compositeSkipped": exp.CompositeSkipped,
	})
}

func (s *server) handleHubs(w http.ResponseWriter, r *http.Request) {
	type hubJSON struct {
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Labels      []string `json:"labels"`
	}
	var out []hubJSON
	reg := s.kb.Hubs()
	for _, h := range reg.Hubs() {
		out = append(out, hubJSON{Name: h.Name, Description: h.Description,
			Labels: reg.OwnedLabels(h.Name)})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStats reports graph totals, the hub partitioning, and the queue and
// plan-cache counters — the same keys with or without -hubs.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	g := s.kb.GraphStats()
	hs, err := s.kb.HubStats()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	pc := s.kb.PlanCacheStats()
	ratio := 0.0
	if total := pc.Hits + pc.Misses; total > 0 {
		ratio = float64(pc.Hits) / float64(total)
	}
	out := map[string]any{
		"nodes":         g.Nodes,
		"relationships": g.Relationships,
		"labels":        g.Labels,
		"relTypes":      g.RelTypes,
		"indexes":       g.Indexes,
		"nodesPerHub":   hs.NodesPerHub,
		"unassigned":    hs.Unassigned,
		"intraHubEdges": hs.IntraEdges,
		"interHubEdges": hs.InterEdges,
		"asyncPending":  s.kb.AsyncDepth(),
		"time":          s.kb.Now().Format(time.RFC3339),
		"role":          s.kb.Role(),
		"planCache": map[string]any{
			"size":      pc.Size,
			"hits":      pc.Hits,
			"misses":    pc.Misses,
			"evictions": pc.Evictions,
			"hitRatio":  ratio,
		},
	}
	if s.cep != nil {
		out["cepPartials"] = s.cep.Depth()
		composites := 0
		for _, info := range s.kb.Rules() {
			if info.Composite != nil {
				composites++
			}
		}
		out["cepRules"] = composites
	}
	if s.follower != nil {
		out["replica"] = s.follower.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the Prometheus text exposition of every registered
// metric (see OBSERVABILITY.md for the catalog).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.kb.Metrics().WritePrometheus(w); err != nil {
		log.Printf("metrics: %v", err)
	}
}

// handleHealthz is the readiness probe: 503 until recovery and seeding have
// completed, then 200 — except on a follower whose replication lag exceeds
// the -max-lag bound, which degrades back to 503 so load balancers route
// reads to fresher replicas (the bounded-staleness contract).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting", "role": s.kb.Role(),
		})
		return
	}
	out := map[string]any{"status": "ok", "role": s.kb.Role()}
	if s.follower != nil {
		recs, secs := s.follower.Lag()
		out["lagRecords"] = recs
		out["lagSeconds"] = secs
		if s.maxLag > 0 && secs > s.maxLag.Seconds() {
			out["status"] = "lagging"
			out["maxLagSeconds"] = s.maxLag.Seconds()
			writeJSON(w, http.StatusServiceUnavailable, out)
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCheckpoint snapshots the graph, compacts the log and replies with
// the log position the snapshot covers.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.kb.Durable() {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("checkpoint requires -data-dir (durable mode)"))
		return
	}
	if err := s.kb.Checkpoint(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true, "lastSeq": s.kb.WAL().LastSeq()})
}

// maxTickHours caps one /tick at a leap year, which keeps the advance far
// from overflowing time.Duration. The request runs at most one summary
// rollover check, however long the advance.
const maxTickHours = 366 * 24

func (s *server) handleTick(w http.ResponseWriter, r *http.Request) {
	if s.clock == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("tick requires -demo (simulated clock)"))
		return
	}
	var req struct {
		Hours int `json:"hours"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Hours == 0 {
		req.Hours = 24
	}
	if req.Hours < 0 || req.Hours > maxTickHours {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("tick hours must be between 1 and %d, got %d", maxTickHours, req.Hours))
		return
	}
	s.clock.Advance(time.Duration(req.Hours) * time.Hour)
	if err := s.kb.Tick(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if s.cep != nil {
		// Advancing the simulated clock may expire composite windows; drain
		// now so absences fire without waiting for the background loop.
		if _, err := s.cep.DrainOnce(); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"time": s.kb.Now().Format(time.RFC3339)})
}
