package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// http-ingest: the product's front door. Two closed-loop clients POST
// statements to a durable rkm-server (-fsync always) that starts empty and
// grows for the whole run, so HTTP/JSON, plan-cache lookup, rules, commit
// and WAL append + fsync all sit on the blocking path of every operation.
const (
	frontClients  = 2
	frontSegments = 4 // the demo clock advances a day between segments

	// Operation mix, in percent of the stream.
	frontPctAssigned   = 63 // Sequence on a variant: guard NEW.variant IS NULL rejects
	frontPctUnassigned = 14 // unassigned Sequence: R2 and R3 run their inter-hub alert queries
	frontPctIcu        = 13 // IcuPatient: R5 and R4' alert, Alert nodes attach to the Summary
	frontPctReadback   = 10 // reads back a sequence the same client created
)

type frontKind int

const (
	opAssigned frontKind = iota
	opUnassigned
	opIcu
	opReadback
)

// frontOp is one generated operation.
type frontOp struct {
	kind    frontKind
	st      statement
	region  int
	variant string // readback: the variant the sequence was created with ("" = none)
}

// frontGen is one client's seeded operation stream. The server sees only
// the statements it yields.
type frontGen struct {
	client int
	rng    *rand.Rand
	kinds  *deck
	n      int
	acked  []frontOp // sequences this client created, for readbacks
}

func newFrontGen(seed int64, client int) *frontGen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &frontGen{client: client, rng: rng,
		kinds: newDeck(rng, frontPctAssigned, frontPctUnassigned, frontPctIcu, frontPctReadback)}
}

func (g *frontGen) next() frontOp {
	g.n++
	kind := frontKind(g.kinds.next())
	if kind == opReadback && len(g.acked) == 0 {
		kind = opIcu
	}
	id := fmt.Sprintf("c%d-%d", g.client, g.n)
	site := g.rng.Intn(covidRegions * covidPerReg)
	switch kind {
	case opAssigned:
		v := variantName(g.rng.Intn(covidVariants))
		return frontOp{kind: opAssigned, region: site / covidPerReg, variant: v,
			st: statement{qSeqAssigned, map[string]any{"lab": labName(site), "v": v, "id": id}}}
	case opUnassigned:
		return frontOp{kind: opUnassigned, region: site / covidPerReg,
			st: statement{qSeqUnassigned, map[string]any{"lab": labName(site), "id": id}}}
	case opIcu:
		return frontOp{kind: opIcu, region: site / covidPerReg,
			st: statement{qIcuAdmit, map[string]any{"h": hospitalName(site), "id": id}}}
	default:
		prev := g.acked[g.rng.Intn(len(g.acked))]
		return frontOp{kind: opReadback, variant: prev.variant,
			st: statement{qPoint, map[string]any{"id": prev.st.params["id"]}}}
	}
}

// frontModel is the reference for the rule outcomes. Every count it holds
// is independent of the order in which the two clients' operations commit.
type frontModel struct {
	sequences  int
	icu        int
	unassigned [covidRegions]int
	// icuByDay[d][r] counts the admissions acknowledged in segment d.
	icuByDay [frontSegments][covidRegions]int
	ids      map[string]bool // every acknowledged sequence id
}

func (m *frontModel) ack(op frontOp, day int) {
	switch op.kind {
	case opAssigned, opUnassigned:
		m.sequences++
		m.ids[op.st.params["id"].(string)] = true
		if op.kind == opUnassigned {
			m.unassigned[op.region]++
		}
	case opIcu:
		m.icu++
		m.icuByDay[day][op.region]++
	}
}

// alerts derives the alert nodes per rule the acknowledged operations must
// have produced, on top of the R1 alerts of the base load.
func (m *frontModel) alerts() map[string]int {
	out := map[string]int{"R5": m.icu}
	for r := 0; r < covidRegions; r++ {
		out["R3"] += m.unassigned[r]           // every region holds > 3 critical sequences
		out["R2"] += max(m.unassigned[r]-3, 0) // R2 alerts once a region holds > 3 unassigned
		total := 0
		for d := 0; d < frontSegments; d++ {
			n := m.icuByDay[d][r]
			// R4' compares with the highest R5 count of the previous
			// summary: the region's total at the end of the previous day,
			// if that day admitted anyone there at all.
			if d > 0 && m.icuByDay[d-1][r] > 0 {
				for today := total + 1; today <= total+n; today++ {
					if float64(today-total)/float64(today) > 0.1 {
						out["R4"]++
					}
				}
			}
			total += n
		}
	}
	return out
}

// frontRun is the state of one http-ingest run.
type frontRun struct {
	cfg     runConfig
	dir     string
	srv     *server
	gens    [frontClients]*frontGen
	clients [frontClients]*client
	model   *frontModel
	baseR1  int
}

func (r *frontRun) setup(c *collector) error {
	r.dir = filepath.Join(r.cfg.work, "http-ingest-data")
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	var err error
	if r.srv, _, err = startServer(r.cfg, r.dir); err != nil {
		return err
	}
	r.model = &frontModel{ids: make(map[string]bool)}
	for i := range r.clients {
		r.clients[i] = newClient(r.srv.base)
		r.gens[i] = newFrontGen(r.cfg.seed, i)
	}
	for _, st := range covidBaseStatements() {
		if _, err := r.clients[0].statement("/execute", st); err != nil {
			return fmt.Errorf("base load: %w", err)
		}
	}
	for reg := 0; reg < covidRegions; reg++ {
		for i := 0; i < covidCriticalPerReg; i++ {
			r.model.sequences++
			r.model.ids[baseSeqID(reg, i)] = true
		}
	}
	counts, err := r.clients[0].alertCounts()
	if err != nil {
		return err
	}
	r.baseR1 = counts["R1"]
	// Warm-up: both connections, every statement shape at least once.
	for i := range r.clients {
		for seen := map[frontKind]bool{}; len(seen) < 4; {
			op := r.gens[i].next()
			seen[op.kind] = true
			if r.do(c, i, op) {
				r.model.ack(op, 0)
			}
		}
	}
	return nil
}

func (r *frontRun) teardown() { r.srv.kill() }

// do sends one operation, times it and checks the reply; it reports whether
// the operation was acknowledged.
func (r *frontRun) do(c *collector, client int, op frontOp) bool {
	path, class := "/execute", classWrite
	if op.kind == opReadback {
		path, class = "/query", classRead
	}
	t0 := time.Now()
	rep, err := r.clients[client].statement(path, op.st)
	c.observe(class, time.Since(t0))
	if rep != nil {
		c.reqBytes += rep.reqBytes
		c.respBytes += rep.respBytes
	}
	if err != nil {
		c.fail("%v", err)
		return false
	}
	if op.kind == opReadback {
		got, _ := rowString(rep, 1)
		if len(rep.Rows) != 1 || got != op.variant {
			c.fail("readback %v: %d row(s), variant %q, created with %q", op.st.params["id"], len(rep.Rows), got, op.variant)
			return false
		}
		return true
	}
	if rep.Stats["nodesCreated"] != 1 {
		c.fail("create %v: %d node(s) created", op.st.params["id"], rep.Stats["nodesCreated"])
		return false
	}
	if op.kind != opIcu {
		r.gens[client].acked = append(r.gens[client].acked, op)
	}
	return true
}

// rowString returns column col of a one-row reply as a string ("" for null).
func rowString(rep *reply, col int) (string, bool) {
	if len(rep.Rows) != 1 || len(rep.Rows[0]) <= col {
		return "", false
	}
	s, ok := rep.Rows[0][col].(string)
	return s, ok
}

// segment runs both clients closed-loop until the deadline. Each client
// owns its collector and its slice of acknowledged operations.
func (r *frontRun) segment(c *collector, day int, deadline time.Time) {
	var wg sync.WaitGroup
	cols := make([]*collector, frontClients)
	acks := make([][]frontOp, frontClients)
	for i := 0; i < frontClients; i++ {
		cols[i] = newCollector()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := r.gens[i].next()
				if r.do(cols[i], i, op) {
					acks[i] = append(acks[i], op)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range cols {
		c.merge(cols[i])
		for _, op := range acks[i] {
			r.model.ack(op, day)
		}
	}
}

// tick advances the demo clock by a day: the Essential Summary rolls over,
// so the next day's ICU admissions run the multi-state R4' path.
func (r *frontRun) tick(c *collector) {
	t0 := time.Now()
	_, err := r.clients[0].post("/tick", map[string]any{"hours": 24})
	c.observe(classMaint, time.Since(t0))
	if err != nil {
		c.fail("%v", err)
	}
}

// verify compares the server's state with the model.
func (r *frontRun) verify(c *collector, when string) {
	cl := r.clients[0]
	n, err := cl.count(qCountSequences, nil)
	c.check(err == nil && n == r.model.sequences, "%s: %d sequences (%v), model says %d", when, n, err, r.model.sequences)
	n, err = cl.count(qCountIcu, nil)
	c.check(err == nil && n == r.model.icu, "%s: %d ICU patients (%v), model says %d", when, n, err, r.model.icu)
	got, err := cl.alertCounts()
	if err != nil {
		c.fail("%s: list alerts: %v", when, err)
		return
	}
	want := r.model.alerts()
	want["R1"] = r.baseR1
	for _, rule := range []string{"R1", "R2", "R3", "R4", "R5"} {
		c.check(got[rule] == want[rule], "%s: rule %s has %d alert node(s), model says %d", when, rule, got[rule], want[rule])
	}
}

// crashAndRecover is kill -9, a restart on the same directory, and the check
// that every acknowledged create is still there. The kill keeps the
// operating system's page cache, so this is the weak form of the durability
// check: it catches writes acknowledged before they were handed to the
// kernel, not writes the kernel had not flushed.
func (r *frontRun) crashAndRecover(c *collector) (recoverS float64) {
	r.srv.kill()
	srv, took, err := startServer(r.cfg, r.dir)
	if err != nil {
		c.fail("restart after kill -9: %v", err)
		return 0
	}
	r.srv = srv
	for i := range r.clients {
		r.clients[i] = newClient(srv.base)
	}
	r.verify(c, "after recovery")
	rep, err := r.clients[0].statement("/query", statement{qAllSequenceIDs, nil})
	if err != nil {
		c.fail("after recovery: list sequence ids: %v", err)
		return took.Seconds()
	}
	present := make(map[string]bool, len(rep.Rows))
	for _, row := range rep.Rows {
		if s, ok := row[0].(string); ok {
			present[s] = true
		}
	}
	missing := 0
	for id := range r.model.ids {
		if !present[id] {
			missing++
		}
	}
	c.attempted += len(r.model.ids)
	for i := 0; i < missing; i++ {
		c.fail("after recovery: an acknowledged sequence is missing")
	}
	return took.Seconds()
}

func runHTTPIngest(cfg runConfig) (*outcome, error) {
	if err := needServer(cfg); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceHTTPIngest(cfg)
	}
	r := &frontRun{cfg: cfg}
	defer func() { r.srv.kill() }()
	warm := newCollector()
	setupS, err := medianSetup(cfg.setupReps(true), func() error { return r.setup(warm) }, r.teardown)
	if err != nil {
		return nil, err
	}
	heap, err := r.srv.liveHeapMB()
	if err != nil {
		return nil, err
	}
	c := newCollector()
	cpu0, t0 := r.srv.cpuSeconds(), time.Now()
	seg := time.Duration(cfg.seconds / frontSegments * float64(time.Second))
	for day := 0; day < frontSegments; day++ {
		if day > 0 {
			r.tick(c)
		}
		r.segment(c, day, t0.Add(time.Duration(day+1)*seg))
	}
	elapsed, cpu := time.Since(t0).Seconds(), r.srv.cpuSeconds()-cpu0
	r.verify(c, "before crash")
	r.crashAndRecover(c)
	c.failed += warm.failed
	c.notes = append(c.notes, warm.notes...)
	return endToEnd(c, elapsed, setupS, heap, cpu), nil
}
