package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// http-readmix: an open loop at one fixed offered rate against a server
// that recovered a prebuilt graph from its snapshot. Reads dominate the
// sample count and run the Cypher executor over a lock-free read view;
// the few writes each commit into the large graph, so a storage change that
// trades commit cost against lookup cost shows on opposite metrics of the
// same run.
const (
	mixSequences = 10_000
	mixIcu       = 2_500
	mixConns     = 2
	// mixRate is the offered rate in operations per second: about 40 % of
	// the closed-loop capacity of two connections, measured once on the
	// commit that added the benchmark (see README.md).
	mixRate = 600.0
	// Zipf exponent of the key popularity: the hot set is small and skewed.
	mixZipfS = 1.1
	// Latency limits from the due time; a miss is reported per layer as
	// gen.slo_miss_share.
	mixReadLimit  = 50 * time.Millisecond
	mixWriteLimit = 250 * time.Millisecond
)

type mixKind int

const (
	mixPoint    mixKind = iota // 50 %: indexed Sequence {id}
	mixExpand2                 // 30 %: Sequence -> Lab -> Region
	mixAgg                     // 10 %: ICU count of one region
	mixCrosshub                //  5 %: R3-shaped 5-hop count of critical sequences in a region
	mixSeqWrite                //  4 %: assigned Sequence create
	mixIcuWrite                //  1 %: ICU admit
	mixKinds
)

var mixKindNames = [mixKinds]string{"point", "expand2", "agg", "crosshub", "seq_write", "icu_write"}

func (k mixKind) write() bool { return k >= mixSeqWrite }

// mixOp is one generated operation with the answer the prebuilt graph
// implies for it.
type mixOp struct {
	kind   mixKind
	st     statement
	region int
	want   [2]string // point: id, variant; expand2: lab, region
}

// mixStream generates the run's whole operation stream from the seed: the
// op count is rate x seconds, so the same seed and length give the same
// stream whichever connection ends up sending which operation.
func mixStream(seed int64, n int, p *prebuilt) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, mixZipfS, 1, uint64(p.sequences-1))
	kinds := newDeck(rng, 50, 30, 10, 5, 4, 1) // in mixKind order
	ops := make([]mixOp, n)
	for i := range ops {
		// Scatter the popularity ranks over the id space so hot keys do not
		// share a lab.
		key := int(zipf.Uint64()*7919) % p.sequences
		site := rng.Intn(covidRegions * covidPerReg)
		op := mixOp{kind: mixKind(kinds.next()), region: site / covidPerReg}
		switch op.kind {
		case mixPoint:
			op.st = statement{qPoint, map[string]any{"id": seqID(key)}}
			op.want[0] = seqID(key)
			if v := p.seqVariant(key); v >= 0 {
				op.want[1] = variantName(v)
			}
		case mixExpand2:
			op.st = statement{qExpand2, map[string]any{"id": seqID(key)}}
			op.want = [2]string{labName(p.seqLab(key)), regionName(p.seqLab(key) / covidPerReg)}
		case mixAgg:
			op.st = statement{qAgg, map[string]any{"r": regionName(op.region)}}
		case mixCrosshub:
			op.st = statement{qCrosshub, map[string]any{"r": regionName(op.region)}}
		case mixSeqWrite:
			// New sequences go to a variant without critical effects, so the
			// crosshub answer stays what the prebuilt graph implies.
			v := variantName(1 + 2*rng.Intn(covidVariants/2))
			op.st = statement{qSeqAssigned, map[string]any{"lab": labName(site), "v": v, "id": fmt.Sprintf("w%d", i)}}
		default:
			op.st = statement{qIcuAdmit, map[string]any{"h": hospitalName(site), "id": fmt.Sprintf("w%d", i)}}
		}
		ops[i] = op
	}
	return ops
}

// mixRun is the state of one http-readmix run.
type mixRun struct {
	cfg     runConfig
	dir     string
	srv     *server
	pre     *prebuilt
	clients [mixConns]*client
	recover time.Duration

	// ICU admissions per region, started and acknowledged: an agg read must
	// see at least what was acknowledged before it was sent and at most
	// what had been started when its reply arrived.
	icuStarted, icuAcked [covidRegions]atomic.Int64
	seqAcked, icuTotal   atomic.Int64
}

func (r *mixRun) setup(c *collector) error {
	r.dir = filepath.Join(r.cfg.work, "http-readmix-data")
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	var err error
	if r.pre, err = prebuildCovid(r.dir, r.cfg.scale(mixSequences), r.cfg.scale(mixIcu)); err != nil {
		return err
	}
	if r.srv, r.recover, err = startServer(r.cfg, r.dir); err != nil {
		return err
	}
	for i := range r.icuStarted {
		r.icuStarted[i].Store(0)
		r.icuAcked[i].Store(0)
	}
	r.seqAcked.Store(0)
	r.icuTotal.Store(0)
	// Warm-up: every statement shape once on each connection.
	warm := mixStream(r.cfg.seed+1, 200, r.pre)
	for i := range r.clients {
		r.clients[i] = newClient(r.srv.base)
		seen := map[mixKind]bool{}
		for j, op := range warm {
			if seen[op.kind] {
				continue
			}
			seen[op.kind] = true
			if op.kind.write() {
				op.st.params["id"] = fmt.Sprintf("warm%d-%d", i, j)
			}
			r.do(c, i, op, time.Now())
		}
	}
	return nil
}

func (r *mixRun) teardown() { r.srv.kill() }

// do sends one operation and checks its reply; latency runs from due.
func (r *mixRun) do(c *collector, conn int, op mixOp, due time.Time) {
	path, class, limit := "/query", classRead, mixReadLimit
	if op.kind.write() {
		path, class, limit = "/execute", classWrite, mixWriteLimit
	}
	var ackedBefore int64
	switch op.kind {
	case mixAgg:
		ackedBefore = r.icuAcked[op.region].Load()
	case mixIcuWrite:
		r.icuStarted[op.region].Add(1)
	}
	rep, err := r.clients[conn].statement(path, op.st)
	lat := time.Since(due)
	c.observe(class, lat)
	if lat > limit || err != nil {
		c.sloMiss++
	}
	if rep != nil {
		c.reqBytes += rep.reqBytes
		c.respBytes += rep.respBytes
	}
	if err != nil {
		c.fail("%v", err)
		return
	}
	switch op.kind {
	case mixPoint, mixExpand2:
		a, _ := rowString(rep, 0)
		b, _ := rowString(rep, 1)
		if len(rep.Rows) != 1 || a != op.want[0] || b != op.want[1] {
			c.fail("%s %v: %d row(s) [%q %q], want [%q %q]", mixKindNames[op.kind], op.st.params["id"], len(rep.Rows), a, b, op.want[0], op.want[1])
		}
	case mixAgg, mixCrosshub:
		got := int64(-1)
		if len(rep.Rows) == 1 {
			if f, ok := rep.Rows[0][0].(float64); ok {
				got = int64(f)
			}
		}
		lo, hi := int64(r.pre.critical[op.region]), int64(r.pre.critical[op.region])
		if op.kind == mixAgg {
			base := int64(r.pre.icuIn(op.region))
			lo, hi = base+ackedBefore, base+r.icuStarted[op.region].Load()
		}
		if got < lo || got > hi {
			c.fail("%s %s: %d, want %d..%d", mixKindNames[op.kind], regionName(op.region), got, lo, hi)
		}
	default:
		if rep.Stats["nodesCreated"] != 1 {
			c.fail("%s %v: %d node(s) created", mixKindNames[op.kind], op.st.params["id"], rep.Stats["nodesCreated"])
			return
		}
		if op.kind == mixIcuWrite {
			r.icuAcked[op.region].Add(1)
			r.icuTotal.Add(1)
		} else {
			r.seqAcked.Add(1)
		}
	}
}

// openLoop sends ops at the fixed rate over the connections: operation i is
// due at t0 + i/rate, whichever connection is free takes the next one, and
// nobody waits for a slow reply before the schedule moves on. It returns the
// per-operation lag (send time minus due time) in milliseconds.
func openLoop(conns int, n int, rate float64, send func(conn, i int, due time.Time)) (lagMS []float64, elapsed time.Duration) {
	lagMS = make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				lagMS[i] = float64(time.Since(due)) / 1e6
				send(conn, i, due)
			}
		}(conn)
	}
	wg.Wait()
	return lagMS, time.Since(t0)
}

// verify checks the totals after the stream.
func (r *mixRun) verify(c *collector) {
	n, err := r.clients[0].count(qCountSequences, nil)
	want := r.pre.sequences + int(r.seqAcked.Load())
	c.check(err == nil && n == want, "%d sequences (%v), expected %d", n, err, want)
	n, err = r.clients[0].count(qCountIcu, nil)
	want = r.pre.icu + int(r.icuTotal.Load())
	c.check(err == nil && n == want, "%d ICU patients (%v), expected %d", n, err, want)
}

// stream runs the timed open loop: rate x seconds operations. It returns
// the merged collector, each operation's generator lag in milliseconds, and
// the time from the first due time to the last reply.
func (r *mixRun) stream(seconds float64) (*collector, []float64, time.Duration) {
	n := int(mixRate * seconds)
	ops := mixStream(r.cfg.seed, n, r.pre)
	cols := [mixConns]*collector{}
	for i := range cols {
		cols[i] = newCollector()
	}
	lagMS, elapsed := openLoop(mixConns, n, mixRate, func(conn, i int, due time.Time) {
		r.do(cols[conn], conn, ops[i], due)
	})
	c := newCollector()
	for i := range cols {
		c.merge(cols[i])
	}
	return c, lagMS, elapsed
}

func runHTTPReadmix(cfg runConfig) (*outcome, error) {
	if err := needServer(cfg); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceHTTPReadmix(cfg)
	}
	r := &mixRun{cfg: cfg}
	defer func() { r.srv.kill() }()
	warm := newCollector()
	setupS, err := medianSetup(cfg.setupReps(false), func() error { return r.setup(warm) }, r.teardown)
	if err != nil {
		return nil, err
	}
	heap, err := r.srv.liveHeapMB()
	if err != nil {
		return nil, err
	}
	cpu0 := r.srv.cpuSeconds()
	c, _, elapsed := r.stream(cfg.seconds)
	cpu := r.srv.cpuSeconds() - cpu0
	r.verify(c)
	c.failed += warm.failed
	c.notes = append(c.notes, warm.notes...)
	return endToEnd(c, elapsed.Seconds(), setupS, heap, cpu), nil
}
