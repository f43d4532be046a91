package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/cypher"
	"repro/internal/democovid"
	"repro/internal/periodic"
	"repro/internal/value"
	"repro/internal/wal"
)

// Traced runs of the two HTTP workloads. Each has two stretches: the workload
// over HTTP against the live server (round trips, bytes, tails — the server
// is a separate process, so its layers cannot carry spans yet); then the same
// kind of seeded stream in process against a durable knowledge base set up
// as the server sets its own up, with -fsync always, alternating between the
// staged write path with a span per layer and the product's own untraced
// entry points, against which the stage sum and the tracing overhead are
// reconciled.

const (
	spanRollover = "summary.rollover"
	qWindow      = `MATCH (a:Alert)<-[:has]-(s:Summary)-[:next]->(:Current) RETURN count(a) AS n`
)

// toParams converts request parameters as the server does (reactive.Params).
func toParams(m map[string]any) map[string]value.Value {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]value.Value, len(m))
	for k, v := range m {
		out[k] = value.FromGo(v)
	}
	return out
}

// httpLayers fills the http.* metrics from an HTTP stretch.
func httpLayers(m map[string]float64, c *collector, inProcessUS float64) float64 {
	all := append(msOf(c.lat[classRead]), msOf(c.lat[classWrite])...)
	m["http.roundtrip_us"] = median(all) * 1e3
	overhead := median(msOf(c.lat[classWrite]))*1e3 - inProcessUS
	m["http.overhead_us"] = overhead
	if n := float64(len(all)); n > 0 {
		m["http.req_bytes"] = float64(c.reqBytes) / n
		m["http.resp_bytes"] = float64(c.respBytes) / n
	}
	m["http.read_p90_ms"] = windowed(c.lat[classRead], 0.90, windowP90)
	m["http.write_p90_ms"] = windowed(c.lat[classWrite], 0.90, windowP90)
	return overhead
}

// inProcess is a durable knowledge base configured like rkm-server -demo,
// driven through an executor.
type inProcess struct {
	kb    *core.KnowledgeBase
	cep   *cep.Manager
	clock *periodic.ManualClock
	stg   *staged
	ex    executor
	op    int
}

func openInProcess(dir string, rec *recorder) (*inProcess, *wal.RecoveryInfo, error) {
	kb, cm, info, err := openCovidKB(dir, wal.FsyncAlways)
	if err != nil {
		return nil, nil, err
	}
	p := &inProcess{kb: kb, cep: cm, clock: kb.Clock().(*periodic.ManualClock)}
	p.stg = newStaged(kb, rec)
	p.ex = p.stg
	return p, info, nil
}

// run executes one statement and returns its result.
func (p *inProcess) run(st statement, write bool) (*cypher.Result, error) {
	p.op++
	if write {
		res, _, err := p.ex.execute(p.op, st.query, toParams(st.params))
		return res, err
	}
	return p.ex.query(p.op, st.query, toParams(st.params))
}

// tick is the server's POST /tick: a day passes, the scheduler runs the
// summary rollover, composite windows drain.
func (p *inProcess) tick() error {
	p.op++
	return p.stg.opaque(p.op, spanRollover, func() error {
		p.clock.Advance(24 * time.Hour)
		if err := p.kb.Tick(); err != nil {
			return err
		}
		_, err := p.cep.DrainOnce()
		return err
	})
}

// cell returns column col of a one-row result as a string ("" for null).
func cell(res *cypher.Result, col int) string {
	if len(res.Rows) != 1 || len(res.Rows[0]) <= col {
		return ""
	}
	s, _ := res.Rows[0][col].AsString()
	return s
}

// frontInProcess runs one client's http-ingest stream in process until the
// deadline, in quarters with a tick between them, telling the model.
func frontInProcess(p *inProcess, gen *frontGen, model *frontModel, c *collector, seconds float64, withTicks bool) {
	t0 := time.Now()
	seg := time.Duration(seconds / frontSegments * float64(time.Second))
	for day := 0; day < frontSegments; day++ {
		if day > 0 && withTicks {
			t := time.Now()
			err := p.tick()
			c.observe(classMaint, time.Since(t))
			if err != nil {
				c.fail("tick: %v", err)
			}
		}
		for end := t0.Add(time.Duration(day+1) * seg); time.Now().Before(end); {
			op := gen.next()
			class := classWrite
			if op.kind == opReadback {
				class = classRead
			}
			t := time.Now()
			res, err := p.run(op.st, op.kind != opReadback)
			c.observe(class, time.Since(t))
			switch {
			case err != nil:
				c.fail("%v", err)
			case op.kind == opReadback:
				if got := cell(res, 1); len(res.Rows) != 1 || got != op.variant {
					c.fail("readback %v: %d row(s), variant %q, created with %q", op.st.params["id"], len(res.Rows), got, op.variant)
				}
			case res.Stats.NodesCreated != 1:
				c.fail("create %v: %d node(s) created", op.st.params["id"], res.Stats.NodesCreated)
			default:
				if op.kind != opIcu {
					gen.acked = append(gen.acked, op)
				}
				d := day
				if !withTicks {
					d = 0
				}
				model.ack(op, d)
			}
		}
	}
}

// verifyInProcess compares the in-process knowledge base with the model.
func verifyInProcess(p *inProcess, model *frontModel, baseR1 int, c *collector) {
	alerts, err := p.kb.Alerts()
	if err != nil {
		c.fail("list alerts: %v", err)
		return
	}
	got := make(map[string]int)
	for _, a := range alerts {
		got[a.Rule]++
	}
	want := model.alerts()
	want["R1"] = baseR1
	for _, rule := range []string{"R1", "R2", "R3", "R4", "R5"} {
		c.check(got[rule] == want[rule], "in process: rule %s has %d alert node(s), model says %d", rule, got[rule], want[rule])
	}
	n := p.kb.Store().LabelCount("Sequence")
	c.check(n == model.sequences, "in process: %d sequences, model says %d", n, model.sequences)
}

func traceHTTPIngest(cfg runConfig) (*outcome, error) {
	m := make(map[string]float64)
	microProbes(m, cfg.smoke)
	all := newCollector()

	// Stretch 1: over HTTP.
	r := &frontRun{cfg: cfg}
	defer func() { r.srv.kill() }()
	if err := r.setup(all); err != nil {
		return nil, err
	}
	cH := newCollector()
	t0 := time.Now()
	seg := time.Duration(0.4 * cfg.seconds / frontSegments * float64(time.Second))
	for day := 0; day < frontSegments; day++ {
		if day > 0 {
			r.tick(cH)
		}
		r.segment(cH, day, t0.Add(time.Duration(day+1)*seg))
	}
	r.verify(cH, "before crash")
	m["wal.recover_s"] = r.crashAndRecover(cH)
	if after, err := r.srv.scrape(); err == nil && m["wal.recover_s"] > 0 {
		m["wal.replay_records_per_s"] = after["rkm_wal_recovery_records_replayed"] / m["wal.recover_s"]
	}
	r.srv.kill()

	// Stretch 2: the same stream in process, staged and traced.
	dir := filepath.Join(cfg.work, "http-ingest-inprocess")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rec := newRecorder()
	p, _, err := openInProcess(dir, rec)
	if err != nil {
		return nil, err
	}
	defer p.kb.Close()
	if err := democovid.Seed(p.kb); err != nil {
		return nil, err
	}
	for _, st := range covidBaseStatements() {
		if _, err := p.run(st, true); err != nil {
			return nil, fmt.Errorf("in-process base load: %w", err)
		}
	}
	model := &frontModel{ids: make(map[string]bool), sequences: covidRegions * covidCriticalPerReg}
	baseR1 := p.kb.Store().LabelCount("Alert")
	gen := newFrontGen(cfg.seed, 0)
	frontInProcess(p, gen, model, all, 0.02*cfg.seconds, false) // fills the staged plan cache
	rec.spans = rec.spans[:0]
	delta := startDelta(p.kb)
	alt := newAlternating(p.stg)
	p.ex = alt
	cT := newCollector()
	frontInProcess(p, gen, model, cT, 0.58*cfg.seconds, true)
	writes := len(cT.lat[classWrite])
	delta.finish(m, writes)
	planCacheLayers(m, p.stg)
	var windows []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		if _, err := p.run(statement{qWindow, nil}, false); err != nil {
			cT.fail("summary window: %v", err)
		}
		windows = append(windows, float64(time.Since(t))/1e3)
	}
	m["summary.window_us"] = median(windows)
	verifyInProcess(p, model, baseR1, cT)
	traced := rec.spans

	spanLayers(m, traced)
	m["summary.rollover_us"] = median(durations(traced)[spanRollover]) / 1e3
	m["graph.commit_us_per_knode"] = m["graph.commit_us"] / (m["graph.nodes"] / 1000)
	graphProbes(m, p.kb, "Sequence", "id", value.Str(baseSeqID(3, 0)), cfg.smoke)
	ck := &prebuilt{}
	if err := checkpointTimed(p.kb, dir, ck); err != nil {
		return nil, err
	}
	m["wal.checkpoint_s"] = ck.checkpointS
	m["wal.snapshot_bytes_per_node"] = float64(ck.snapshotBytes) / m["graph.nodes"]
	if err := httpReconcile(cfg, m, traced, cH, alt); err != nil {
		return nil, err
	}
	return layerOutcome(m, cT, all, cH), nil
}

// httpReconcile fills the core.* and http.* metrics, writes the budget table
// and the trace file.
func httpReconcile(cfg runConfig, m map[string]float64, spans []span, overHTTP *collector, alt *alternating) error {
	rows, root := reconcile(m, spans, alt)
	rows["http"] = max(httpLayers(m, overHTTP, root), 0)
	return finishTrace(cfg, rows, "`http` is the median write round trip minus the median in-process write.", spans)
}

// mixInProcess runs the read-mix stream in process, closed loop on one
// goroutine, until the deadline; answers are exact here. kinds records each
// operation's kind by op id, for grouping the spans.
func mixInProcess(p *inProcess, r *mixRun, ops []mixOp, c *collector, deadline time.Time, kinds map[int]mixKind) []mixOp {
	icu := [covidRegions]int{}
	for reg := range icu {
		icu[reg] = r.pre.icuIn(reg) + int(r.icuAcked[reg].Load())
	}
	for len(ops) > 0 && time.Now().Before(deadline) {
		op := ops[0]
		ops = ops[1:]
		class := classRead
		if op.kind.write() {
			class = classWrite
		}
		t := time.Now()
		res, err := p.run(op.st, op.kind.write())
		c.observe(class, time.Since(t))
		kinds[p.op] = op.kind
		if err != nil {
			c.fail("%v", err)
			continue
		}
		switch op.kind {
		case mixPoint, mixExpand2:
			if a, b := cell(res, 0), cell(res, 1); len(res.Rows) != 1 || a != op.want[0] || b != op.want[1] {
				c.fail("%s %v: %d row(s) [%q %q], want [%q %q]", mixKindNames[op.kind], op.st.params["id"], len(res.Rows), a, b, op.want[0], op.want[1])
			}
		case mixAgg, mixCrosshub:
			want := int64(r.pre.critical[op.region])
			if op.kind == mixAgg {
				want = int64(icu[op.region])
			}
			got := int64(-1)
			if len(res.Rows) == 1 {
				got, _ = res.Rows[0][0].AsInt()
			}
			if got != want {
				c.fail("%s %s: %d, want %d", mixKindNames[op.kind], regionName(op.region), got, want)
			}
		default:
			if res.Stats.NodesCreated != 1 {
				c.fail("%s %v: %d node(s) created", mixKindNames[op.kind], op.st.params["id"], res.Stats.NodesCreated)
			} else if op.kind == mixIcuWrite {
				icu[op.region]++
				r.icuAcked[op.region].Add(1)
			}
		}
	}
	return ops
}

func traceHTTPReadmix(cfg runConfig) (*outcome, error) {
	m := make(map[string]float64)
	microProbes(m, cfg.smoke)
	all := newCollector()

	// Stretch 1: over HTTP, the open loop.
	r := &mixRun{cfg: cfg}
	defer func() { r.srv.kill() }()
	if err := r.setup(all); err != nil {
		return nil, err
	}
	m["wal.recover_s"] = r.recover.Seconds()
	m["wal.checkpoint_s"] = r.pre.checkpointS
	m["wal.snapshot_bytes_per_node"] = float64(r.pre.snapshotBytes) / float64(r.pre.nodes)
	cH, lagMS, _ := r.stream(0.4 * cfg.seconds)
	r.verify(cH)
	r.srv.kill()
	m["gen.lag_p99_ms"] = percentile(sortedCopy(lagMS), 0.99)
	m["gen.slo_miss_share"] = float64(cH.sloMiss) / float64(max(cH.ops(), 1))

	// Stretch 2: in process on a second copy of the prebuilt graph, which
	// OpenDurable recovers from its snapshot as the server did.
	dir := filepath.Join(cfg.work, "http-readmix-inprocess")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if _, err := prebuildCovid(dir, r.pre.sequences, r.pre.icu); err != nil {
		return nil, err
	}
	for i := range r.icuAcked {
		r.icuAcked[i].Store(0)
	}
	rec := newRecorder()
	p, _, err := openInProcess(dir, rec)
	if err != nil {
		return nil, err
	}
	defer p.kb.Close()
	ops := mixStream(cfg.seed+2, 200_000, r.pre)
	kinds := make(map[int]mixKind)
	ops = mixInProcess(p, r, ops, all, phaseEnd(cfg, 0.02), kinds) // fills the staged plan cache
	rec.spans = rec.spans[:0]
	delta := startDelta(p.kb)
	alt := newAlternating(p.stg)
	p.ex = alt
	cT := newCollector()
	mixInProcess(p, r, ops, cT, phaseEnd(cfg, 0.58), kinds)
	writes := len(cT.lat[classWrite])
	delta.finish(m, writes)
	planCacheLayers(m, p.stg)
	traced := rec.spans

	spanLayers(m, traced)
	byKind := make(map[mixKind][]float64)
	for _, s := range traced {
		if s.Name == spanExecRead {
			byKind[kinds[s.Op]] = append(byKind[kinds[s.Op]], float64(s.End-s.Start)/1e3)
		}
	}
	for k := mixPoint; k <= mixCrosshub; k++ {
		m["cypher.exec_read_us."+mixKindNames[k]] = median(byKind[k])
	}
	m["graph.commit_us_per_knode"] = m["graph.commit_us"] / (m["graph.nodes"] / 1000)
	graphProbes(m, p.kb, "Sequence", "id", value.Str(seqID(123)), cfg.smoke)
	if err := httpReconcile(cfg, m, traced, cH, alt); err != nil {
		return nil, err
	}
	return layerOutcome(m, cT, all, cH), nil
}
