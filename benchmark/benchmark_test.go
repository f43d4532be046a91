package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{99, 0.90, false}, {100, 0.90, true}, {199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 0.90}, {250, 0.95}, {5000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(values, n=4) in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 8, 4, 6})
	if !near(q1, 3) || !near(q2, 6) || !near(q3, 9) {
		t.Errorf("quartiles(2,4,6,8,10) = %v %v %v, want 3 6 9", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 2, 8, 4, 6}); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	var samples []sample
	for i := 0; i < 1000; i++ {
		ms := 1.0
		if i >= 400 && i < 500 { // one stalled stretch
			ms = 50
		}
		samples = append(samples, sample{at: int64(i), ms: ms})
	}
	if got := windowed(samples, 0.90, 100); got != 1 {
		t.Errorf("windowed p90 = %v, want 1: the median window is not the stalled one", got)
	}
	// Too few samples for two windows: one window, plain percentile.
	if got := windowed(samples[:150], 0.5, 100); got != 1 {
		t.Errorf("single window p50 = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: noSpan, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 40, End: 90},
		{Name: "leaf", Parent: 2, Start: 50, End: 60},
		{Name: "late", Parent: 2, Start: 85, End: 95}, // clipped to its parent's end
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"root": 20, "a": 30, "b": 35, "leaf": 10, "late": 10} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if d := durations(spans)["b"]; len(d) != 1 || d[0] != 50 {
		t.Errorf("duration of b = %v, want 50", d)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", 1, noSpan)
	r.end(id)
	if id != noSpan {
		t.Errorf("nil recorder handed out span %d", id)
	}
	r = newRecorder()
	root := r.begin("root", 7, noSpan)
	child := r.begin("child", 7, root)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Op != 7 || r.spans[0].End < r.spans[1].End {
		t.Errorf("recorded %+v", r.spans)
	}
}

func TestBudgetSumsToRoot(t *testing.T) {
	spans := []span{
		{Name: spanExecute, Parent: noSpan, Start: 0, End: 1000_000},
		{Name: spanPlanLookup, Parent: 0, Start: 0, End: 10_000},
		{Name: spanBegin, Parent: 0, Start: 10_000, End: 20_000},
		{Name: spanExec, Parent: 0, Start: 20_000, End: 420_000},
		{Name: spanTrigger, Parent: 0, Start: 420_000, End: 620_000},
		{Name: spanCommit, Parent: 0, Start: 620_000, End: 990_000},
		{Name: spanWALAppend, Parent: 5, Start: 630_000, End: 640_000},
		{Name: spanWALFsync, Parent: 5, Start: 700_000, End: 980_000},
		// a read: no commit below its root, so not part of the write budget
		{Name: spanExecute, Parent: noSpan, Start: 2000_000, End: 2100_000},
		{Name: spanExecRead, Parent: 8, Start: 2010_000, End: 2090_000},
	}
	rows, stageSum, root := budget(spans)
	total := 0.0
	for _, r := range budgetRows {
		total += rows[r]
	}
	if !near(total, 1000) || !near(root, 1000) || !near(stageSum, 990) {
		t.Errorf("total %v root %v stage sum %v, want 1000 1000 990", total, root, stageSum)
	}
	if !near(rows["graph"], 10+80) || !near(rows["wal.fsync_wait"], 280) || !near(rows["other"], 10) {
		t.Errorf("rows = %v", rows)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection, 200 operations per second, and the first operation
	// stalls for 50 ms: the operations due meanwhile must be charged the wait
	// (latency from due time), and the generator's lag must report it.
	const n, rate = 20, 200.0
	lat := make([]time.Duration, n)
	lag, elapsed := openLoop(1, n, rate, func(conn, i int, due time.Time) {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		lat[i] = time.Since(due)
	})
	if lat[1] < 40*time.Millisecond {
		t.Errorf("operation 1 was due 5 ms in, sent after the 50 ms stall, but is charged only %v", lat[1])
	}
	if lag[1] < 40 {
		t.Errorf("lag of operation 1 = %.1f ms, want about 45", lag[1])
	}
	if lag[n-1] > 20 {
		t.Errorf("lag of the last operation = %.1f ms: the backlog should have drained", lag[n-1])
	}
	if want := time.Duration(float64(n-1) / rate * float64(time.Second)); elapsed < want {
		t.Errorf("elapsed %v is shorter than the schedule %v", elapsed, want)
	}
}

// streamHash is a fingerprint of a stream: same seed, same hash.
func streamHash(ops []mixOp) uint64 {
	h := uint64(14695981039346656037)
	for _, op := range ops {
		for _, s := range []string{op.st.query, fmt.Sprint(op.st.params)} {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * 1099511628211
			}
		}
	}
	return h
}

func TestStreamsAreSeeded(t *testing.T) {
	p := &prebuilt{sequences: 1000, icu: 200}
	a, b, c := mixStream(7, 500, p), mixStream(7, 500, p), mixStream(8, 500, p)
	if streamHash(a) != streamHash(b) {
		t.Error("same seed, different read-mix stream")
	}
	if streamHash(a) == streamHash(c) {
		t.Error("different seeds, same read-mix stream")
	}
	front := func(seed int64) uint64 {
		g := newFrontGen(seed, 0)
		var ops []mixOp
		for i := 0; i < 500; i++ {
			op := g.next()
			if op.kind != opReadback && op.kind != opIcu {
				g.acked = append(g.acked, op)
			}
			ops = append(ops, mixOp{st: op.st})
		}
		return streamHash(ops)
	}
	if front(7) != front(7) || front(7) == front(8) {
		t.Error("http-ingest stream is not a function of the seed alone")
	}
}

func TestDeckDealsTheExactMix(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(1)), 50, 30, 10, 5, 4, 1)
	counts := make([]int, 6)
	for i := 0; i < 300; i++ {
		counts[d.next()]++
	}
	for kind, want := range []int{150, 90, 30, 15, 12, 3} {
		if counts[kind] != want {
			t.Errorf("kind %d dealt %d times in 300, want %d", kind, counts[kind], want)
		}
	}
}

func TestModelsRestateTheRules(t *testing.T) {
	// http-ingest: R2 alerts once a region holds more than 3 unassigned
	// sequences; R4' needs admissions on the previous day to compare with.
	m := &frontModel{ids: map[string]bool{}}
	for i := 0; i < 5; i++ {
		m.ack(frontOp{kind: opUnassigned, region: 2, st: statement{params: map[string]any{"id": string(rune('a' + i))}}}, 0)
	}
	for i := 0; i < 10; i++ {
		m.ack(frontOp{kind: opIcu, region: 4}, 0)
	}
	for i := 0; i < 3; i++ {
		m.ack(frontOp{kind: opIcu, region: 4}, 1) // 11/10, 12/10, 13/10: growth .09 .17 .23
	}
	m.ack(frontOp{kind: opIcu, region: 5}, 1) // no admissions there the day before
	got := m.alerts()
	for rule, want := range map[string]int{"R2": 2, "R3": 5, "R5": 14, "R4": 2} {
		if got[rule] != want {
			t.Errorf("%s: model says %d, want %d", rule, got[rule], want)
		}
	}
	// lib-ingest-large: the naive rule fires once today exceeds yesterday by
	// more than 10 % of today.
	if growth(11, 10) || !growth(12, 10) || growth(5, 0) {
		t.Error("growth() does not restate the Fig. 9 condition")
	}
}
