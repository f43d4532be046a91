package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/periodic"
)

// simStart anchors every simulated clock, as internal/bench does.
var simStart = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

// Operation classes. Latency percentiles are reported for reads and writes;
// maintenance operations (day close, clock tick, drain, retention sweep)
// count as operations and into throughput only.
const (
	classRead  = "read"
	classWrite = "write"
	classMaint = "maint"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	root     string // checkout root (the repository's module)
	server   string // built rkm-server binary
	work     string // scratch directory inside the checkout
	out      string // directory for trace and budget files
}

// scale shrinks a size for -smoke runs.
func (c runConfig) scale(n int) int {
	if c.smoke {
		return max(n/20, 1)
	}
	return n
}

// setupReps is how often set-up is repeated within one run; setup_s is the
// median, so one slow build of the preloaded graph does not decide it. A
// cheap set-up (cheap says the workload) is mostly fsync latency and is
// repeated more often.
func (c runConfig) setupReps(cheap bool) int {
	switch {
	case c.smoke || c.trace:
		return 1
	case cheap:
		return 7
	}
	return 3
}

// collector gathers the samples and the verdicts of one run. One goroutine
// owns a collector; concurrent clients each fill their own and merge.
type collector struct {
	lat       map[string][]sample // class -> latencies
	attempted int
	failed    int
	notes     []string

	// HTTP workloads only: operations past their latency limit, and the
	// bytes sent and received.
	sloMiss             int
	reqBytes, respBytes int
}

// sample is one operation's latency and when it completed.
type sample struct {
	at int64 // completion time, Unix nanoseconds
	ms float64
}

func newCollector() *collector { return &collector{lat: make(map[string][]sample)} }

// observe records one attempted operation of a class and its latency.
func (c *collector) observe(class string, d time.Duration) {
	c.attempted++
	c.lat[class] = append(c.lat[class], sample{time.Now().UnixNano(), float64(d) / 1e6})
}

// Samples a window needs before a percentile of it is reported: the p90
// figure leaves ten samples beyond it, as the tail rule asks.
const (
	windowMax = 5
	windowP50 = 40
	windowP90 = 100
)

// windowed is the percentile the end-to-end metrics report: the run's
// samples are cut, in completion order, into up to windowMax windows of at
// least perWindow samples, the q-quantile is taken in each, and the median
// window is reported. One stalled second of a noisy sandbox then moves one
// window, not the run's figure.
func windowed(samples []sample, q float64, perWindow int) float64 {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	w := min(max(len(sorted)/perWindow, 1), windowMax)
	var qs []float64
	for i := 0; i < w; i++ {
		part := sorted[i*len(sorted)/w : (i+1)*len(sorted)/w]
		ms := make([]float64, len(part))
		for j, s := range part {
			ms[j] = s.ms
		}
		sort.Float64s(ms)
		qs = append(qs, percentile(ms, q))
	}
	return median(qs)
}

// fail counts one failed operation or one failed reference check.
func (c *collector) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one reference check beside the operations, failing it when
// ok is false.
func (c *collector) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *collector) merge(o *collector) {
	for k, v := range o.lat {
		c.lat[k] = append(c.lat[k], v...)
	}
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
	c.sloMiss += o.sloMiss
	c.reqBytes += o.reqBytes
	c.respBytes += o.respBytes
}

// ops is the number of timed operations observed (checks excluded).
func (c *collector) ops() int {
	n := 0
	for _, v := range c.lat {
		n += len(v)
	}
	return n
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int
	failed    int
	notes     []string
	metrics   map[string]float64
	lat       map[string][]sample // the timed section's samples, per class
}

// endToEnd turns a collector and the run's resource readings into the
// end-to-end metric set every workload reports.
func endToEnd(c *collector, elapsed, setupS, heapMB, cpuS float64) *outcome {
	reads, writes := c.lat[classRead], c.lat[classWrite]
	ops := float64(c.ops())
	return &outcome{
		attempted: c.attempted,
		failed:    c.failed,
		notes:     c.notes,
		metrics: map[string]float64{
			"setup_s":       setupS,
			"ops_per_s":     ops / elapsed,
			"read_p50_ms":   windowed(reads, 0.50, windowP50),
			"write_p50_ms":  windowed(writes, 0.50, windowP50),
			"live_heap_mb":  heapMB,
			"cpu_us_per_op": cpuS * 1e6 / ops,
		},
		lat: c.lat,
	}
}

// medianSetup runs setup reps times, tearing the previous attempt down in
// between, and returns the median duration in seconds. The last attempt is
// the one the run measures on.
func medianSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		// Set-up writes files (bulk-load log, snapshot); flush them now so
		// the kernel's write-back does not compete with the timed fsyncs.
		syscall.Sync()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// liveHeapMB is the heap still reachable after a forced collection; the
// second collection frees what pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// newManualKB is an in-memory knowledge base on a manual clock.
func newManualKB() (*core.KnowledgeBase, *periodic.ManualClock) {
	clock := periodic.NewManualClock(simStart)
	return core.New(core.Config{Clock: clock}), clock
}

// newDemoClock starts where rkm-server -demo starts its simulated clock.
func newDemoClock() *periodic.ManualClock {
	return periodic.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))
}

// registryValues is one reading of a metrics registry: counters and gauges
// summed per family, histograms as count and sum.
type registryValues struct{ value, count, sum map[string]float64 }

func readRegistry(reg *metrics.Registry) registryValues {
	r := registryValues{value: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	for _, fam := range reg.Gather() {
		for _, s := range fam.Samples {
			if s.Hist != nil {
				r.count[fam.Name] += float64(s.Hist.Count)
				r.sum[fam.Name] += s.Hist.Sum
			} else {
				r.value[fam.Name] += s.Value
			}
		}
	}
	return r
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
