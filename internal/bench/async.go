package bench

// Async series: what deferring alert evaluation buys the write path.
//
// A paced writer offers single-reading transactions at a fixed rate
// (modeling a request stream) while an expensive alert rule is installed —
// its guard passes on ~9% of writes and its alert query enumerates a
// cartesian pair set over the Ref seed, so each evaluation costs tens of
// thousands of matches. Three modes, same offered load:
//
//   - baseline: no rules installed; the raw write path.
//   - sync:     the rule runs in the Before phase — every passing guard
//     evaluates the alert query inside the writer's transaction, so the
//     write path pays for it and the writer falls behind the offered rate.
//   - async:    the same rule in the AfterAsync phase with the pipeline
//     running — the writer only stages a PendingAlert node; workers
//     evaluate against committed snapshots in the writer's idle slack.
//
// The figure reports achieved throughput (async should hold the offered
// rate alongside baseline while sync collapses), per-write latency, how
// long the pending queue took to drain after the burst, and the alert
// counts, which must match between sync and async: deferral changes when
// alerts appear, not whether.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
)

// AsyncConfig parameterizes the async-pipeline series.
type AsyncConfig struct {
	// Writes is the number of single-reading transactions per mode.
	Writes int
	// Interval is the offered-load pacing: one write is offered every
	// Interval (writes that fall behind run back-to-back to catch up).
	Interval time.Duration
	// RefNodes sizes the cartesian alert query (cost grows quadratically).
	RefNodes int
	// Workers is the async pipeline's worker count.
	Workers int
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.Writes <= 0 {
		c.Writes = 2000
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Microsecond
	}
	if c.RefNodes <= 0 {
		c.RefNodes = 150
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// AsyncPoint is one mode's measurement.
type AsyncPoint struct {
	Mode     string // "baseline", "sync" or "async"
	Writes   int
	Elapsed  time.Duration
	Offered  float64 // offered write rate, tx/sec
	Achieved float64 // achieved write rate, tx/sec
	// RelBaseline is this mode's achieved throughput relative to baseline.
	RelBaseline float64
	// MeanLatency and MaxLatency cover the write call only (the pacing
	// sleep is not part of the write path).
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// Alerts is how many alert nodes the rule materialized (0 for baseline).
	Alerts int
	// Drain is how long the pending queue took to empty after the last
	// write (async mode only; sync work is already done at commit).
	Drain time.Duration
}

// asyncBenchRule is the expensive rule: a rarely-passing guard in front of
// a cartesian alert query over the Ref seed.
func asyncBenchRule(phase trigger.Phase, refs int) trigger.Rule {
	return trigger.Rule{
		Name:  "expensive",
		Hub:   "B",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Reading"},
		Guard: "NEW.v > 90",
		Phase: phase,
		Alert: fmt.Sprintf(`MATCH (a:Ref), (b:Ref)
		        WITH count(b) AS pairs WHERE pairs = %d
		        RETURN pairs`, refs*refs),
	}
}

// RunAsyncPipeline measures the offered-load writer in all three modes.
func RunAsyncPipeline(cfg AsyncConfig) ([]AsyncPoint, error) {
	cfg = cfg.withDefaults()
	var out []AsyncPoint
	var base float64
	for _, mode := range []string{"baseline", "sync", "async"} {
		p, err := runAsyncOnce(cfg, mode)
		if err != nil {
			return nil, err
		}
		if mode == "baseline" {
			base = p.Achieved
		} else if base > 0 {
			p.RelBaseline = p.Achieved / base
		}
		out = append(out, p)
	}
	return out, nil
}

func runAsyncOnce(cfg AsyncConfig, mode string) (AsyncPoint, error) {
	kb := core.New(core.Config{Clock: periodic.NewManualClock(simStart)})
	err := kb.Store().Update(func(tx *graph.Tx) error {
		for i := 0; i < cfg.RefNodes; i++ {
			if _, err := tx.CreateNode([]string{"Ref"}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return AsyncPoint{}, err
	}
	switch mode {
	case "sync":
		err = kb.InstallRule(asyncBenchRule(trigger.Before, cfg.RefNodes))
	case "async":
		if err = kb.InstallRule(asyncBenchRule(trigger.AfterAsync, cfg.RefNodes)); err == nil {
			err = kb.StartAsync(core.AsyncOptions{Workers: cfg.Workers})
		}
	}
	if err != nil {
		return AsyncPoint{}, err
	}

	var totLat, maxLat time.Duration
	t0 := time.Now()
	for i := 0; i < cfg.Writes; i++ {
		// Offered load: write i is due at t0 + i*Interval. A mode that
		// keeps up sleeps here; one that fell behind runs immediately.
		if d := time.Until(t0.Add(time.Duration(i) * cfg.Interval)); d > 0 {
			time.Sleep(d)
		}
		w0 := time.Now()
		if _, err := kb.Execute("CREATE (:Reading {v: $v})",
			map[string]value.Value{"v": value.Int(int64(i % 100))}); err != nil {
			return AsyncPoint{}, err
		}
		lat := time.Since(w0)
		totLat += lat
		if lat > maxLat {
			maxLat = lat
		}
	}
	elapsed := time.Since(t0)

	p := AsyncPoint{
		Mode:        mode,
		Writes:      cfg.Writes,
		Elapsed:     elapsed,
		Offered:     1 / cfg.Interval.Seconds(),
		Achieved:    float64(cfg.Writes) / elapsed.Seconds(),
		MeanLatency: totLat / time.Duration(cfg.Writes),
		MaxLatency:  maxLat,
	}
	if mode == "async" {
		d0 := time.Now()
		if err := kb.WaitAsyncIdle(5 * time.Minute); err != nil {
			return AsyncPoint{}, err
		}
		p.Drain = time.Since(d0)
		kb.StopAsync()
	}
	if mode != "baseline" {
		alerts, err := kb.Alerts()
		if err != nil {
			return AsyncPoint{}, err
		}
		p.Alerts = len(alerts)
	}
	return p, nil
}

// WriteAsync renders the async figure as an aligned text table.
func WriteAsync(w io.Writer, pts []AsyncPoint) {
	fmt.Fprintln(w, "paced writer with an expensive alert rule (sync vs async evaluation)")
	fmt.Fprintf(w, "%-9s  %8s  %10s  %10s  %12s  %10s  %10s  %8s  %10s\n",
		"mode", "writes", "offered/s", "tx/sec", "vs baseline", "mean-lat", "max-lat", "alerts", "drain")
	for _, p := range pts {
		rel, drain := "", ""
		if p.RelBaseline > 0 {
			rel = fmt.Sprintf("%.1f%%", 100*p.RelBaseline)
		}
		if p.Mode == "async" {
			drain = p.Drain.Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-9s  %8d  %10.0f  %10.0f  %12s  %10s  %10s  %8d  %10s\n",
			p.Mode, p.Writes, p.Offered, p.Achieved, rel,
			p.MeanLatency.Round(time.Microsecond), p.MaxLatency.Round(time.Microsecond),
			p.Alerts, drain)
	}
}
