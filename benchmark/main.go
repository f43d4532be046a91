// Command benchmark is the repository's benchmark spine: four seeded
// workloads over rkm-server and the in-process knowledge base, end-to-end
// metrics with tracing off, per-layer metrics from a traced run, and a
// correctness gate in the same command. BENCHMARK.json at the repository
// root is the contract; README.md in this directory explains every workload
// and metric.
//
// The driver's form runs one workload in one mode and prints one JSON line:
//
//	bash benchmark/run.sh --workload lib-ingest-large --seed 7 --seconds 10 --trace 0
//
// Without --workload every workload runs in both modes and a table is
// printed; --sets N repeats that N times, alternating the order, and checks
// the sets against each other within BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is the part of BENCHMARK.json the benchmark itself reads, so
// names, units and bounds are written down once.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"http-ingest":      runHTTPIngest,
	"http-readmix":     runHTTPReadmix,
	"lib-ingest-large": runLibIngest,
	"lib-rules-fanout": runLibFanout,
}

// resultLine is the one JSON object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in one mode and shapes its metrics to the
// contract: exactly the declared names, each with its declared unit.
func runOne(cfg runConfig, ct *contract) (*outcome, *resultLine, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	out, err := fn(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := ct.EndToEnd
	if cfg.trace {
		defs = ct.PerLayer
	}
	line := &resultLine{
		Correct:   out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	for name := range out.metrics {
		if _, declared := line.Metrics[name]; !declared {
			return nil, nil, fmt.Errorf("%s reports %q, which BENCHMARK.json does not declare", cfg.workload, name)
		}
	}
	for _, n := range out.notes {
		logf("  FAILED: %s", n)
	}
	return out, line, nil
}

func main() {
	var cfg runConfig
	var trace int
	var sets int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, both modes)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed section (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "sizes and seconds divided by 20: a quick end-to-end check of the benchmark itself")
	flag.IntVar(&sets, "sets", 0, "repeatability harness: run every workload this many times and compare the sets")
	flag.StringVar(&cfg.root, "root", "..", "checkout root")
	flag.StringVar(&cfg.server, "server", "", "built rkm-server binary (run.sh builds and passes it)")
	flag.StringVar(&cfg.work, "work", "", "scratch directory inside the checkout")
	flag.Parse()
	cfg.trace = trace != 0

	if err := run(cfg, sets); err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, sets int) error {
	ct, err := loadContract(cfg.root)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(ct.RunSeconds)
	}
	if cfg.smoke {
		cfg.seconds /= 20
	}
	cfg.out = filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build", "work")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	if sets > 0 {
		return runSets(cfg, ct, sets)
	}
	if cfg.workload == "" {
		_, err := runAll(cfg, ct, true, false)
		return err
	}
	_, line, err := runOne(cfg, ct)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// runAll runs every workload with tracing off and, when withTrace is set,
// traced as well; it prints one table per run, writes budget.md after traced
// runs, and returns the end-to-end values per workload. reverse flips the
// workload order (the sets harness alternates it).
func runAll(cfg runConfig, ct *contract, withTrace, reverse bool) (map[string]map[string]float64, error) {
	var names []string
	for _, w := range ct.Workloads {
		names = append(names, w.Name)
	}
	order := append([]string(nil), names...)
	if reverse {
		sort.Sort(sort.Reverse(sort.StringSlice(order)))
	}
	modes := []bool{false}
	if withTrace {
		modes = append(modes, true)
	}
	e2e := make(map[string]map[string]float64)
	failed := 0
	for _, name := range order {
		cfg.workload = name
		for _, traced := range modes {
			cfg.trace = traced
			out, line, err := runOne(cfg, ct)
			if err != nil {
				return nil, err
			}
			failed += line.Failed
			defs, mode := ct.EndToEnd, "end-to-end, tracing off"
			if traced {
				defs, mode = ct.PerLayer, "per-layer, traced run"
			} else {
				e2e[name] = out.metrics
			}
			fmt.Printf("\n%s (%s; seed %d, %.1f s): attempted %d, failed %d; samples read=%d write=%d maint=%d\n",
				name, mode, cfg.seed, cfg.seconds, line.Attempted, line.Failed,
				len(out.lat[classRead]), len(out.lat[classWrite]), len(out.lat[classMaint]))
			for _, d := range defs {
				fmt.Printf("  %-34s %14.4f %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
			}
			// Beside the medians, the highest percentile the sample count
			// supports (ten samples beyond it), not bounded: see README.md.
			for _, class := range []string{classRead, classWrite} {
				if q := highestSupported(len(out.lat[class])); q > 0 && !traced {
					fmt.Printf("  %-34s %14.4f ms (whole run, %d samples)\n",
						fmt.Sprintf("%s p%g", class, 100*q), percentile(sortedCopy(msOf(out.lat[class])), q), len(out.lat[class]))
				}
			}
		}
	}
	if withTrace {
		if err := joinBudgets(cfg.out, names); err != nil {
			return nil, err
		}
		fmt.Printf("\nbudget tables: %s\n", filepath.Join(cfg.out, "budget.md"))
	}
	if failed > 0 {
		return e2e, fmt.Errorf("%d operation(s) or check(s) failed", failed)
	}
	return e2e, nil
}

// runSets is the repeatability harness: the same code measured sets times
// with tracing off, each time on another seed and with the workload order
// flipped; per metric the median of the first half of the sets is compared
// with the median of the second half, and the run fails when the second is
// worse than the first by more than the metric's bound.
func runSets(cfg runConfig, ct *contract, sets int) error {
	if sets < 2 {
		return fmt.Errorf("-sets needs at least 2")
	}
	all := make(map[string]map[string][]float64) // workload -> metric -> value per set
	for i := 0; i < sets; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		e2e, err := runAll(c, ct, false, i%2 == 1)
		if err != nil {
			return err
		}
		for w, ms := range e2e {
			if all[w] == nil {
				all[w] = make(map[string][]float64)
			}
			for m, v := range ms {
				all[w][m] = append(all[w][m], v)
			}
		}
	}
	fmt.Printf("\n%-18s %-14s %12s %12s %9s %7s %8s\n", "workload", "metric", "first", "second", "worse by", "bound", "spread")
	var over []string
	for _, w := range ct.Workloads {
		for _, d := range ct.EndToEnd {
			vs := all[w.Name][d.Name]
			a, b := median(vs[:len(vs)/2]), median(vs[len(vs)/2:])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			// spread is the driver's statistic over all sets: interquartile
			// distance as a share of the median.
			fmt.Printf("%-18s %-14s %12.4f %12.4f %8.1f%% %6.0f%% %7.1f%%\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, 100*spreadShare(vs))
			if worse > d.Bound {
				over = append(over, w.Name+"/"+d.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("sets disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
