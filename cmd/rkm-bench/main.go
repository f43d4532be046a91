// Command rkm-bench regenerates the paper's evaluation figures on the pure
// Go reactive knowledge management system. The figures are the rows of
// bench.Figures; `rkm-bench -h` lists their names.
//
// Usage:
//
//	rkm-bench -fig 9                 # Fig. 9: naive per-patient triggers
//	rkm-bench -fig all               # every figure, in table order
//	rkm-bench -fig all -smoke        # the same at CI size
//	rkm-bench -fig 9 -full           # paper-scale sweep (up to 10^6 patients)
//	rkm-bench -fig 9 -patients 500,5000 -regions 10
//
// Absolute numbers depend on the machine; the reproduction target is the
// paper's shapes — see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+bench.Names()+", or all")
		patients = flag.String("patients", "", "comma-separated patient counts (overrides defaults)")
		regions  = flag.Int("regions", 20, "number of regions")
		days     = flag.Int("days", 2, "days the admissions are spread over")
		seed     = flag.Int64("seed", 1, "workload seed")
		batch    = flag.Int("batch", 1, "patients per transaction")
		full     = flag.Bool("full", false, "paper-scale sweep (10^2..10^6 patients; slow)")
		reps     = flag.Int("reps", 1, "repetitions per measurement (median reported)")
		smoke    = flag.Bool("smoke", false, "tiny sweep for CI; overrides the size flags")
	)
	flag.Parse()

	// No -patients and no -full leaves the sweep to each figure's default.
	var counts []int
	if *full {
		counts = []int{100, 1000, 10000, 100000, 1000000}
	}
	if *patients != "" {
		counts = nil
		for _, f := range strings.Split(*patients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fatalf("bad -patients value %q", f)
			}
			counts = append(counts, n)
		}
	}
	cfg := bench.Config{
		PatientCounts: counts,
		Regions:       *regions,
		Days:          *days,
		Seed:          *seed,
		Batch:         *batch,
		Reps:          *reps,
	}

	figs, err := bench.Select(*fig)
	if err != nil {
		fatalf("-fig: %v", err)
	}
	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		if err := f.Run(cfg, *smoke, os.Stdout); err != nil {
			fatalf("fig %s: %v", f.Name, err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rkm-bench: "+format+"\n", args...)
	os.Exit(1)
}
