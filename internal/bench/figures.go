package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Figure is one row of the figure table: a name rkm-bench accepts for -fig
// and the function that measures and prints it. Run fails when the figure
// cannot be measured or one of its invariants does not hold; with smoke it
// shrinks its sweep to CI size and ignores cfg's sizes.
type Figure struct {
	Name string
	Run  func(cfg Config, smoke bool, w io.Writer) error
}

// Figures is the one list of figure names: rkm-bench's -fig help, Select
// and TestFiguresSmoke all range over it.
var Figures = []Figure{
	{"9", runFig9},
	{"10", runFig10},
	{"ablation", runAblation},
	{"rules", runRules},
	{"async", runAsync},
	{"replica", runReplica},
}

// Names returns the figure names in table order, comma-separated.
func Names() string {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		names[i] = f.Name
	}
	return strings.Join(names, ", ")
}

// Select returns the rows -fig name stands for: the one called name, or
// the whole table for "all".
func Select(name string) ([]Figure, error) {
	if name == "all" {
		return Figures, nil
	}
	for _, f := range Figures {
		if f.Name == name {
			return []Figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want %s or all)", name, Names())
}

// smoke shrinks the patient sweeps to CI size.
func (c Config) smoke() Config {
	c.PatientCounts = []int{50, 200}
	c.Regions = 4
	c.Reps = 1
	return c
}

func runFig9(cfg Config, smoke bool, w io.Writer) error {
	if smoke {
		cfg = cfg.smoke()
	}
	pts, err := RunFig9(cfg)
	if err != nil {
		return err
	}
	WriteFig9(w, pts)
	return nil
}

func runFig10(cfg Config, smoke bool, w io.Writer) error {
	if smoke {
		cfg = cfg.smoke()
	}
	pts, err := RunFig10(cfg)
	if err != nil {
		return err
	}
	WriteFig10(w, pts)
	return nil
}

// runAblation compares the designs at the sweep's largest patient count.
func runAblation(cfg Config, smoke bool, w io.Writer) error {
	cfg = cfg.withDefaults()
	regions, reps := []int{5, 20, 100}, 3
	if smoke {
		cfg, regions, reps = cfg.smoke(), []int{2, 6}, 1
	}
	n := cfg.PatientCounts[len(cfg.PatientCounts)-1]
	pts, err := RunAblation(n, regions, cfg.Seed, reps)
	if err != nil {
		return err
	}
	WriteAblation(w, pts)
	return nil
}

// runRules sweeps the rule count at the sweep's smallest patient count.
func runRules(cfg Config, smoke bool, w io.Writer) error {
	cfg = cfg.withDefaults()
	rules := []int{1, 4, 16, 64}
	if smoke {
		cfg, rules = cfg.smoke(), []int{1, 8}
	}
	pts, err := RunRuleScaling(cfg.PatientCounts[0], rules, cfg.Seed)
	if err != nil {
		return err
	}
	WriteRuleScaling(w, pts)
	return nil
}

func runAsync(_ Config, smoke bool, w io.Writer) error {
	acfg := AsyncConfig{}
	if smoke {
		acfg = AsyncConfig{Writes: 300, Interval: time.Millisecond, RefNodes: 60, Workers: 2}
	}
	pts, err := RunAsyncPipeline(acfg)
	if err != nil {
		return err
	}
	WriteAsync(w, pts)
	modes := []string{"baseline", "sync", "async"}
	if len(pts) != len(modes) {
		return fmt.Errorf("%d points, want one per mode %v", len(pts), modes)
	}
	for i, p := range pts {
		if p.Mode != modes[i] {
			return fmt.Errorf("point %d is mode %q, want %q", i, p.Mode, modes[i])
		}
		if p.Achieved <= 0 {
			return fmt.Errorf("%s: no write throughput", p.Mode)
		}
	}
	baseline, sync, async := pts[0].Alerts, pts[1].Alerts, pts[2].Alerts
	if baseline != 0 {
		return fmt.Errorf("baseline has no rule but materialized %d alerts", baseline)
	}
	// Deferral changes when alerts appear, not whether.
	if sync == 0 || sync != async {
		return fmt.Errorf("alerts: sync=%d async=%d, want equal and non-zero", sync, async)
	}
	return nil
}

// runReplica's smoke size proves a follower can bootstrap, stream and serve
// reads under write load, not absolute numbers.
func runReplica(_ Config, smoke bool, w io.Writer) error {
	rcfg := ReplicaConfig{}
	if smoke {
		rcfg = ReplicaConfig{
			Nodes:              200,
			Followers:          []int{0, 1},
			ReadersPerInstance: 2,
			Window:             80 * time.Millisecond,
		}
	}
	rcfg = rcfg.withDefaults()
	pts, err := RunReplicaScaling(rcfg)
	if err != nil {
		return err
	}
	WriteReplica(w, pts)
	if len(pts) != len(rcfg.Followers) {
		return fmt.Errorf("%d points, want one per follower count %v", len(pts), rcfg.Followers)
	}
	for i, p := range pts {
		if p.Followers != rcfg.Followers[i] {
			return fmt.Errorf("point %d has followers=%d, want %d", i, p.Followers, rcfg.Followers[i])
		}
		// Followers serve the reads; with none, the leader does.
		serving := max(p.Followers, 1)
		if want := serving * rcfg.ReadersPerInstance; p.Readers != want {
			return fmt.Errorf("followers=%d: %d readers, want %d", p.Followers, p.Readers, want)
		}
		if p.Reads <= 0 {
			return fmt.Errorf("followers=%d: readers made no reads", p.Followers)
		}
		if p.WriterTxs <= 0 {
			return fmt.Errorf("followers=%d: writer made no progress", p.Followers)
		}
		if p.CatchUpPct <= 0 || p.CatchUpPct > 100 {
			return fmt.Errorf("followers=%d: catch-up %.1f%% out of range", p.Followers, p.CatchUpPct)
		}
	}
	return nil
}
