// Package workload generates the synthetic COVID-19 scenario the paper's
// evaluation (§IV-D) runs on: a partitioned knowledge graph of regions,
// hospitals and labs, plus deterministic streams of patient admissions
// spread over consecutive days. Real surveillance data is proprietary
// (GISAID/hospital records), so the generator substitutes a seeded
// synthetic equivalent that exercises the same code paths.
//
// Build populates a knowledge base with the static scenario (regions,
// hospitals, labs, hubs and indexes) and returns a Scenario whose
// Admissions method yields deterministic per-day admission batches: the
// same Config.Seed always produces the same stream, so benchmark runs and
// regression tests are reproducible bit-for-bit. Admit ingests a batch
// through the full reactive pipeline with configurable transaction batching
// (AdmitOptions.Batch is patients per transaction; the paper's setting is
// 1, one trigger activation per transaction) and optional per-(region, day)
// statistics maintenance for the summary-based rule design.
//
// NaiveRuleSpec and SummaryRuleSpec return the two rule designs the
// evaluation compares: the naive rule fires per patient and re-aggregates,
// the summary rule fires once per region and day on DailyRegionStat nodes.
// internal/bench wires these into the Fig. 9 / Fig. 10 measurements.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
)

// Config parameterizes a scenario.
type Config struct {
	// Seed makes the generated stream deterministic.
	Seed int64
	// Regions is the number of regional partitions (the paper's experiment
	// groups patients by region; Italy has 20).
	Regions int
	// HospitalsPerRegion and LabsPerRegion size the clinical and analysis
	// hubs.
	HospitalsPerRegion int
	LabsPerRegion      int
	// SkewedRegions makes admission volume non-uniform across regions
	// (a Zipf-flavored 1/(rank+1) weighting) when true.
	SkewedRegions bool
}

func (c Config) withDefaults() Config {
	if c.Regions <= 0 {
		c.Regions = 20
	}
	if c.HospitalsPerRegion <= 0 {
		c.HospitalsPerRegion = 1
	}
	if c.LabsPerRegion <= 0 {
		c.LabsPerRegion = 1
	}
	return c
}

// Scenario is a built scenario: the base graph exists in the knowledge
// base, and the scenario object generates admission streams over it.
type Scenario struct {
	Cfg       Config
	regions   []string
	hospitals map[string][]graph.NodeID // region -> hospital node ids
	rng       *rand.Rand
	weights   []float64
	nextID    int64
}

// RegionName returns the canonical name of region i.
func RegionName(i int) string { return fmt.Sprintf("region-%02d", i) }

// Build creates the base partitioned graph (regions, hospitals, labs) in
// the knowledge base and returns the scenario handle. It also creates the
// property indexes the experiments rely on.
func Build(kb *core.KnowledgeBase, cfg Config) (*Scenario, error) {
	cfg = cfg.withDefaults()
	s := &Scenario{
		Cfg:       cfg,
		hospitals: make(map[string][]graph.NodeID),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	// Indexes for the experiments: per-(region,day) patient counting and
	// daily statistic lookup.
	for _, idx := range [][2]string{
		{"Region", "name"},
		{"Patient", "regionDay"},
		{"DailyRegionStat", "key"},
		{"RegionStat", "key"},
	} {
		if err := kb.CreateIndex(idx[0], idx[1]); err != nil {
			return nil, err
		}
	}
	_, err := kb.WriteTx(func(tx *graph.Tx) error {
		for r := 0; r < cfg.Regions; r++ {
			name := RegionName(r)
			s.regions = append(s.regions, name)
			region, err := tx.CreateNode([]string{"Region"}, map[string]value.Value{
				"name": value.Str(name),
				"hub":  value.Str("R"),
			})
			if err != nil {
				return err
			}
			for h := 0; h < cfg.HospitalsPerRegion; h++ {
				hosp, err := tx.CreateNode([]string{"Hospital"}, map[string]value.Value{
					"name": value.Str(fmt.Sprintf("%s/hospital-%d", name, h)),
					"hub":  value.Str("C"),
				})
				if err != nil {
					return err
				}
				if _, err := tx.CreateRel(hosp, region, "LocatedIn", nil); err != nil {
					return err
				}
				s.hospitals[name] = append(s.hospitals[name], hosp)
			}
			for l := 0; l < cfg.LabsPerRegion; l++ {
				lab, err := tx.CreateNode([]string{"Lab"}, map[string]value.Value{
					"name": value.Str(fmt.Sprintf("%s/lab-%d", name, l)),
					"hub":  value.Str("A"),
				})
				if err != nil {
					return err
				}
				if _, err := tx.CreateRel(lab, region, "LocatedIn", nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.SkewedRegions {
		s.weights = make([]float64, cfg.Regions)
		total := 0.0
		for i := range s.weights {
			s.weights[i] = 1.0 / float64(i+1)
			total += s.weights[i]
		}
		for i := range s.weights {
			s.weights[i] /= total
		}
	}
	return s, nil
}

// Regions lists the region names.
func (s *Scenario) Regions() []string { return s.regions }

// pickRegion draws a region index (uniform or skewed).
func (s *Scenario) pickRegion() int {
	if s.weights == nil {
		return s.rng.Intn(len(s.regions))
	}
	x := s.rng.Float64()
	for i, w := range s.weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(s.regions) - 1
}

// Admission is one patient-admission event.
type Admission struct {
	ID        string
	Region    string
	Day       int
	RegionDay string // "region#day" composite for indexed counting
}

// Admissions generates n deterministic admissions for the given day.
func (s *Scenario) Admissions(n, day int) []Admission {
	out := make([]Admission, n)
	for i := range out {
		r := s.regions[s.pickRegion()]
		s.nextID++
		out[i] = Admission{
			ID:        fmt.Sprintf("p%d", s.nextID),
			Region:    r,
			Day:       day,
			RegionDay: RegionDayKey(r, day),
		}
	}
	return out
}

// RegionDayKey builds the composite (region, day) lookup key.
func RegionDayKey(region string, day int) string {
	return fmt.Sprintf("%s#%d", region, day)
}

// AdmitOptions tunes how admissions are written.
type AdmitOptions struct {
	// Batch is the number of patients per transaction (default 1: one
	// trigger activation per transaction, as in the paper's experiment).
	Batch int
	// MaintainStats makes the "patient creation script" additionally
	// increment the per-(region, day) RegionStat counter — the extra
	// operation the paper adds for the summary-based design (§IV-D).
	MaintainStats bool
	// LinkHospital attaches each patient to a hospital of its region via
	// TreatedAt (needed by rules that traverse; the scaling experiments
	// keep it on to exercise realistic insert cost).
	LinkHospital bool
}

// Admit writes the admissions into the knowledge base, firing reactive
// rules per transaction.
func (s *Scenario) Admit(kb *core.KnowledgeBase, adms []Admission, opt AdmitOptions) error {
	batch := opt.Batch
	if batch <= 0 {
		batch = 1
	}
	for start := 0; start < len(adms); start += batch {
		end := start + batch
		if end > len(adms) {
			end = len(adms)
		}
		chunk := adms[start:end]
		_, err := kb.WriteTx(func(tx *graph.Tx) error {
			for _, a := range chunk {
				props := map[string]value.Value{
					"id":        value.Str(a.ID),
					"region":    value.Str(a.Region),
					"day":       value.Int(int64(a.Day)),
					"regionDay": value.Str(a.RegionDay),
					"hub":       value.Str("C"),
				}
				pid, err := tx.CreateNode([]string{"Patient"}, props)
				if err != nil {
					return err
				}
				if opt.LinkHospital {
					hs := s.hospitals[a.Region]
					if len(hs) > 0 {
						h := hs[int(s.nextID)%len(hs)]
						if _, err := tx.CreateRel(pid, h, "TreatedAt", nil); err != nil {
							return err
						}
					}
				}
				if opt.MaintainStats {
					if err := s.bumpStat(tx, a.Region, a.Day); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// bumpStat increments the running (region, day) patient counter — the
// paper's "new operation" added to the patient creation script.
func (s *Scenario) bumpStat(tx *graph.Tx, region string, day int) error {
	key := RegionDayKey(region, day)
	ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(key))
	if len(ids) > 0 {
		cur, _ := tx.NodeProp(ids[0], "patients")
		n, _ := cur.AsInt()
		return tx.SetNodeProp(ids[0], "patients", value.Int(n+1))
	}
	_, err := tx.CreateNode([]string{"RegionStat"}, map[string]value.Value{
		"key":      value.Str(key),
		"region":   value.Str(region),
		"day":      value.Int(int64(day)),
		"patients": value.Int(1),
	})
	return err
}

// CloseDay materializes the day's regional statistics as DailyRegionStat
// nodes (one per region with admissions), the analog of linking the daily
// summary node to regional statistics; rules monitoring DailyRegionStat
// creation fire here — once per region, not once per patient.
func (s *Scenario) CloseDay(kb *core.KnowledgeBase, day int) error {
	_, err := kb.WriteTx(func(tx *graph.Tx) error {
		for _, region := range s.regions {
			key := RegionDayKey(region, day)
			ids, _ := tx.NodesByProp("RegionStat", "key", value.Str(key))
			if len(ids) == 0 {
				continue
			}
			cnt, _ := tx.NodeProp(ids[0], "patients")
			if _, err := tx.CreateNode([]string{"DailyRegionStat"}, map[string]value.Value{
				"key":      value.Str(key),
				"region":   value.Str(region),
				"day":      value.Int(int64(day)),
				"patients": cnt,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// NaiveRuleThreshold is the critical-growth threshold of the paper's
// alerting rule: admissions growing by 10% across two consecutive days.
const NaiveRuleThreshold = 0.1

// NaiveRule is the paper's first design (Fig. 9): the guard is simply the
// creation of a new patient; the alert compares the patient's region's
// admission counters for the current and previous day, using count-store
// lookups (countNodes over the regionDay index).
func NaiveRule() string { return "fig9-naive" }

// NaiveRuleSpec returns the rule definition for the Fig. 9 experiment.
func NaiveRuleSpec() (name, guard, alert string) {
	name = NaiveRule()
	guard = "" // the event itself (a new patient) is the whole guard
	alert = `WITH NEW.region AS region,
	              countNodes('Patient', 'regionDay', NEW.region + '#' + toString(NEW.day)) AS today,
	              countNodes('Patient', 'regionDay', NEW.region + '#' + toString(NEW.day - 1)) AS yesterday
	         WHERE yesterday > 0 AND toFloat(today - yesterday) / toFloat(today) > 0.1
	         RETURN region, today, yesterday`
	return name, guard, alert
}

// SummaryRuleSpec returns the rule of the second design (Fig. 10): it is
// triggered once per region per day, on the creation of the daily regional
// statistic, and compares it with the previous day's statistic.
func SummaryRuleSpec() (name, guard, alert string) {
	name = "fig10-summary"
	guard = "NEW.day > 0"
	alert = `MATCH (y:DailyRegionStat {key: NEW.region + '#' + toString(NEW.day - 1)})
	         WITH NEW.region AS region, NEW.patients AS today, y.patients AS yesterday
	         WHERE yesterday > 0 AND toFloat(today - yesterday) / toFloat(today) > 0.1
	         RETURN region, today, yesterday`
	return name, guard, alert
}
