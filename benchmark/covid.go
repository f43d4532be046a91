package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/democovid"
	"repro/internal/graph"
	"repro/internal/value"
	"repro/internal/wal"
)

// The covid graph both HTTP workloads run on: the demo's four hubs and
// rules (democovid.Setup, which rkm-server -demo installs) over 20 regions
// with two labs and two hospitals each, eight variants of which every second
// one contains a mutation with a critical effect.
const (
	covidRegions  = 20
	covidPerReg   = 2 // labs per region, and hospitals per region
	covidVariants = 8
	// Sequences preloaded per region on a critical variant: with more than
	// democovid's threshold of 3 in every region, rule R3 alerts on every
	// unassigned sequence, whatever order concurrent clients commit in.
	covidCriticalPerReg = 4
)

// Statement shapes. Each is issued once before timing so the plan cache
// always hits in the timed section.
const (
	qSeqAssigned = `MATCH (l:Lab {name: $lab}), (v:Variant {name: $v})
		CREATE (s:Sequence {id: $id, hub: 'A', variant: $v})-[:SequencedAt]->(l), (s)-[:AssignedTo]->(v)`
	qSeqUnassigned = `MATCH (l:Lab {name: $lab})
		CREATE (:Sequence {id: $id, hub: 'A'})-[:SequencedAt]->(l)`
	qIcuAdmit = `MATCH (h:Hospital {name: $h})
		CREATE (:IcuPatient {id: $id, hub: 'C'})-[:TreatedAt]->(h)`
	qPoint   = `MATCH (s:Sequence {id: $id}) RETURN s.id AS id, s.variant AS variant`
	qExpand2 = `MATCH (s:Sequence {id: $id})-[:SequencedAt]->(l:Lab)-[:LocatedIn]->(r:Region)
		RETURN l.name AS lab, r.name AS region`
	qAgg = `MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region {name: $r})
		RETURN count(i) AS icu`
	qCrosshub = `MATCH (s:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region {name: $r})
		MATCH (s)-[:AssignedTo]->(:Variant)-[:Contains]->(:Mutation)-[:HasEffect]->(:Effect {level: 'critical'})
		RETURN count(DISTINCT s) AS critical`
	qCountSequences = `MATCH (s:Sequence) RETURN count(s) AS n`
	qCountIcu       = `MATCH (i:IcuPatient) RETURN count(i) AS n`
	qAllSequenceIDs = `MATCH (s:Sequence) RETURN s.id AS id`
)

func regionName(r int) string    { return fmt.Sprintf("r%02d", r) }
func labName(i int) string       { return fmt.Sprintf("r%02d-lab%d", i/covidPerReg, i%covidPerReg) }
func hospitalName(i int) string  { return fmt.Sprintf("r%02d-hosp%d", i/covidPerReg, i%covidPerReg) }
func variantName(v int) string   { return fmt.Sprintf("var-%02d", v) }
func mutationName(v int) string  { return fmt.Sprintf("mut-%02d", v) }
func variantCritical(v int) bool { return v%2 == 0 }

const (
	effectCritical = "vaccine escape"          // level 'critical' in democovid.Seed
	effectModerate = "higher transmissibility" // level 'moderate'
)

// covidBaseStatements creates, over HTTP, everything below the stream's own
// sequences on a freshly seeded demo server (democovid.Seed supplies the two
// effects). Three statements, so set-up time is not a count of fsyncs.
// Creating a mutation with a critical effect fires rule R1.
func covidBaseStatements() []statement {
	var variants, regions, sequences []any
	for v := 0; v < covidVariants; v++ {
		effect := effectModerate
		if variantCritical(v) {
			effect = effectCritical
		}
		variants = append(variants, map[string]any{"e": effect, "m": mutationName(v), "v": variantName(v)})
	}
	for r := 0; r < covidRegions; r++ {
		regions = append(regions, map[string]any{"r": regionName(r),
			"l0": labName(2 * r), "l1": labName(2*r + 1),
			"h0": hospitalName(2 * r), "h1": hospitalName(2*r + 1)})
		for i := 0; i < covidCriticalPerReg; i++ {
			sequences = append(sequences, map[string]any{
				"lab": labName(2*r + i%2), "v": variantName(0), "id": baseSeqID(r, i)})
		}
	}
	return []statement{
		{`UNWIND $rows AS row MATCH (e:Effect {type: row.e})
		  CREATE (m:Mutation {id: row.m, hub: 'E'})-[:HasEffect]->(e), (:Variant {name: row.v, hub: 'A'})-[:Contains]->(m)`,
			map[string]any{"rows": variants}},
		{`UNWIND $rows AS row CREATE (r:Region {name: row.r, hub: 'R'}),
			(:Lab {name: row.l0, hub: 'A'})-[:LocatedIn]->(r), (:Lab {name: row.l1, hub: 'A'})-[:LocatedIn]->(r),
			(:Hospital {name: row.h0, hub: 'C'})-[:LocatedIn]->(r), (:Hospital {name: row.h1, hub: 'C'})-[:LocatedIn]->(r)`,
			map[string]any{"rows": regions}},
		{`UNWIND $rows AS row MATCH (l:Lab {name: row.lab}), (v:Variant {name: row.v})
		  CREATE (s:Sequence {id: row.id, hub: 'A', variant: row.v})-[:SequencedAt]->(l), (s)-[:AssignedTo]->(v)`,
			map[string]any{"rows": sequences}},
	}
}

func baseSeqID(region, i int) string { return fmt.Sprintf("base-%02d-%d", region, i) }

// prebuilt describes the graph prebuildCovid wrote: sequence i sits at lab
// i mod 40 and, unless i mod 10 is 9, is assigned to variant (i div 40) mod 8;
// ICU patient j is treated at hospital j mod 40.
type prebuilt struct {
	sequences, icu int
	nodes, rels    int
	critical       [covidRegions]int // sequences on a critical variant, per region
	checkpointS    float64
	snapshotBytes  int64
}

func seqID(i int) string { return fmt.Sprintf("s%06d", i) }

func (p *prebuilt) seqLab(i int) int { return i % (covidRegions * covidPerReg) }

// seqVariant returns the variant index of sequence i, or -1 when unassigned.
func (p *prebuilt) seqVariant(i int) int {
	if i%10 == 9 {
		return -1
	}
	return (i / (covidRegions * covidPerReg)) % covidVariants
}

// icuIn is the number of prebuilt ICU patients treated in a region.
func (p *prebuilt) icuIn(region int) int {
	n := 0
	for j := 0; j < p.icu; j++ {
		if j%(covidRegions*covidPerReg)/covidPerReg == region {
			n++
		}
	}
	return n
}

// openCovidKB opens a durable knowledge base configured as rkm-server -demo
// configures it: composite events enabled, then the demo hubs, schema and
// rules.
func openCovidKB(dir string, policy wal.FsyncPolicy) (*core.KnowledgeBase, *cep.Manager, *wal.RecoveryInfo, error) {
	kb, info, err := core.OpenDurable(dir, core.Config{Clock: newDemoClock()}, wal.Options{Fsync: policy})
	if err != nil {
		return nil, nil, nil, err
	}
	cm, err := cep.Enable(kb, cep.Options{})
	if err == nil {
		err = democovid.Setup(kb)
	}
	if err != nil {
		kb.Close()
		return nil, nil, nil, err
	}
	return kb, cm, info, nil
}

// prebuildCovid bulk-loads the read-mix graph in process, bypassing the rule
// engine (rules have nothing to say about a bulk load), checkpoints it and
// closes it, so the server's start on dir is a real snapshot recovery.
func prebuildCovid(dir string, sequences, icu int) (*prebuilt, error) {
	kb, _, _, err := openCovidKB(dir, wal.FsyncNone)
	if err != nil {
		return nil, err
	}
	defer kb.Close()
	p := &prebuilt{sequences: sequences, icu: icu}
	str := value.Str
	var labs, hospitals []graph.NodeID
	var variants []graph.NodeID
	err = kb.Store().Update(func(tx *graph.Tx) error {
		node := func(label string, props map[string]value.Value) graph.NodeID {
			id, e := tx.CreateNode([]string{label}, props)
			if e != nil && err == nil {
				err = e
			}
			return id
		}
		rel := func(a, b graph.NodeID, typ string) {
			if _, e := tx.CreateRel(a, b, typ, nil); e != nil && err == nil {
				err = e
			}
		}
		crit := node("Effect", map[string]value.Value{"type": str(effectCritical), "level": str("critical"), "hub": str("E")})
		mod := node("Effect", map[string]value.Value{"type": str(effectModerate), "level": str("moderate"), "hub": str("E")})
		for v := 0; v < covidVariants; v++ {
			m := node("Mutation", map[string]value.Value{"id": str(mutationName(v)), "hub": str("E")})
			if variantCritical(v) {
				rel(m, crit, "HasEffect")
			} else {
				rel(m, mod, "HasEffect")
			}
			vn := node("Variant", map[string]value.Value{"name": str(variantName(v)), "hub": str("A")})
			rel(vn, m, "Contains")
			variants = append(variants, vn)
		}
		for r := 0; r < covidRegions; r++ {
			reg := node("Region", map[string]value.Value{"name": str(regionName(r)), "hub": str("R")})
			for i := 0; i < covidPerReg; i++ {
				l := node("Lab", map[string]value.Value{"name": str(labName(covidPerReg*r + i)), "hub": str("A")})
				rel(l, reg, "LocatedIn")
				labs = append(labs, l)
				h := node("Hospital", map[string]value.Value{"name": str(hospitalName(covidPerReg*r + i)), "hub": str("C")})
				rel(h, reg, "LocatedIn")
				hospitals = append(hospitals, h)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	const batch = 2000
	for start := 0; start < sequences; start += batch {
		err = kb.Store().Update(func(tx *graph.Tx) error {
			for i := start; i < min(start+batch, sequences); i++ {
				props := map[string]value.Value{"id": str(seqID(i)), "hub": str("A")}
				v := p.seqVariant(i)
				if v >= 0 {
					props["variant"] = str(variantName(v))
				}
				s, err := tx.CreateNode([]string{"Sequence"}, props)
				if err != nil {
					return err
				}
				if _, err := tx.CreateRel(s, labs[p.seqLab(i)], "SequencedAt", nil); err != nil {
					return err
				}
				if v >= 0 {
					if _, err := tx.CreateRel(s, variants[v], "AssignedTo", nil); err != nil {
						return err
					}
					if variantCritical(v) {
						p.critical[p.seqLab(i)/covidPerReg]++
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for start := 0; start < icu; start += batch {
		err = kb.Store().Update(func(tx *graph.Tx) error {
			for j := start; j < min(start+batch, icu); j++ {
				n, err := tx.CreateNode([]string{"IcuPatient"}, map[string]value.Value{
					"id": str(fmt.Sprintf("icu%06d", j)), "hub": str("C")})
				if err != nil {
					return err
				}
				if _, err := tx.CreateRel(n, hospitals[j%len(hospitals)], "TreatedAt", nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	st := kb.GraphStats()
	p.nodes, p.rels = st.Nodes, st.Relationships
	return p, checkpointTimed(kb, dir, p)
}

// checkpointTimed checkpoints kb and records how long that took and how big
// the snapshot file is.
func checkpointTimed(kb *core.KnowledgeBase, dir string, p *prebuilt) error {
	t0 := time.Now()
	if err := kb.Checkpoint(); err != nil {
		return err
	}
	p.checkpointS = time.Since(t0).Seconds()
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if err != nil {
		return err
	}
	for _, f := range snaps {
		if fi, err := os.Stat(f); err == nil {
			p.snapshotBytes += fi.Size()
		}
	}
	return nil
}
