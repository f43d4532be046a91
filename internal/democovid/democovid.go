// Package democovid wires the paper's running example (Fig. 1): four
// knowledge hubs — Experimental (E), Analysis (A), Clinical (C), Regional
// (R) — over a COVID-19 knowledge graph, with the reactive rules R1–R3 of
// §III-C, the auxiliary ICU-count rule R5, and the Essential-Summary-based
// R4' of §III-D. The shell, the HTTP server and the covid example all reuse
// this setup.
package democovid

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trigger"
	"repro/internal/value"
)

// Demo-scale thresholds (the paper's production thresholds, e.g. 100
// unassigned sequences, are impractical for an interactive demo).
const (
	// unassignedThreshold is R2's critical number of unassigned sequences
	// per region.
	unassignedThreshold = 3
	// criticalSequencesThreshold is R3's critical number of sequences
	// assigned to variants with critical effects per region.
	criticalSequencesThreshold = 3
	// icuGrowthThreshold is R4's relative day-over-day ICU growth (the
	// paper's 10%).
	icuGrowthThreshold = 0.1
	// summaryPeriod is the Essential Summary period.
	summaryPeriod = 24 * time.Hour
)

// Setup configures kb with the four hubs, helpful indexes, the Essential
// Summary, and rules R1, R2, R3, R5 and R4'.
func Setup(kb *core.KnowledgeBase) error {
	for _, h := range []struct {
		name, desc string
		labels     []string
	}{
		{"E", "Experimental hub: mutations and their effects", []string{"Mutation", "Effect"}},
		{"A", "Analysis hub: sequencing labs and variant assignment", []string{"Lab", "Sequence", "Variant"}},
		{"C", "Clinical hub: hospitals and patients", []string{"Hospital", "Patient", "IcuPatient", "Treatment"}},
		{"R", "Regional hub: region policies", []string{"Region"}},
	} {
		if err := kb.DefineHub(h.name, h.desc, h.labels...); err != nil {
			return err
		}
	}
	// The Fig. 2 schema (LOOSE: alert and summary machinery coexists with
	// the declared domain types) and the paper's hub-property discipline.
	if _, err := kb.ApplySchema(`
	CREATE GRAPH TYPE CovidScenario LOOSE {
	  (effectType: Effect {type STRING, level STRING, hub STRING}),
	  (mutationType: Mutation {id STRING, hub STRING, OPEN}),
	  (labType: Lab {name STRING, hub STRING}),
	  (sequenceType: Sequence {id STRING, hub STRING, OPTIONAL variant STRING}),
	  (variantType: Variant {name STRING, hub STRING}),
	  (hospitalType: Hospital {name STRING, hub STRING}),
	  (regionType: Region {name STRING, hub STRING}),
	  (icuType: IcuPatient {id STRING, hub STRING, OPEN}),
	  (:mutationType)-[hasEffectType: HasEffect]->(:effectType),
	  (:sequenceType)-[sequencedAtType: SequencedAt]->(:labType),
	  (:sequenceType)-[assignedToType: AssignedTo]->(:variantType),
	  (:variantType)-[containsType: Contains]->(:mutationType),
	  (:labType)-[labLocatedType: LocatedIn]->(:regionType),
	  (:hospitalType)-[hospLocatedType: LocatedIn]->(:regionType),
	  (:icuType)-[treatedAtType: TreatedAt]->(:hospitalType),
	  FOR (x:regionType) EXCLUSIVE MANDATORY SINGLETON x.name,
	  FOR (x:sequenceType) EXCLUSIVE MANDATORY SINGLETON x.id,
	  FOR (x:mutationType) EXCLUSIVE MANDATORY SINGLETON x.id
	}`); err != nil {
		return err
	}
	kb.EnforceHubOwnership()
	if err := kb.EnableSummaries(summaryPeriod); err != nil {
		return err
	}

	rules := []trigger.Rule{
		// R1 (Experimental; intra-hub, single-state): a newly created
		// mutation connected to a critical effect.
		{
			Name:  "R1",
			Hub:   "E",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Mutation"},
			Alert: `MATCH (NEW)-[:HasEffect]->(ef:Effect {level: 'critical'})
			        RETURN NEW.id AS mutation, ef.type AS effect`,
		},
		// R2 (Analysis; inter-hub, single-state): unassigned sequences per
		// region above a threshold (the Fig. 3 rule).
		{
			Name:  "R2",
			Hub:   "A",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
			Guard: "NEW.variant IS NULL",
			Alert: fmt.Sprintf(`MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
			        MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
			        WHERE u.variant IS NULL
			        WITH r.name AS region, count(u) AS counter
			        WHERE counter > %d
			        RETURN region, counter`, unassignedThreshold),
		},
		// R3 (Analysis; inter-hub across A, E and R; single-state): shares
		// R2's guard, but the alert counts the region's sequences assigned
		// to variants containing mutations with critical effects.
		{
			Name:  "R3",
			Hub:   "A",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
			Guard: "NEW.variant IS NULL",
			Alert: fmt.Sprintf(`MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
			        MATCH (s:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
			        MATCH (s)-[:AssignedTo]->(:Variant)-[:Contains]->(:Mutation)
			              -[:HasEffect]->(:Effect {level: 'critical'})
			        WITH r.name AS region, count(DISTINCT s) AS critical
			        WHERE critical > %d
			        RETURN region, critical`, criticalSequencesThreshold),
		},
		// R5 (Clinical; auxiliary rule of the R4' walkthrough): each ICU
		// admission records the region's current ICU count; the Essential
		// Summary clusters these per day.
		{
			Name:  "R5",
			Hub:   "C",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
			Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
			        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
			        RETURN r.name AS Region, count(i) AS IcuPatients`,
		},
		// R4' (Clinical; inter-hub, multi-state): compares today's ICU
		// count with yesterday's, read from the previous summary via the R5
		// alerts — the §III-D listing.
		{
			Name:  "R4",
			Hub:   "C",
			Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
			Alert: fmt.Sprintf(`MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
			        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
			        WITH r.name AS Region, count(i) AS TodayIcu
			        MATCH (a:Alert {rule: 'R5', Region: Region})<-[:has]-(s:Summary)-[:next]->(:Current)
			        WITH Region, TodayIcu, max(a.IcuPatients) AS YesterdayIcu
			        WHERE toFloat(TodayIcu - YesterdayIcu) / toFloat(TodayIcu) > %g
			        RETURN Region, TodayIcu, YesterdayIcu,
			               'Significant increase of ICU patients' AS description`,
				icuGrowthThreshold),
		},
	}
	for _, r := range rules {
		if err := kb.InstallRule(r); err != nil {
			return err
		}
	}
	return nil
}

// Seed populates the base knowledge: two regions with labs and hospitals,
// a critical effect, a variant containing a mutation with that effect.
func Seed(kb *core.KnowledgeBase) error {
	stmts := []string{
		`CREATE (:Region {name: 'Lombardy', hub: 'R'}),
		        (:Region {name: 'Veneto', hub: 'R'})`,
		`MATCH (r:Region {name: 'Lombardy'})
		 CREATE (:Lab {name: 'MI-lab-1', hub: 'A'})-[:LocatedIn]->(r),
		        (:Hospital {name: 'MI-hosp-1', hub: 'C'})-[:LocatedIn]->(r)`,
		`MATCH (r:Region {name: 'Veneto'})
		 CREATE (:Lab {name: 'VE-lab-1', hub: 'A'})-[:LocatedIn]->(r),
		        (:Hospital {name: 'VE-hosp-1', hub: 'C'})-[:LocatedIn]->(r)`,
		`CREATE (:Effect {type: 'vaccine escape', level: 'critical', hub: 'E'}),
		        (:Effect {type: 'higher transmissibility', level: 'moderate', hub: 'E'})`,
		`CREATE (:Variant {name: 'B.1.351', hub: 'A'})`,
	}
	for _, s := range stmts {
		if _, err := kb.Execute(s, nil); err != nil {
			return fmt.Errorf("seed %q: %w", s, err)
		}
	}
	return nil
}

// AdmitIcuPatient creates one ICU patient at the named hospital, firing R5
// (and R4' once a previous period exists).
func AdmitIcuPatient(kb *core.KnowledgeBase, hospital, patientID string) error {
	_, err := kb.Execute(
		`MATCH (h:Hospital {name: $h})
		 CREATE (:IcuPatient {id: $id, hub: 'C'})-[:TreatedAt]->(h)`,
		map[string]value.Value{"h": value.Str(hospital), "id": value.Str(patientID)})
	return err
}

// AddSequence creates one sequence at the named lab; variant may be empty
// (unassigned), which is what R2 and R3 watch for.
func AddSequence(kb *core.KnowledgeBase, lab, seqID, variant string) error {
	params := map[string]value.Value{"lab": value.Str(lab), "id": value.Str(seqID)}
	q := `MATCH (l:Lab {name: $lab})
	      CREATE (:Sequence {id: $id, hub: 'A'})-[:SequencedAt]->(l)`
	if variant != "" {
		params["v"] = value.Str(variant)
		q = `MATCH (l:Lab {name: $lab}), (v:Variant {name: $v})
		     CREATE (s:Sequence {id: $id, hub: 'A', variant: $v})-[:SequencedAt]->(l),
		            (s)-[:AssignedTo]->(v)`
	}
	_, err := kb.Execute(q, params)
	return err
}
