// The paper's running example, end to end: four knowledge hubs
// (Experimental, Analysis, Clinical, Regional) over a COVID-19 knowledge
// graph, reactive rules R1–R3, the auxiliary R5 and the multi-state R4'
// built on the Essential Summary, simulated over several days.
//
//	go run ./examples/covid
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	reactive "repro"
	"repro/internal/democovid"
)

func main() {
	clock := reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))
	kb := reactive.New(reactive.Config{Clock: clock})

	if err := democovid.Setup(kb); err != nil {
		log.Fatal(err)
	}
	if err := democovid.Seed(kb); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== hubs ==")
	for _, h := range kb.Hubs().Hubs() {
		fmt.Printf("  %-2s %-45s %v\n", h.Name, h.Description, kb.Hubs().OwnedLabels(h.Name))
	}
	fmt.Println("\n== rules (§III-C classification) ==")
	for _, r := range kb.Rules() {
		fmt.Printf("  %-3s hub=%-2s on %-28s → %s, %s\n",
			r.Name, r.Hub, r.Event, r.Classification.Scope, r.Classification.State)
	}
	if cycles := kb.CheckTermination(); len(cycles) == 0 {
		fmt.Println("  triggering graph is acyclic: cascades terminate")
	}

	// ---- Day 1: experimental knowledge arrives ----
	fmt.Println("\n== day 1: experimental hub publishes a mutation ==")
	mustExec(kb, `MATCH (ef:Effect {type: 'vaccine escape'})
	             CREATE (:Mutation {id: 'S:E484K', hub: 'E'})-[:HasEffect]->(ef)`)
	mustExec(kb, `MATCH (v:Variant {name: 'B.1.351'}), (m:Mutation {id: 'S:E484K'})
	             CREATE (v)-[:Contains]->(m)`)

	// Sequencing backlog builds up in Lombardy.
	for i := 0; i < 4; i++ {
		must(democovid.AddSequence(kb, "MI-lab-1", fmt.Sprintf("d1-s%d", i), ""))
	}
	// Two ICU admissions in Lombardy (R5 logs the daily counts).
	must(democovid.AdmitIcuPatient(kb, "MI-hosp-1", "d1-p0"))
	must(democovid.AdmitIcuPatient(kb, "MI-hosp-1", "d1-p1"))
	printAlerts(kb, "after day 1")

	// ---- Day 2 ----
	nextDay(kb, clock)
	fmt.Println("\n== day 2: assigned sequences reveal the critical variant ==")
	for i := 0; i < 4; i++ {
		must(democovid.AddSequence(kb, "MI-lab-1", fmt.Sprintf("d2-s%d", i), "B.1.351"))
	}
	// One more unassigned probe evaluates R3 against the new picture.
	must(democovid.AddSequence(kb, "MI-lab-1", "d2-probe", ""))
	// ICU keeps growing: 3 patients today vs 2 yesterday → R4' fires.
	for i := 0; i < 3; i++ {
		must(democovid.AdmitIcuPatient(kb, "MI-hosp-1", fmt.Sprintf("d2-p%d", i)))
	}
	printAlerts(kb, "after day 2")

	// ---- Day 3: the Essential Summary accumulates history ----
	nextDay(kb, clock)
	fmt.Println("\n== day 3: summary window analytics (§III-D) ==")
	must(democovid.AdmitIcuPatient(kb, "MI-hosp-1", "d3-p0"))
	mgr, err := kb.Summaries()
	if err != nil {
		log.Fatal(err)
	}
	err = kb.Store().View(func(tx *reactive.Tx) error {
		chain := mgr.Chain(tx)
		fmt.Printf("  summary chain: %d periods\n", len(chain))
		win := mgr.Window(tx, 3, reactive.WindowFilter{
			Rule:  "R5",
			Prop:  "IcuPatients",
			Where: map[string]reactive.Value{"Region": reactive.V("Lombardy")},
		})
		fmt.Printf("  Lombardy ICU window (one value per period): %v\n", win)
		if avg, ok := mgr.MovingAverage(tx, 3, reactive.WindowFilter{
			Rule:  "R5",
			Prop:  "IcuPatients",
			Where: map[string]reactive.Value{"Region": reactive.V("Lombardy")},
		}); ok {
			fmt.Printf("  3-day moving average of ICU occupancy: %.2f\n", avg)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Fig. 7: the APOC translation of rule R2 ==")
	for _, trg := range kb.TranslateRulesAPOC("neo4j", "before").Triggers {
		if strings.Contains(trg, "'R2'") {
			fmt.Println(trg)
		}
	}

	fmt.Println("\n== partitioning ==")
	hs, err := kb.HubStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  nodes per hub: %v (unassigned: %d)\n", hs.NodesPerHub, hs.Unassigned)
	fmt.Printf("  intra-hub edges: %d, knowledge bridges (inter-hub): %d\n",
		hs.IntraEdges, hs.InterEdges)
	for _, b := range hs.Bridges {
		fmt.Printf("    %s: %s → %s (%d)\n", b.Type, b.FromHub, b.ToHub, b.Count)
	}
}

func nextDay(kb *reactive.KnowledgeBase, clock *reactive.ManualClock) {
	clock.Advance(24 * time.Hour)
	if err := kb.Tick(); err != nil {
		log.Fatal(err)
	}
}

func mustExec(kb *reactive.KnowledgeBase, q string) {
	if _, err := kb.Execute(q, nil); err != nil {
		log.Fatalf("%s: %v", q, err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func printAlerts(kb *reactive.KnowledgeBase, when string) {
	alerts, err := kb.Alerts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- alert log %s (%d total) --\n", when, len(alerts))
	for _, a := range alerts {
		fmt.Printf("  %s %-3s hub=%-2s %v\n",
			a.DateTime.Format("Jan 02 15:04"), a.Rule, a.Hub, a.Props)
	}
}
