// Federated deployment (§V): each organization — a hospital network, a
// sequencing consortium, a regional authority — runs its OWN knowledge
// base on its own infrastructure; alerts propagate between them through
// federation subscriptions over HTTP (internal/fednet), and the receiving
// organization's rules react to the replicated knowledge. This is the
// paper's "reactive interaction of several knowledge hubs" across
// administrative boundaries. The authority listens on a loopback server
// here; in production each organization runs rkm-server -fed-name.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	reactive "repro"
	"repro/internal/fednet"
)

func main() {
	clock := reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))

	// --- Organization 1: a hospital network (clinical hub) ---
	clinic := reactive.New(reactive.Config{Clock: clock})
	must(clinic.DefineHub("C", "hospital network", "IcuPatient", "Hospital"))
	must(clinic.InstallRule(reactive.Rule{
		Name:  "icu-pressure",
		Hub:   "C",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "IcuPatient"},
		Alert: `MATCH (i:IcuPatient {region: NEW.region})
		        WITH NEW.region AS region, count(i) AS occupied
		        WHERE occupied >= 3
		        RETURN region, occupied`,
	}))

	// --- Organization 2: a sequencing consortium (analysis hub) ---
	lab := reactive.New(reactive.Config{Clock: clock})
	must(lab.DefineHub("A", "sequencing consortium", "Sequence"))
	must(lab.InstallRule(reactive.Rule{
		Name:  "variant-surge",
		Hub:   "A",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: "Sequence"},
		Guard: "NEW.variant = 'B.1.351'",
		Alert: `MATCH (s:Sequence {variant: 'B.1.351', region: NEW.region})
		        WITH NEW.region AS region, count(s) AS sequences
		        WHERE sequences >= 2
		        RETURN region, sequences`,
	}))

	// --- Organization 3: the regional authority ---
	authority := reactive.New(reactive.Config{Clock: clock})
	must(authority.DefineHub("R", "regional authority", "Region", "Measure"))
	// The authority's reaction rule watches REPLICATED alerts: when both
	// clinical pressure and a variant surge have been reported for the
	// same region, it enacts a containment measure.
	must(authority.InstallRule(reactive.Rule{
		Name:  "containment",
		Hub:   "R",
		Event: reactive.Event{Kind: reactive.CreateNode, Label: reactive.RemoteAlertLabel},
		Alert: `MATCH (c:RemoteAlert {rule: 'icu-pressure', region: NEW.region})
		        MATCH (v:RemoteAlert {rule: 'variant-surge', region: NEW.region})
		        WITH DISTINCT NEW.region AS region
		        WHERE NOT (:Measure {region: region})-[:Active]->(:Region)
		        RETURN region`,
		Action: `MERGE (r:Region {name: region, hub: 'R'})
		         CREATE (:Measure {region: region, kind: 'containment', hub: 'R'})-[:Active]->(r)`,
	}))

	// --- Wire the federation: one node per organization ---
	srv := httptest.NewServer(node("authority", authority).Handler())
	defer srv.Close()
	senders := []*fednet.Node{node("clinic", clinic), node("lab", lab)}
	for _, s := range senders {
		must(s.Subscribe("authority", srv.URL))
	}

	fmt.Println("federation: clinic → authority, lab → authority")

	// --- The crisis unfolds in each organization independently ---
	for i := 0; i < 3; i++ {
		exec(clinic, fmt.Sprintf(
			`CREATE (:IcuPatient {id: 'p%d', region: 'Lombardy', hub: 'C'})`, i))
	}
	for i := 0; i < 2; i++ {
		exec(lab, fmt.Sprintf(
			`CREATE (:Sequence {id: 's%d', region: 'Lombardy', variant: 'B.1.351', hub: 'A'})`, i))
	}

	report := func(name string, kb *reactive.KnowledgeBase) {
		alerts, err := kb.Alerts()
		must(err)
		fmt.Printf("  %-9s local alerts: %d\n", name, len(alerts))
	}
	fmt.Println("\nbefore sync:")
	report("clinic", clinic)
	report("lab", lab)
	report("authority", authority)

	// --- One federation sync round (in production: fednet's periodic task) ---
	n := 0
	for _, s := range senders {
		sent, err := s.SyncAll(context.Background())
		must(err)
		n += sent
	}
	fmt.Printf("\nsync propagated %d alerts to subscribers\n", n)

	remote, err := reactive.RemoteAlerts(authority)
	must(err)
	fmt.Printf("\nauthority's replicated knowledge (%d remote alerts):\n", len(remote))
	for _, a := range remote {
		fmt.Printf("  from %-8s rule=%-14s region=%s\n",
			a.Props["origin"], a.Rule, a.Props["region"])
	}

	res, err := authority.Query(
		`MATCH (m:Measure)-[:Active]->(r:Region) RETURN m.kind, r.name`, nil)
	must(err)
	fmt.Println("\nenacted measures (the authority's rules reacted to the remote alerts):")
	for _, row := range res.Rows {
		fmt.Printf("  %s for %s\n", row[0], row[1])
	}
}

func node(name string, kb *reactive.KnowledgeBase) *fednet.Node {
	n, err := fednet.NewNode(name, kb, fednet.Options{})
	must(err)
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func exec(kb *reactive.KnowledgeBase, q string) {
	if _, err := kb.Execute(q, nil); err != nil {
		log.Fatalf("%s: %v", q, err)
	}
}
