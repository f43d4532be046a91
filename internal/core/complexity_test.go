package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/summary"
	"repro/internal/trigger"
	"repro/internal/value"
)

// TestComplexityContracts pins how the engine's work counters grow with
// what it holds. Each row measures one counter (or the allocations of one
// call) after the same operation at several sizes and wants the same value
// at every size, or a value that grows at most by a bounded ratio: a row
// whose counter grows with the size has lost a shared evaluation, an index
// or structural sharing, whatever the wall clock says.
func TestComplexityContracts(t *testing.T) {
	rows := []struct {
		name  string
		sizes []int
		// measure builds a knowledge base of size n, performs the row's
		// operation and returns the counter the row constrains.
		measure func(t *testing.T, n int) int
		// want is the value at every size; -1 accepts whatever the
		// smallest size gives.
		want int
		// ratio, when set, replaces want: the value at every size may be at
		// most ratio times the value at the smallest.
		ratio float64
	}{{
		// E1: a single-patient commit copies the root-to-leaf paths it
		// writes in the node and relationship tables, the label,
		// relationship-type and property-index posting sets — a few nodes
		// per table, growing with the tries' depth (log₃₂ of the graph),
		// not with the graph.
		name:  "single-patient commit copies trie paths",
		sizes: []int{1000, 30000},
		measure: func(t *testing.T, n int) int {
			kb, admit := e1Graph(t, 40, n)
			copied := kb.Metrics().Counter(mSnapCopied, "")
			before := copied.Value()
			admit(n)
			return int(copied.Value() - before)
		},
		ratio: 2,
	}, {
		// E1 at a hub: each admission adds an edge to its hospital, whose
		// record the commit copies. The copy shares the hospital's
		// adjacency, so the bytes a commit allocates do not grow with the
		// hospital's degree n. The graph holds 10⁴ patients at every size,
		// spread over 10⁴/n hospitals.
		name:  "single-patient commit allocates bytes independent of hospital degree",
		sizes: []int{100, 10000},
		measure: func(t *testing.T, n int) int {
			const patients, admissions = 10000, 10
			_, admit := e1Graph(t, patients/n, patients)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < admissions; i++ {
				admit(patients + i)
			}
			runtime.ReadMemStats(&after)
			return int(after.TotalAlloc-before.TotalAlloc) / admissions
		},
		ratio: 1.5,
	}, {
		// n threshold rules NEW.account = 'acct-i' form one guard family:
		// one Txn event reads NEW.account once, however many rules it
		// checks. The event's account is the last rule's, so no pass
		// clears the memo before every other member has compared.
		name:  "guard family read once per event",
		sizes: []int{10, 1000},
		measure: func(t *testing.T, n int) int {
			kb, _ := newSimKB(t)
			for i := 0; i < n; i++ {
				if err := kb.InstallRule(trigger.Rule{
					Name:  fmt.Sprintf("thr-%04d", i),
					Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
					Guard: fmt.Sprintf("NEW.account = 'acct-%04d'", i),
				}); err != nil {
					t.Fatal(err)
				}
			}
			_, rep, err := kb.ExecuteReport("CREATE (:Txn {account: $a})",
				map[string]value.Value{"a": value.Str(fmt.Sprintf("acct-%04d", n-1))})
			if err != nil {
				t.Fatal(err)
			}
			if rep.GuardChecks != n || len(rep.Activations) != 1 {
				t.Fatalf("n=%d: GuardChecks = %d, activations = %d; want %d and 1",
					n, rep.GuardChecks, len(rep.Activations), n)
			}
			return rep.GuardEvals
		},
		want: 1,
	}, {
		// E2: a window of the last 3 periods walks 3 steps back from
		// Current, however long the Essential Summary chain has grown.
		name:  "summary window reads k periods",
		sizes: []int{10, 1000},
		measure: func(t *testing.T, n int) int {
			kb, clock := newSimKB(t)
			if err := kb.EnableSummaries(24 * time.Hour); err != nil {
				t.Fatal(err)
			}
			mgr, _ := kb.Summaries()
			if err := kb.Store().Update(func(tx *graph.Tx) error {
				for i := 0; i < n; i++ {
					if i > 0 {
						if _, err := mgr.Rollover(tx, clock.Advance(24*time.Hour)); err != nil {
							return err
						}
					}
					id, err := tx.CreateNode([]string{"Alert"}, map[string]value.Value{
						"rule": value.Str("R"), "cases": value.Int(int64(i)),
					})
					if err != nil {
						return err
					}
					if err := mgr.AttachAlert(tx, id, clock.Now()); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			f := summary.WindowFilter{Rule: "R", Prop: "cases"}
			tx := kb.Store().Begin(graph.ReadOnly)
			defer tx.Rollback()
			if w := mgr.Window(tx, 3, f); len(w) != 3 || w[2].String() != fmt.Sprint(n-1) {
				t.Fatalf("n=%d: window %v", n, w)
			}
			return int(testing.AllocsPerRun(20, func() { mgr.Window(tx, 3, f) }))
		},
		want: -1,
	}, {
		// The demo pack's R5 counts the region's ICU patients on every
		// admission. The engine keeps that count per region and folds the
		// new patient in, so an admission allocates the same bytes in a
		// region of n patients as in a small one.
		name:  "ICU admission allocates bytes independent of region size",
		sizes: []int{100, 10000},
		measure: func(t *testing.T, n int) int {
			return countedAlertBytes(t, n, "IcuPatient", `MATCH (h:Hospital) CREATE (:IcuPatient)-[:TreatedAt]->(h)`)
		},
		ratio: 1.5,
	}, {
		// R2 and R3 count the region's unassigned and critical sequences on
		// every unassigned sequence, kept the same way.
		name:  "unassigned sequence allocates bytes independent of region size",
		sizes: []int{100, 10000},
		measure: func(t *testing.T, n int) int {
			return countedAlertBytes(t, n, "Sequence", `MATCH (l:Lab) CREATE (:Sequence)-[:SequencedAt]->(l)`)
		},
		ratio: 1.5,
	}, {
		// R4′ compares an admission's count with the max of the region's R5
		// counts in the previous Summary. The engine keeps that max per
		// region; new R5 alerts attach to Current and leave it as it is, so
		// an admission allocates the same bytes after a period of n alerts
		// as after a short one.
		name:  "ICU admission allocates bytes independent of the previous period's alerts",
		sizes: []int{100, 10000},
		measure: func(t *testing.T, n int) int {
			return previousPeriodAlertBytes(t, n)
		},
		ratio: 1.5,
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want := row.want
			for i, n := range row.sizes {
				got := row.measure(t, n)
				switch {
				case row.ratio > 0 && i == 0:
					want = got
				case row.ratio > 0:
					if float64(got) > row.ratio*float64(want) {
						t.Errorf("size %d: %d, want at most %.1f times the %d at size %d", n, got, row.ratio, want, row.sizes[0])
					}
				case want < 0:
					want = got
				case got != want:
					t.Errorf("size %d: %d, want %d at every size", n, got, want)
				}
				t.Logf("size %d: %d", n, got)
			}
		})
	}
}

// e1Graph returns a knowledge base with a (Patient, regionDay) index and n
// patients admitted round-robin into the given number of hospitals, each by
// a TreatedAt edge, and a function that admits patient i into the first
// hospital in a write transaction of its own.
func e1Graph(t *testing.T, hospitals, n int) (*KnowledgeBase, func(i int)) {
	kb, _ := newSimKB(t)
	if err := kb.CreateIndex("Patient", "regionDay"); err != nil {
		t.Fatal(err)
	}
	admit := func(tx *graph.Tx, h graph.NodeID, i int) error {
		p, err := tx.CreateNode([]string{"Patient"}, map[string]value.Value{
			"id": value.Str(fmt.Sprintf("p%d", i)), "regionDay": value.Str(fmt.Sprintf("R%d#0", i%4)),
		})
		if err != nil {
			return err
		}
		_, err = tx.CreateRel(p, h, "TreatedAt", nil)
		return err
	}
	var hs []graph.NodeID
	if err := kb.Store().Update(func(tx *graph.Tx) error {
		for i := 0; i < hospitals; i++ {
			h, err := tx.CreateNode([]string{"Hospital"}, nil)
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		for i := 0; i < n; i++ {
			if err := admit(tx, hs[i%len(hs)], i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kb, func(i int) {
		if _, err := kb.WriteTx(func(tx *graph.Tx) error { return admit(tx, hs[0], i) }); err != nil {
			t.Fatal(err)
		}
	}
}

// countedAlertBytes builds one region with a lab, a hospital and n nodes of
// label (ICU patients or unassigned sequences) reaching it, under the demo
// pack's R5, R2 and R3 alerts, and returns the mean TotalAlloc bytes of ten
// commits of stmt, after one that primes the kept counts.
func countedAlertBytes(t *testing.T, n int, label, stmt string) int {
	kb, _ := newSimKB(t)
	for _, r := range []trigger.Rule{{
		Name:  "R5",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
		Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
		        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
		        RETURN r.name AS Region, count(i) AS IcuPatients`,
	}, {
		Name:  "R2",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: `MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
		        MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
		        WHERE u.variant IS NULL
		        WITH r.name AS region, count(u) AS counter
		        WHERE counter > 3
		        RETURN region, counter`,
	}, {
		Name:  "R3",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: `MATCH (NEW)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
		        MATCH (s:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r)
		        MATCH (s)-[:AssignedTo]->(:Variant)-[:Contains]->(:Mutation)
		              -[:HasEffect]->(:Effect {level: 'critical'})
		        WITH r.name AS region, count(DISTINCT s) AS critical
		        WHERE critical > 3
		        RETURN region, critical`,
	}} {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := kb.Store().Update(func(tx *graph.Tx) error {
		_, err := cypher.Run(tx, `CREATE (r:Region {name: 'r'}), (l:Lab)-[:LocatedIn]->(r), (h:Hospital)-[:LocatedIn]->(r)
		                          WITH l, h UNWIND range(1, $n) AS i
		                          CREATE (:IcuPatient)-[:TreatedAt]->(h), (:Sequence)-[:SequencedAt]->(l)`,
			&cypher.Options{Params: map[string]value.Value{"n": value.Int(int64(n))}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const commits = 10
	exec(t, kb, stmt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < commits; i++ {
		exec(t, kb, stmt)
	}
	runtime.ReadMemStats(&after)
	if got := kb.Store().LabelCount(label); got != n+1+commits {
		t.Fatalf("%d %s nodes, want %d", got, label, n+1+commits)
	}
	return int(after.TotalAlloc-before.TotalAlloc) / commits
}

// previousPeriodAlertBytes builds one region with a hospital under the demo
// pack's R5 and R4′ alerts, a previous Summary holding n R5 alerts (of the
// region and of another) and an empty Current one, and returns the mean
// TotalAlloc bytes of ten ICU admissions, after one that primes the kept
// aggregates.
func previousPeriodAlertBytes(t *testing.T, n int) int {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, r := range []trigger.Rule{{
		Name:  "R5",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
		Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
		        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
		        RETURN r.name AS Region, count(i) AS IcuPatients`,
	}, {
		Name:  "R4",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
		Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
		        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
		        WITH r.name AS Region, count(i) AS TodayIcu
		        MATCH (a:Alert {rule: 'R5', Region: Region})<-[:has]-(s:Summary)-[:next]->(:Current)
		        WITH Region, TodayIcu, max(a.IcuPatients) AS YesterdayIcu
		        WHERE toFloat(TodayIcu - YesterdayIcu) / toFloat(TodayIcu) > 0.1
		        RETURN Region, TodayIcu, YesterdayIcu`,
	}} {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	mgr, _ := kb.Summaries()
	if err := kb.Store().Update(func(tx *graph.Tx) error {
		if _, err := cypher.Run(tx, `CREATE (r:Region {name: 'r'}), (:Hospital)-[:LocatedIn]->(r)`, nil); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			id, err := tx.CreateNode([]string{trigger.AlertLabel}, map[string]value.Value{
				"rule": value.Str("R5"), "Region": value.Str([]string{"r", "elsewhere"}[i%2]),
				"IcuPatients": value.Int(int64(i)),
			})
			if err != nil {
				return err
			}
			if err := mgr.AttachAlert(tx, id, clock.Now()); err != nil {
				return err
			}
		}
		_, err := mgr.Rollover(tx, clock.Advance(24*time.Hour))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const admissions = 10
	admit := `MATCH (h:Hospital) CREATE (:IcuPatient)-[:TreatedAt]->(h)`
	exec(t, kb, admit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < admissions; i++ {
		exec(t, kb, admit)
	}
	runtime.ReadMemStats(&after)
	tx := kb.Store().Begin(graph.ReadOnly)
	defer tx.Rollback()
	if got := len(mgr.Alerts(tx, mgr.Chain(tx)[0])); got != n {
		t.Fatalf("%d alerts in the previous Summary, want %d", got, n)
	}
	return int(after.TotalAlloc-before.TotalAlloc) / admissions
}
