package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
)

var sim0 = time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)

func newSimKB(t *testing.T) (*KnowledgeBase, *periodic.ManualClock) {
	t.Helper()
	clock := periodic.NewManualClock(sim0)
	kb := New(Config{Clock: clock})
	return kb, clock
}

func execute(kb *KnowledgeBase, query string, params map[string]value.Value) (*trigger.Report, error) {
	_, rep, err := kb.ExecuteReport(query, params)
	return rep, err
}

func exec(t *testing.T, kb *KnowledgeBase, query string) *trigger.Report {
	t.Helper()
	rep, err := execute(kb, query, nil)
	if err != nil {
		t.Fatalf("execute %q: %v", query, err)
	}
	return rep
}

func update(kb *KnowledgeBase, fn func(tx *graph.Tx) error) (*trigger.Report, error) {
	return kb.WriteTx(fn)
}

func queryInt(t *testing.T, kb *KnowledgeBase, query string) int64 {
	t.Helper()
	res, err := kb.Query(query, nil)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	v, ok := res.Value()
	if !ok {
		t.Fatalf("query %q: expected single value, got %d rows", query, len(res.Rows))
	}
	n, _ := v.AsInt()
	return n
}

func TestExecuteFiresRulesAndCommits(t *testing.T) {
	ForEachVariant(t, testExecuteFiresRulesAndCommits)
}

func testExecuteFiresRulesAndCommits(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	if err := kb.InstallRule(trigger.Rule{
		Name:  "watch",
		Hub:   "E",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Mutation"},
		Alert: "RETURN NEW.id AS mid",
	}); err != nil {
		t.Fatal(err)
	}
	rep := exec(t, kb, "CREATE (:Mutation {id: 'M1'})")
	if rep.AlertNodes != 1 {
		t.Fatalf("report: %+v", rep)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Rule != "watch" || alerts[0].Hub != "E" {
		t.Errorf("alerts: %+v", alerts)
	}
	if got := alerts[0].Props["mid"].String(); got != `"M1"` {
		t.Errorf("payload: %v", alerts[0].Props)
	}
	if !alerts[0].DateTime.Equal(sim0) {
		t.Error("alert timestamp should come from the manual clock")
	}
}

func TestQueryIsReadOnly(t *testing.T) { ForEachVariant(t, testQueryIsReadOnly) }

func testQueryIsReadOnly(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	if _, err := kb.Query("CREATE (:X)", nil); err == nil {
		t.Error("write through Query should fail")
	}
	if kb.GraphStats().Nodes != 0 {
		t.Error("no node should be created")
	}
}

func TestStatementCache(t *testing.T) { ForEachVariant(t, testStatementCache) }

func testStatementCache(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	for i := 0; i < 3; i++ {
		exec(t, kb, "CREATE (:N)")
	}
	st := kb.PlanCacheStats()
	if st.Size != 1 {
		t.Errorf("cache entries = %d, want 1", st.Size)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if kb.GraphStats().Nodes != 3 {
		t.Error("all executions should commit")
	}
}

func TestWriteTxFiresRules(t *testing.T) { ForEachVariant(t, testWriteTxFiresRules) }

func testWriteTxFiresRules(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	_ = kb.InstallRule(trigger.Rule{
		Name:  "bulk",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Item"},
		Alert: "RETURN 1 AS x",
	})
	rep, err := update(kb, func(tx *graph.Tx) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.CreateNode([]string{"Item"}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlertNodes != 5 {
		t.Errorf("alert nodes = %d", rep.AlertNodes)
	}
}

func TestRuleErrorRollsBackStatement(t *testing.T) {
	ForEachVariant(t, testRuleErrorRollsBackStatement)
}

func testRuleErrorRollsBackStatement(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	_ = kb.InstallRule(trigger.Rule{
		Name:   "loop",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: "Ping"},
		Action: "CREATE (:Ping)",
	})
	_, err := execute(kb, "CREATE (:Ping)", nil)
	if !errors.Is(err, trigger.ErrCascadeDepth) {
		t.Fatalf("expected cascade error, got %v", err)
	}
	if kb.GraphStats().Nodes != 0 {
		t.Error("failed execute must roll back everything")
	}
}

func TestSchemaIntegration(t *testing.T) {
	kb, _ := newSimKB(t)
	g, err := kb.ApplySchema(`CREATE GRAPH TYPE T STRICT {
		(rt: Region {name STRING, hub STRING}),
		(at: Alert {rule STRING, hub STRING, dateTime DATETIME, OPEN}),
		FOR (x:rt) EXCLUSIVE MANDATORY SINGLETON x.name
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "T" {
		t.Error("schema registration")
	}
	if _, err := kb.Execute("CREATE (:Region {name: 'Lombardy', hub: 'R'})", nil); err != nil {
		t.Fatal(err)
	}
	// Duplicate key via the full pipeline.
	if _, err := kb.Execute("CREATE (:Region {name: 'Lombardy', hub: 'R'})", nil); err == nil {
		t.Error("exclusive key violation should abort")
	}
	// Undeclared label in STRICT mode.
	if _, err := kb.Execute("CREATE (:Rogue)", nil); err == nil {
		t.Error("strict schema should reject unknown labels")
	}
	if _, err := kb.ApplySchema("garbage"); err == nil {
		t.Error("bad schema text")
	}
}

func TestHubIntegration(t *testing.T) {
	kb, _ := newSimKB(t)
	if err := kb.DefineHub("R", "regional hub", "Region"); err != nil {
		t.Fatal(err)
	}
	if err := kb.DefineHub("C", "clinical hub", "Hospital", "Patient"); err != nil {
		t.Fatal(err)
	}
	kb.EnforceHubOwnership()
	if _, err := kb.Execute("CREATE (:Region {name: 'x'})", nil); err == nil {
		t.Error("missing hub property should be rejected")
	}
	if _, err := kb.Execute("CREATE (:Region {name: 'x', hub: 'R'})", nil); err != nil {
		t.Fatalf("valid hub node rejected: %v", err)
	}
	if _, err := kb.Execute(
		"MATCH (r:Region) CREATE (:Hospital {name: 'h', hub: 'C'})-[:LocatedIn]->(r)", nil); err != nil {
		t.Fatal(err)
	}
	st, err := kb.HubStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesPerHub["R"] != 1 || st.NodesPerHub["C"] != 1 || st.InterEdges != 1 {
		t.Errorf("hub stats: %+v", st)
	}
	// Classification uses the hub resolver automatically.
	_ = kb.InstallRule(trigger.Rule{
		Name:  "xhub",
		Hub:   "C",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
		Alert: "MATCH (:Hospital)-[:LocatedIn]->(r:Region) RETURN r.name AS region",
	})
	cls, err := kb.ClassifyRule("xhub")
	if err != nil {
		t.Fatal(err)
	}
	if cls.Scope != trigger.InterHub {
		t.Errorf("classification: %+v", cls)
	}
}

func TestEssentialSummaryLifecycle(t *testing.T) {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableSummaries(24 * time.Hour); err == nil {
		t.Error("double enable should fail")
	}
	_ = kb.InstallRule(trigger.Rule{
		Name:  "daily",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Case"},
		Alert: "RETURN NEW.n AS n",
	})

	exec(t, kb, "CREATE (:Case {n: 1})")
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:Case {n: 2})")

	mgr, err := kb.Summaries()
	if err != nil {
		t.Fatal(err)
	}
	_ = kb.Store().View(func(tx *graph.Tx) error {
		chain := mgr.Chain(tx)
		if len(chain) != 2 {
			t.Fatalf("summary chain length = %d, want 2", len(chain))
		}
		if len(mgr.Alerts(tx, chain[0])) != 1 || len(mgr.Alerts(tx, chain[1])) != 1 {
			t.Error("each period should hold one alert")
		}
		return nil
	})
}

func TestSummaryRolloverTriggersRules(t *testing.T) {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// The Fig. 10 pattern: a rule that reacts to new Summary nodes.
	_ = kb.InstallRule(trigger.Rule{
		Name:  "onPeriod",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Summary"},
		Alert: "RETURN NEW.date AS opened",
	})
	exec(t, kb, "CREATE (:Seed)") // summaries appear on first alert or rollover
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	alerts, _ := kb.Alerts()
	if len(alerts) == 0 {
		t.Fatal("summary creation should fire the rule")
	}
	for _, a := range alerts {
		if a.Rule != "onPeriod" {
			t.Errorf("unexpected alert: %+v", a)
		}
	}
}

func TestSummariesDisabledErrors(t *testing.T) {
	kb, _ := newSimKB(t)
	if _, err := kb.Summaries(); !errors.Is(err, ErrSummariesDisabled) {
		t.Error("Summaries before enable")
	}
	if err := kb.RolloverIfDue(); !errors.Is(err, ErrSummariesDisabled) {
		t.Error("RolloverIfDue before enable")
	}
}

// Tick runs at most one rollover check however far the clock has moved:
// each 24h advance costs one write transaction and closes one period.
func TestTickRunsOneCheckPerCall(t *testing.T) {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	reg := kb.Metrics()
	tick := func() (commits float64) {
		t.Helper()
		before := counterValue(reg, mTxCommits, "")
		if err := kb.Tick(); err != nil {
			t.Fatal(err)
		}
		return counterValue(reg, mTxCommits, "") - before
	}
	// The first check is due an hour after EnableSummaries; it anchors the
	// chain.
	clock.Advance(59 * time.Minute)
	if n := tick(); n != 0 {
		t.Fatalf("Tick before the first check committed %v transactions", n)
	}
	clock.Advance(time.Minute)
	if n := tick(); n != 1 || counterValue(reg, mChainLength, "") != 1 {
		t.Fatalf("first check: %v commits, chain %v; want 1 and 1", n, counterValue(reg, mChainLength, ""))
	}
	for day := 1; day <= 3; day++ {
		clock.Advance(24 * time.Hour)
		if n := tick(); n != 1 {
			t.Fatalf("day %d: Tick committed %v transactions, want 1", day, n)
		}
		if n := tick(); n != 0 {
			t.Fatalf("day %d: a second Tick at the same time committed %v", day, n)
		}
		if got := counterValue(reg, mRollovers, ""); got != float64(day) {
			t.Fatalf("day %d: %v rollovers", day, got)
		}
	}
}

// A failing rollover check returns its error, and the next due check rolls
// over once the fault is gone.
func TestRolloverCheckRetriesAfterError(t *testing.T) {
	kb, clock := newSimKB(t)
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := kb.RolloverIfDue(); err != nil { // anchors the chain
		t.Fatal(err)
	}
	if err := kb.InstallRule(trigger.Rule{
		Name:  "broken",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Summary"},
		Alert: "RETURN NEW.date.bogus AS x",
	}); err != nil {
		t.Fatal(err)
	}
	chain := func() float64 { return counterValue(kb.Metrics(), mChainLength, "") }
	clock.Advance(24 * time.Hour)
	if err := kb.Tick(); err == nil || chain() != 1 {
		t.Fatalf("failing check: err %v, chain %v; want an error and 1", err, chain())
	}
	if err := kb.DropRule("broken"); err != nil {
		t.Fatal(err)
	}
	if err := kb.Tick(); err != nil || chain() != 1 {
		t.Fatalf("Tick before the next check: err %v, chain %v", err, chain())
	}
	clock.Advance(time.Hour)
	if err := kb.Tick(); err != nil || chain() != 2 {
		t.Fatalf("next check: err %v, chain %v; want nil and 2", err, chain())
	}
}

func TestAlertsOrderedByTime(t *testing.T) { ForEachVariant(t, testAlertsOrderedByTime) }

func testAlertsOrderedByTime(t *testing.T, v Variant) {
	kb, clock := v.OpenSim(t)
	_ = kb.InstallRule(trigger.Rule{
		Name:  "t",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "X"},
		Alert: "RETURN NEW.i AS i",
	})
	exec(t, kb, "CREATE (:X {i: 1})")
	clock.Advance(time.Hour)
	exec(t, kb, "CREATE (:X {i: 2})")
	alerts, _ := kb.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	if !alerts[0].DateTime.Before(alerts[1].DateTime) {
		t.Error("alerts should be ordered oldest first")
	}
}

// TestPaperRunningExample wires the four hubs and rules R1, R2 and R4' of
// the paper end to end on a miniature COVID scenario.
func TestPaperRunningExample(t *testing.T) {
	kb, clock := newSimKB(t)
	for _, h := range []struct {
		name, desc string
		labels     []string
	}{
		{"E", "experimental", []string{"Mutation", "Effect"}},
		{"A", "analysis", []string{"Lab", "Sequence", "Variant"}},
		{"C", "clinical", []string{"Hospital", "Patient", "IcuPatient"}},
		{"R", "regional", []string{"Region"}},
	} {
		if err := kb.DefineHub(h.name, h.desc, h.labels...); err != nil {
			t.Fatal(err)
		}
	}
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}

	// R1 (Experimental, intra-hub, single-state): new mutation connected to
	// a critical effect.
	if err := kb.InstallRule(trigger.Rule{
		Name:  "R1",
		Hub:   "E",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Mutation"},
		Alert: `MATCH (NEW)-[:HasEffect]->(ef:Effect {level: 'critical'})
		        RETURN NEW.id AS mutation, ef.type AS effect`,
	}); err != nil {
		t.Fatal(err)
	}
	// R2 (Analysis, inter-hub, single-state): unassigned sequences per
	// region above threshold (threshold 2 for the miniature scenario).
	if err := kb.InstallRule(trigger.Rule{
		Name:  "R2",
		Hub:   "A",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Sequence"},
		Guard: "NEW.variant IS NULL",
		Alert: `MATCH (u:Sequence)-[:SequencedAt]->(:Lab)-[:LocatedIn]->(r:Region)
		        WHERE u.variant IS NULL
		        WITH r, count(u) AS unassigned WHERE unassigned > 2
		        RETURN r.name AS region, unassigned AS counter`,
	}); err != nil {
		t.Fatal(err)
	}
	// R5 (auxiliary, per the R4' walkthrough): each ICU admission records
	// the regional daily count.
	if err := kb.InstallRule(trigger.Rule{
		Name:  "R5",
		Hub:   "C",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
		Alert: `MATCH (NEW)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region)
		        MATCH (i:IcuPatient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r)
		        RETURN r.name AS Region, count(i) AS IcuPatients`,
	}); err != nil {
		t.Fatal(err)
	}

	// Base graph.
	exec(t, kb, `CREATE (:Region {name: 'Lombardy', hub: 'R'})`)
	exec(t, kb, `MATCH (r:Region {name: 'Lombardy'})
	            CREATE (:Lab {name: 'L1', hub: 'A'})-[:LocatedIn]->(r),
	                   (:Hospital {name: 'H1', hub: 'C'})-[:LocatedIn]->(r)`)
	exec(t, kb, `CREATE (:Effect {type: 'vaccine escape', level: 'critical', hub: 'E'})`)

	// R1 fires on a mutation wired to the critical effect. The connection
	// must exist in the same transaction as the creation.
	exec(t, kb, `MATCH (ef:Effect {type: 'vaccine escape'})
	            CREATE (:Mutation {id: 'S:E484K', hub: 'E'})-[:HasEffect]->(ef)`)
	alerts, _ := kb.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "R1" {
		t.Fatalf("after mutation: %+v", alerts)
	}

	// R2: the first two unassigned sequences stay quiet; the third crosses
	// the threshold.
	for i := 0; i < 3; i++ {
		exec(t, kb, `MATCH (l:Lab {name: 'L1'})
		            CREATE (:Sequence {id: 'S`+string(rune('0'+i))+`', hub: 'A'})-[:SequencedAt]->(l)`)
	}
	alerts, _ = kb.Alerts()
	var r2 []Alert
	for _, a := range alerts {
		if a.Rule == "R2" {
			r2 = append(r2, a)
		}
	}
	if len(r2) != 1 {
		t.Fatalf("R2 alerts = %d, want 1 (only the third sequence crosses)", len(r2))
	}
	if r2[0].Props["region"].String() != `"Lombardy"` || r2[0].Props["counter"].String() != "3" {
		t.Errorf("R2 payload: %+v", r2[0].Props)
	}

	// R4' day simulation: 2 ICU patients today, roll over, 3 more tomorrow;
	// the R5 alerts land in distinct periods.
	exec(t, kb, `MATCH (h:Hospital {name: 'H1'})
	            CREATE (:IcuPatient {id: 'P1', hub: 'C'})-[:TreatedAt]->(h)`)
	exec(t, kb, `MATCH (h:Hospital {name: 'H1'})
	            CREATE (:IcuPatient {id: 'P2', hub: 'C'})-[:TreatedAt]->(h)`)
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, `MATCH (h:Hospital {name: 'H1'})
	            CREATE (:IcuPatient {id: 'P3', hub: 'C'})-[:TreatedAt]->(h)`)

	mgr, _ := kb.Summaries()
	var yesterdayMax, todayMax int64
	_ = kb.Store().View(func(tx *graph.Tx) error {
		prev, ok := mgr.Previous(tx, 1)
		if !ok {
			t.Fatal("no previous period")
		}
		for _, aid := range mgr.Alerts(tx, prev) {
			if rv, _ := tx.NodeProp(aid, "rule"); rv.String() == `"R5"` {
				if v, ok := tx.NodeProp(aid, "IcuPatients"); ok {
					if n, _ := v.AsInt(); n > yesterdayMax {
						yesterdayMax = n
					}
				}
			}
		}
		cur, _ := mgr.Current(tx)
		for _, aid := range mgr.Alerts(tx, cur) {
			if rv, _ := tx.NodeProp(aid, "rule"); rv.String() == `"R5"` {
				if v, ok := tx.NodeProp(aid, "IcuPatients"); ok {
					if n, _ := v.AsInt(); n > todayMax {
						todayMax = n
					}
				}
			}
		}
		return nil
	})
	if yesterdayMax != 2 || todayMax != 3 {
		t.Fatalf("ICU counts: yesterday=%d today=%d", yesterdayMax, todayMax)
	}
	// The R4' criticality predicate: (today-yesterday)/today > 0.1.
	if float64(todayMax-yesterdayMax)/float64(todayMax) <= 0.1 {
		t.Error("scenario should be critical per R4'")
	}

	// The rule classifications match §III-C.
	c1, _ := kb.ClassifyRule("R1")
	if c1.Scope != trigger.IntraHub || c1.State != trigger.SingleState {
		t.Errorf("R1 classification: %+v", c1)
	}
	c2, _ := kb.ClassifyRule("R2")
	if c2.Scope != trigger.InterHub || c2.State != trigger.SingleState {
		t.Errorf("R2 classification: %+v", c2)
	}
}

func TestAlertsEmptyStore(t *testing.T) { ForEachVariant(t, testAlertsEmptyStore) }

func testAlertsEmptyStore(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	alerts, err := kb.Alerts()
	if err != nil || len(alerts) != 0 {
		t.Error("empty store alerts")
	}
}

func TestExecuteParseError(t *testing.T) { ForEachVariant(t, testExecuteParseError) }

func testExecuteParseError(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	if _, err := execute(kb, "BOGUS", nil); err == nil || !strings.Contains(err.Error(), "cypher") {
		t.Errorf("parse error: %v", err)
	}
}

func TestCreateIndexAndFastCount(t *testing.T) { ForEachVariant(t, testCreateIndexAndFastCount) }

func testCreateIndexAndFastCount(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	if err := kb.CreateIndex("Patient", "day"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		exec(t, kb, "CREATE (:Patient {day: 1})")
	}
	if n := queryInt(t, kb, "MATCH (p:Patient {day: 1}) RETURN count(p)"); n != 10 {
		t.Errorf("indexed count = %d", n)
	}
}

// TestFig4SchemaGovernsSummaries binds the paper's Fig. 4 EssentialSummary
// graph type (verbatim, in LOOSE mode so domain nodes coexist) and checks
// that the summary machinery produces exactly the structures it declares.
func TestFig4SchemaGovernsSummaries(t *testing.T) {
	kb, clock := newSimKB(t)
	if _, err := kb.ApplySchema(`
	CREATE GRAPH TYPE EssentialSummary LOOSE {
	  (summaryType: Summary {date DATE}),
	  (alertType: Alert {rule STRING, hub STRING, dateTime DATETIME, OPEN}),
	  (currentType: summaryType & Current),
	  (:summaryType)-[nextType: next]->(:summaryType),
	  (:summaryType)-[hasType: has]->(:alertType)
	  FOR (x:summaryType) EXCLUSIVE MANDATORY SINGLETON x.date,
	  FOR (x:alertType) EXCLUSIVE MANDATORY SINGLETON x.dateTime
	}`); err != nil {
		t.Fatal(err)
	}
	if err := kb.EnableSummaries(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	_ = kb.InstallRule(trigger.Rule{
		Name:  "watch",
		Hub:   "C",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Case"},
		Alert: "RETURN NEW.n AS n",
	})
	// Each alert needs a distinct dateTime (the Fig. 4 exclusive key), so
	// the clock advances between events.
	exec(t, kb, "CREATE (:Case {n: 1})")
	clock.Advance(time.Minute)
	exec(t, kb, "CREATE (:Case {n: 2})")
	clock.Advance(25 * time.Hour)
	if err := kb.Tick(); err != nil {
		t.Fatal(err)
	}
	exec(t, kb, "CREATE (:Case {n: 3})")

	// Two alerts violating the exclusive dateTime key abort: without
	// advancing the clock, the second Case's alert collides.
	if _, err := kb.Execute("CREATE (:Case {n: 4}), (:Case {n: 5})", nil); err == nil {
		t.Error("two alerts with identical dateTime must violate the Fig. 4 key")
	}
	// The structure itself conforms: every Summary has a date, the chain
	// uses next, alerts hang off has edges.
	n := queryInt(t, kb, "MATCH (s:Summary) WHERE s.date IS NULL RETURN count(s)")
	if n != 0 {
		t.Error("summary without date")
	}
	if queryInt(t, kb, "MATCH (:Summary)-[:next]->(:Summary:Current) RETURN count(*)") != 1 {
		t.Error("next chain to Current")
	}
	if queryInt(t, kb, "MATCH (:Summary)-[:has]->(:Alert) RETURN count(*)") != 3 {
		t.Error("has edges")
	}
}

func TestInstallRuleTextOnKB(t *testing.T) { ForEachVariant(t, testInstallRuleTextOnKB) }

func testInstallRuleTextOnKB(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	r, err := kb.InstallRuleText(`CREATE TRIGGER dsl ON HUB E
AFTER CREATE OF NODE Mutation
ALERT RETURN NEW.id AS mid`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "dsl" {
		t.Errorf("rule: %+v", r)
	}
	exec(t, kb, "CREATE (:Mutation {id: 'M'})")
	alerts, _ := kb.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "dsl" {
		t.Errorf("alerts: %+v", alerts)
	}
}

func TestCheckConfluenceOnKB(t *testing.T) {
	kb, _ := newSimKB(t)
	_ = kb.InstallRule(trigger.Rule{
		Name: "w1", Event: trigger.Event{Kind: trigger.CreateNode, Label: "X"},
		Action: "MATCH (r:Cfg) SET r.mode = 1",
	})
	_ = kb.InstallRule(trigger.Rule{
		Name: "w2", Event: trigger.Event{Kind: trigger.CreateNode, Label: "X"},
		Action: "MATCH (r:Cfg) SET r.mode = 2",
	})
	if warns := kb.CheckConfluence(); len(warns) != 1 {
		t.Errorf("confluence warnings: %v", warns)
	}
}

func TestSaveLoadGraphOnKB(t *testing.T) {
	kb, _ := newSimKB(t)
	exec(t, kb, "CREATE (:Keep {v: 1})-[:R]->(:Keep {v: 2})")
	var buf bytes.Buffer
	if err := kb.SaveGraph(&buf); err != nil {
		t.Fatal(err)
	}
	kb2, _ := newSimKB(t)
	if err := kb2.LoadGraph(&buf); err != nil {
		t.Fatal(err)
	}
	if n := queryInt(t, kb2, "MATCH (:Keep)-[:R]->(k:Keep) RETURN k.v"); n != 2 {
		t.Errorf("restored traversal: %d", n)
	}
}

func TestConcurrentExecutes(t *testing.T) { ForEachVariant(t, testConcurrentExecutes) }

func testConcurrentExecutes(t *testing.T, v Variant) {
	kb, _ := v.OpenSim(t)
	_ = kb.InstallRule(trigger.Rule{
		Name:  "cc",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Evt"},
		Alert: "RETURN NEW.i AS i",
	})
	const workers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := kb.ExecuteReport("CREATE (:Evt {i: $i})",
					map[string]value.Value{"i": value.Int(int64(w*each + i))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != workers*each {
		t.Errorf("alerts = %d, want %d", len(alerts), workers*each)
	}
	if kb.GraphStats().Nodes != 2*workers*each { // events + alert nodes
		t.Errorf("nodes = %d", kb.GraphStats().Nodes)
	}
	// Rule stats agree.
	infos := kb.Rules()
	if infos[0].Stats.AlertNodes != int64(workers*each) {
		t.Errorf("rule stats: %+v", infos[0].Stats)
	}
}
