// Command rkm-shell is an interactive Cypher shell over a reactive
// knowledge base. Statements terminated by ';' run through the full
// reactive pipeline (rules fire, summaries update); lines starting with ':'
// are meta commands.
//
//	rkm-shell                 # empty knowledge base
//	rkm-shell -init seed.cyp  # run the statements of a file first
//	rkm-shell -demo           # load the paper's four-hub COVID scenario
//
// Meta commands:
//
//	:rules            list installed rules with classifications
//	:alerts           list alert nodes
//	:stats            graph and hub statistics
//	:hubs             list hubs and owned labels
//	:fed              federation state: received remote alerts, outbox marks
//	:tick [h]         advance the simulated clock by h hours (default 24) and
//	                  run due periodic tasks (summary rollover)
//	:save <file>      export the knowledge graph as JSON
//	:load <file>      import a JSON export into this (empty) knowledge base
//	:help             this text
//	:quit             exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	reactive "repro"
	"repro/internal/democovid"
	"repro/internal/fednet"
)

func main() {
	var (
		initFile = flag.String("init", "", "file of ';'-terminated statements to run at startup")
		demo     = flag.Bool("demo", false, "load the paper's four-hub COVID-19 demo scenario")
	)
	flag.Parse()

	clock := reactive.NewManualClock(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC))
	kb := reactive.New(reactive.Config{Clock: clock})
	if *demo {
		if err := democovid.Setup(kb); err != nil {
			fatalf("demo setup: %v", err)
		}
		fmt.Println("loaded demo: 4 hubs (E, A, C, R), rules R1/R2/R3/R5, 24h summaries")
	}
	if *initFile != "" {
		data, err := os.ReadFile(*initFile)
		if err != nil {
			fatalf("init: %v", err)
		}
		for _, stmt := range splitStatements(string(data)) {
			if reactive.IsTriggerStatement(stmt) {
				if _, err := kb.InstallRuleText(stmt); err != nil {
					fatalf("init trigger %q: %v", stmt, err)
				}
				continue
			}
			if _, err := kb.Execute(stmt, nil); err != nil {
				fatalf("init statement %q: %v", stmt, err)
			}
		}
	}

	fmt.Println("rkm-shell — reactive knowledge management (:help for commands)")
	repl(kb, clock)
}

func repl(kb *reactive.KnowledgeBase, clock *reactive.ManualClock) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("rkm> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ":") {
			if !meta(kb, clock, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if stmt != "" {
				runStatement(kb, stmt)
			}
		}
		prompt()
	}
}

func runStatement(kb *reactive.KnowledgeBase, stmt string) {
	if reactive.IsTriggerStatement(stmt) {
		r, err := kb.InstallRuleText(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("installed trigger %s (on %s)\n", r.Name, r.Event)
		return
	}
	res, rep, err := kb.ExecuteReport(stmt, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res)
	if rep != nil && (rep.GuardChecks > 0 || rep.AlertNodes > 0) {
		fmt.Printf("-- rules: %d guard checks, %d alert nodes, %d rounds\n",
			rep.GuardChecks, rep.AlertNodes, rep.Rounds)
	}
}

func printResult(res *reactive.Result) {
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, " | "))
		}
		fmt.Printf("(%d row(s))\n", len(res.Rows))
	}
	st := res.Stats
	if st.NodesCreated+st.NodesDeleted+st.RelsCreated+st.RelsDeleted+st.PropsSet+st.LabelsAdded+st.LabelsRemoved > 0 {
		fmt.Printf("-- writes: +%dn -%dn +%dr -%dr, %d props, +%d/-%d labels\n",
			st.NodesCreated, st.NodesDeleted, st.RelsCreated, st.RelsDeleted,
			st.PropsSet, st.LabelsAdded, st.LabelsRemoved)
	}
}

func meta(kb *reactive.KnowledgeBase, clock *reactive.ManualClock, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return false
	case ":help":
		fmt.Println(":rules :alerts :stats :hubs :fed :check :apoc :explain <q> :explain rule <name> :tick [hours] :save <file> :load <file> :quit")
	case ":rules":
		for _, r := range kb.Rules() {
			state := ""
			if r.Paused {
				state = " (paused)"
			}
			fmt.Printf("%-12s hub=%-4s on %-28s %s, %s%s\n",
				r.Name, r.Hub, r.Event, r.Classification.Scope,
				r.Classification.State, state)
		}
	case ":alerts":
		alerts, err := kb.Alerts()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, a := range alerts {
			fmt.Printf("%s  rule=%s hub=%s %v\n",
				a.DateTime.Format(time.RFC3339), a.Rule, a.Hub, a.Props)
		}
		fmt.Printf("(%d alert(s))\n", len(alerts))
	case ":stats":
		g := kb.GraphStats()
		fmt.Printf("nodes=%d rels=%d labels=%d relTypes=%d indexes=%d\n",
			g.Nodes, g.Relationships, g.Labels, g.RelTypes, g.Indexes)
		if hs, err := kb.HubStats(); err == nil {
			fmt.Printf("per-hub: %v (unassigned %d); intra=%d inter=%d edges\n",
				hs.NodesPerHub, hs.Unassigned, hs.IntraEdges, hs.InterEdges)
		}
		pc := kb.PlanCacheStats()
		ratio := 0.0
		if total := pc.Hits + pc.Misses; total > 0 {
			ratio = float64(pc.Hits) / float64(total)
		}
		fmt.Printf("plan cache: %d plan(s), %d hit(s) / %d miss(es) (%.0f%% hit ratio)\n",
			pc.Size, pc.Hits, pc.Misses, 100*ratio)
		printMetrics(kb)
	case ":hubs":
		for _, h := range kb.Hubs().Hubs() {
			fmt.Printf("%-4s %-30s labels: %v\n", h.Name, h.Description,
				kb.Hubs().OwnedLabels(h.Name))
		}
	case ":fed":
		info, err := fednet.Inspect(kb)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if len(info.RemoteByOrigin) == 0 && len(info.OutboxMarks) == 0 {
			fmt.Println("no federation state (no RemoteAlert nodes, no outbox marks)")
			break
		}
		for origin, count := range info.RemoteByOrigin {
			fmt.Printf("received from %-12s %d alert(s)\n", origin, count)
		}
		for peer, mark := range info.OutboxMarks {
			fmt.Printf("outbox to %-12s acked through alert id %d\n", peer, mark)
		}
	case ":tick":
		hours := 24
		if len(fields) > 1 {
			if n, err := strconv.Atoi(fields[1]); err == nil && n > 0 {
				hours = n
			}
		}
		clock.Advance(time.Duration(hours) * time.Hour)
		if err := kb.Tick(); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("clock now %s\n", kb.Now().Format(time.RFC3339))
	case ":explain":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, ":explain"))
		if rest == "" {
			fmt.Println("usage: :explain MATCH ... RETURN ... | :explain rule <name>")
			break
		}
		explain := kb.ExplainQuery
		if len(fields) == 3 && fields[1] == "rule" {
			rest, explain = fields[2], kb.ExplainAlert
		}
		plan, err := explain(rest)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(plan)
	case ":apoc":
		exp := kb.TranslateRulesAPOC("neo4j", "before")
		for _, t := range append(exp.Triggers, exp.Composite...) {
			fmt.Println(t)
			fmt.Println()
		}
		for _, sk := range append(exp.Skipped, exp.CompositeSkipped...) {
			fmt.Println("// skipped:", sk)
		}
	case ":check":
		cycles := kb.CheckTermination()
		if len(cycles) == 0 {
			fmt.Println("termination: triggering graph is acyclic")
		} else {
			for _, c := range cycles {
				fmt.Println("termination: cycle", strings.Join(c, " -> "))
			}
		}
		warns := kb.CheckConfluence()
		if len(warns) == 0 {
			fmt.Println("confluence: no order-dependent rule pairs detected")
		}
		for _, w := range warns {
			fmt.Println("confluence:", w)
		}
	case ":save":
		if len(fields) < 2 {
			fmt.Println("usage: :save <file>")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		err = kb.SaveGraph(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("saved", fields[1])
	case ":load":
		if len(fields) < 2 {
			fmt.Println("usage: :load <file>")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		err = kb.LoadGraph(f)
		_ = f.Close()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("loaded", fields[1])
	default:
		fmt.Printf("unknown meta command %s (:help)\n", fields[0])
	}
	return true
}

// printMetrics prints the nonzero instrumentation of this session: counters
// with their label values, and histogram summaries (count/mean/quantiles).
// Gauges are skipped — :stats already reports the graph cardinalities they
// mirror.
func printMetrics(kb *reactive.KnowledgeBase) {
	printed := false
	for _, fam := range kb.Metrics().Gather() {
		for _, s := range fam.Samples {
			var line string
			switch {
			case fam.Type == "histogram" && s.Hist != nil && s.Hist.Count > 0:
				line = s.Hist.Summary()
			case fam.Type == "counter" && s.Value > 0:
				line = strconv.FormatFloat(s.Value, 'g', -1, 64)
			default:
				continue
			}
			if !printed {
				fmt.Println("metrics (nonzero):")
				printed = true
			}
			name := fam.Name
			if fam.Label != "" {
				name += "{" + fam.Label + "=" + strconv.Quote(s.LabelValue) + "}"
			}
			fmt.Printf("  %-50s %s\n", name, line)
		}
	}
}

// splitStatements splits a script on ';' terminators. Comment-only lines
// (starting with //) are dropped first, so semicolons inside comments do
// not terminate statements. Semicolons inside string literals are not
// supported in script files.
func splitStatements(src string) []string {
	var clean []string
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		clean = append(clean, line)
	}
	var out []string
	for _, frag := range strings.Split(strings.Join(clean, "\n"), ";") {
		stmt := strings.TrimSpace(frag)
		if stmt != "" {
			out = append(out, stmt)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rkm-shell: "+format+"\n", args...)
	os.Exit(1)
}
