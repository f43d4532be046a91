// Command metricnames prints, one per line and sorted, every metric name a
// fully wired knowledge base registers: it opens a durable knowledge base
// under a throwaway directory (wiring the write-ahead-log
// metrics), loads the four-hub demo (wiring rules and summaries), wraps it
// in a federation node (wiring the fed_* delivery metrics) and makes it a
// replication leader with one attached follower (wiring the replica_*
// metrics on both roles). It dumps the union of the registries.
//
// scripts/check_metrics_docs.sh diffs this output against the metric names
// documented in OBSERVABILITY.md, so the catalog cannot drift from the code.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"

	reactive "repro"
	"repro/internal/cep"
	"repro/internal/democovid"
	"repro/internal/fednet"
	"repro/internal/replica"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("metricnames: ")
	dir, err := os.MkdirTemp("", "rkm-metricnames-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	kb, _, err := reactive.OpenDurable(dir, reactive.Config{}, reactive.WALOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer kb.Close()
	if err := democovid.Setup(kb); err != nil {
		log.Fatal(err)
	}
	// Composite-event management registers the rkm_cep_* instruments.
	if _, err := cep.Enable(kb, cep.Options{}); err != nil {
		log.Fatal(err)
	}
	if _, err := fednet.NewNode("metricnames", kb, fednet.Options{}); err != nil {
		log.Fatal(err)
	}

	// Leader role registers its replica_* shipping metrics on kb; a follower
	// of it registers the lag/apply metrics on its own registry.
	ld, err := replica.NewLeader(kb, replica.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	fol, err := replica.OpenFollower("", srv.URL, reactive.Config{}, replica.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fol.Close()

	seen := map[string]bool{}
	for _, reg := range []*reactive.MetricsRegistry{kb.Metrics(), fol.KB().Metrics()} {
		for _, name := range reg.Names() {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Println(name)
	}
}
