package bench

// Federated-replication series: alerts produced on one knowledge base are
// pushed over HTTP to a second one (internal/fednet), sweeping the push
// batch size. The measured axes are replication lag for a backlog of N
// alerts and the per-alert cost; the delivered count doubles as an
// exactly-once check — it must equal N at every point.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fednet"
	"repro/internal/trigger"
)

// FedPoint is one (alerts, batch-size) replication measurement.
type FedPoint struct {
	Alerts   int
	Batch    int           // alerts per push request
	Elapsed  time.Duration // one sync round draining the whole backlog
	PerAlert time.Duration // Elapsed / Alerts
	Requests int64         // HTTP push requests the round took
	Received int           // RemoteAlert nodes on the receiver afterwards
	PushHist string        // rkm_fed_push_seconds summary (last rep)
}

// fedRule fires one alert per admission, like the clinical hub's R1.
var fedRule = trigger.Rule{
	Name:  "icu",
	Hub:   "C",
	Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
	Alert: "RETURN NEW.region AS region",
}

// RunFedLag measures, for each backlog size in cfg.PatientCounts and each
// batch size, how long one federation sync round takes to drain the backlog
// into a fresh receiver over a real HTTP hop (httptest, loopback).
func RunFedLag(cfg Config, batches []int) ([]FedPoint, error) {
	cfg = cfg.withDefaults()
	var out []FedPoint
	for _, n := range cfg.PatientCounts {
		for _, batch := range batches {
			var elapsed []time.Duration
			var pt FedPoint
			for rep := 0; rep < cfg.Reps; rep++ {
				p, err := runFedOnce(n, batch)
				if err != nil {
					return nil, err
				}
				elapsed = append(elapsed, p.Elapsed)
				pt = p
			}
			pt.Elapsed = medianDuration(elapsed)
			pt.PerAlert = pt.Elapsed / time.Duration(n)
			out = append(out, pt)
		}
	}
	return out, nil
}

func runFedOnce(n, batch int) (FedPoint, error) {
	src := newKB()
	if err := src.InstallRule(fedRule); err != nil {
		return FedPoint{}, err
	}
	dst := newKB()
	receiver, err := fednet.NewNode("receiver", dst, fednet.Options{})
	if err != nil {
		return FedPoint{}, err
	}
	var requests atomic.Int64
	inner := receiver.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	sender, err := fednet.NewNode("sender", src, fednet.Options{BatchSize: batch})
	if err != nil {
		return FedPoint{}, err
	}
	if err := sender.Subscribe("receiver", ts.URL); err != nil {
		return FedPoint{}, err
	}

	// Build the backlog: one alert per admission.
	for i := 0; i < n; i++ {
		region := fmt.Sprintf("R%02d", i%20)
		if _, err := src.Execute(
			"CREATE (:IcuPatient {region: '"+region+"', hub: 'C'})", nil); err != nil {
			return FedPoint{}, err
		}
	}

	t0 := time.Now()
	sent, err := sender.SyncAll(context.Background())
	d := time.Since(t0)
	if err != nil {
		return FedPoint{}, err
	}
	if sent != n {
		return FedPoint{}, fmt.Errorf("fed bench: delivered %d of %d alerts", sent, n)
	}
	received, err := countRemote(dst)
	if err != nil {
		return FedPoint{}, err
	}
	if received != n {
		return FedPoint{}, fmt.Errorf("fed bench: receiver materialized %d of %d alerts", received, n)
	}
	// A retried or split push would be timed as lag: one request per batch.
	reqs := requests.Load()
	if want := int64((n + batch - 1) / batch); reqs != want {
		return FedPoint{}, fmt.Errorf("fed bench: %d push requests for %d alerts in batches of %d, want %d",
			reqs, n, batch, want)
	}
	return FedPoint{
		Alerts:   n,
		Batch:    batch,
		Elapsed:  d,
		Requests: reqs,
		Received: received,
		PushHist: histSummary(src, "rkm_fed_push_seconds"),
	}, nil
}

func countRemote(kb *core.KnowledgeBase) (int, error) {
	remote, err := fednet.RemoteAlerts(kb)
	if err != nil {
		return 0, err
	}
	return len(remote), nil
}

// WriteFed renders the replication table.
func WriteFed(w io.Writer, pts []FedPoint) {
	fmt.Fprintln(w, "Federated replication: backlog drain over HTTP (internal/fednet)")
	fmt.Fprintln(w, "  alerts    batch    elapsed      per-alert   requests   received")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %8d %10s %12s %10d %10d\n",
			p.Alerts, p.Batch, p.Elapsed.Round(time.Microsecond),
			p.PerAlert.Round(time.Nanosecond), p.Requests, p.Received)
	}
	if len(pts) == 0 {
		return
	}
	// Per-batch push-latency distributions, at the largest backlog only.
	largest := pts[len(pts)-1].Alerts
	for _, p := range pts {
		if p.Alerts == largest && p.PushHist != "" {
			fmt.Fprintf(w, "push latency (N=%d, batch=%d): %s\n", p.Alerts, p.Batch, p.PushHist)
		}
	}
}
