package bench

// Replica series: aggregate read throughput versus replica count under
// sustained write load.
//
// One durable leader (Fsync: interval — the realistic server setting) takes
// a continuous stream of single-node write transactions while serving the
// WAL-shipping endpoints over HTTP. For each point, k followers bootstrap
// from the leader's snapshot and stream its tail; a fixed pool of reader
// goroutines per serving instance runs count queries against the local
// store — against the leader when k = 0 (the baseline every replica
// deployment starts from), against the followers only when k > 0 (followers
// take all snapshot reads, the leader keeps writing). Because each follower
// brings its own MVCC snapshot, aggregate read QPS should scale roughly
// linearly with k while the write rate stays flat, bounded only by
// replication lag — which the point also reports.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/replica"
	"repro/internal/value"
	"repro/internal/wal"
)

// ReplicaConfig parameterizes the replica series.
type ReplicaConfig struct {
	// Nodes is the number of Person nodes seeded before followers attach.
	Nodes int
	// Followers is the sweep over follower counts (0 = leader-only baseline).
	Followers []int
	// ReadersPerInstance is the reader-goroutine pool attached to each
	// serving instance (leader at k = 0, each follower at k > 0).
	ReadersPerInstance int
	// Window is how long each point measures.
	Window time.Duration
	Seed   int64
}

func (c ReplicaConfig) withDefaults() ReplicaConfig {
	if c.Nodes <= 0 {
		c.Nodes = 2000
	}
	if len(c.Followers) == 0 {
		c.Followers = []int{0, 1, 2}
	}
	if c.ReadersPerInstance <= 0 {
		c.ReadersPerInstance = 4
	}
	if c.Window <= 0 {
		c.Window = 400 * time.Millisecond
	}
	return c
}

// ReplicaPoint is one follower-count measurement.
type ReplicaPoint struct {
	Followers     int
	Readers       int // total reader goroutines across serving instances
	Reads         int64
	ReadsPerSec   float64
	WriterTxs     int64   // leader write transactions inside the window
	LagRecords    uint64  // worst follower record lag at window end
	LagSeconds    float64 // worst follower staleness at window end
	CatchUpPct    float64 // worst follower applied/leader seq ratio at end
	PerReaderQPS  float64
	SpeedupVsBase float64 // aggregate QPS / the k=0 baseline QPS
}

// RunReplicaScaling measures aggregate read throughput for each follower
// count under an identical sustained write load.
func RunReplicaScaling(cfg ReplicaConfig) ([]ReplicaPoint, error) {
	cfg = cfg.withDefaults()
	var out []ReplicaPoint
	var base float64
	for _, k := range cfg.Followers {
		p, err := runReplicaOnce(cfg, k)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			base = p.ReadsPerSec
		}
		if base > 0 {
			p.SpeedupVsBase = p.ReadsPerSec / base
		}
		out = append(out, p)
	}
	return out, nil
}

// seedPersons creates n Person nodes in one transaction.
func seedPersons(kb *core.KnowledgeBase, n int) error {
	return kb.Store().Update(func(tx *graph.Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.CreateNode([]string{"Person"},
				map[string]value.Value{"i": value.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
}

func runReplicaOnce(cfg ReplicaConfig, followers int) (ReplicaPoint, error) {
	dir, err := os.MkdirTemp("", "rkm-bench-replica-*")
	if err != nil {
		return ReplicaPoint{}, err
	}
	defer os.RemoveAll(dir)
	leader, _, err := core.OpenDurable(dir,
		core.Config{Clock: periodic.NewManualClock(simStart)},
		wal.Options{Fsync: wal.FsyncInterval, FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		return ReplicaPoint{}, err
	}
	defer leader.Close()
	if err := seedPersons(leader, cfg.Nodes); err != nil {
		return ReplicaPoint{}, err
	}

	// Replication endpoints over loopback HTTP, exactly as rkm-server mounts
	// them.
	ld, err := replica.NewLeader(leader, replica.Options{})
	if err != nil {
		return ReplicaPoint{}, err
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Followers bootstrap before the measured window so the point measures
	// steady-state streaming, not snapshot transfer. In-memory followers:
	// the read path under test is the MVCC store, and a disk mirror would
	// fold follower fsync cost into a read-throughput figure.
	opts := replica.Options{
		PollInterval:      time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		BatchSize:         512,
	}
	var fols []*replica.Follower
	for i := 0; i < followers; i++ {
		fol, err := replica.OpenFollower("", srv.URL, core.Config{}, opts)
		if err != nil {
			return ReplicaPoint{}, err
		}
		defer fol.Close()
		fol.Start()
		fols = append(fols, fol)
	}

	// Reads go to the followers; only the k = 0 baseline reads the leader.
	serving := []*core.KnowledgeBase{leader}
	if followers > 0 {
		serving = serving[:0]
		for _, fol := range fols {
			serving = append(serving, fol.KB())
		}
	}

	var (
		stop      atomic.Bool
		reads     atomic.Int64
		writerTxs atomic.Int64
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }); stop.Store(true) }

	// The sustained write load: one writer streams admissions on the leader
	// for the whole window, whatever k is.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			err := leader.Store().Update(func(tx *graph.Tx) error {
				_, err := tx.CreateNode([]string{"Admission"},
					map[string]value.Value{"i": value.Int(int64(i))})
				return err
			})
			if err != nil {
				fail(err)
				return
			}
			writerTxs.Add(1)
		}
	}()

	for _, kb := range serving {
		for r := 0; r < cfg.ReadersPerInstance; r++ {
			wg.Add(1)
			go func(kb *core.KnowledgeBase) {
				defer wg.Done()
				n := int64(0)
				for !stop.Load() {
					res, err := kb.Query("MATCH (p:Person) RETURN count(p) AS n", nil)
					if err != nil {
						fail(err)
						return
					}
					if v, ok := res.Value(); ok {
						if got, _ := v.AsInt(); got != int64(cfg.Nodes) {
							fail(fmt.Errorf("reader saw %d Person nodes, want %d", got, cfg.Nodes))
							return
						}
					}
					n++
				}
				reads.Add(n)
			}(kb)
		}
	}

	time.Sleep(cfg.Window)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return ReplicaPoint{}, firstErr
	}

	p := ReplicaPoint{
		Followers:   followers,
		Readers:     len(serving) * cfg.ReadersPerInstance,
		Reads:       reads.Load(),
		ReadsPerSec: float64(reads.Load()) / cfg.Window.Seconds(),
		WriterTxs:   writerTxs.Load(),
		CatchUpPct:  100,
	}
	if p.Readers > 0 {
		p.PerReaderQPS = p.ReadsPerSec / float64(p.Readers)
	}
	leaderSeq := leader.WAL().LastSeq()
	for _, fol := range fols {
		recs, secs := fol.Lag()
		if recs > p.LagRecords {
			p.LagRecords = recs
		}
		if secs > p.LagSeconds {
			p.LagSeconds = secs
		}
		if leaderSeq > 0 {
			pct := 100 * float64(fol.KB().ReplicaAppliedSeq()) / float64(leaderSeq)
			if pct < p.CatchUpPct {
				p.CatchUpPct = pct
			}
		}
	}
	return p, nil
}

// WriteReplica renders the series.
func WriteReplica(w io.Writer, pts []ReplicaPoint) {
	fmt.Fprintln(w, "aggregate read QPS vs replica count under sustained leader writes")
	fmt.Fprintln(w, "(k = 0 reads the leader; k > 0 reads only the followers)")
	fmt.Fprintf(w, "%10s  %8s  %10s  %14s  %12s  %8s  %10s  %10s  %9s\n",
		"followers", "readers", "reads", "reads/sec", "qps/reader", "speedup",
		"writer-tx", "lag-recs", "caught-up")
	for _, p := range pts {
		speedup := ""
		if p.SpeedupVsBase > 0 {
			speedup = fmt.Sprintf("%.2fx", p.SpeedupVsBase)
		}
		fmt.Fprintf(w, "%10d  %8d  %10d  %14.0f  %12.0f  %8s  %10d  %10d  %8.1f%%\n",
			p.Followers, p.Readers, p.Reads, p.ReadsPerSec, p.PerReaderQPS,
			speedup, p.WriterTxs, p.LagRecords, p.CatchUpPct)
	}
}
