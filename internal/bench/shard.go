package bench

// Shard series: how the hub-sharded storage engine scales writes.
//
// Scaling: W concurrent writers commit small durable transactions against
// a sharded knowledge base with H hubs, each writer pinned to shard
// w mod H. At H = 1 every writer queues on the one shard's write lock —
// the single-shard baseline, equivalent to the unsharded engine. As H
// grows, writers spread over independent locks and independent WAL
// streams, so the lock hold times (copy-on-write, validation, rule
// processing, log append) parallelize; committed tx/sec should scale with
// H until writers or cores saturate. The logs run Fsync: interval — the
// durability wait is off the commit path, so the series isolates the
// writer-lock parallelism the sharding exists to buy; under
// Fsync: always on a single device, all shards' fsyncs serialize at the
// disk and the device, not the lock, is what saturates.
//
// Bridge mix: same setup at a fixed hub count, but each transaction is,
// with probability p, a two-shard bridge commit (a node in each of two
// adjacent shards plus a knowledge bridge between them) instead of an
// intra-hub write. Bridges hold two shard locks through a two-stream
// durable commit, so throughput degrades smoothly as p grows — the cost of
// cross-hub knowledge made visible.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/value"
	"repro/internal/wal"
)

// ShardConfig parameterizes the shard series.
type ShardConfig struct {
	// Hubs is the sweep over hub (= shard) counts; 1 is the baseline.
	Hubs []int
	// Writers is the sweep over concurrent writer counts.
	Writers []int
	// Window is how long each point measures.
	Window time.Duration
	// BridgeMix is the sweep over the fraction of two-shard bridge
	// transactions in the mixed workload.
	BridgeMix []float64
	// MixHubs and MixWriters fix the shape of the bridge-mix sweep
	// (defaults: 4 hubs, 4 writers).
	MixHubs    int
	MixWriters int
	// TxNodes is the number of nodes each transaction creates — the work
	// done under the shard's write lock (default 4).
	TxNodes int
	Seed    int64
}

func (c ShardConfig) withDefaults() ShardConfig {
	if len(c.Hubs) == 0 {
		c.Hubs = []int{1, 4, 16}
	}
	if len(c.Writers) == 0 {
		c.Writers = []int{1, 4, 16}
	}
	if c.Window <= 0 {
		c.Window = 300 * time.Millisecond
	}
	if len(c.BridgeMix) == 0 {
		c.BridgeMix = []float64{0, 0.01, 0.1, 0.5}
	}
	if c.MixHubs <= 0 {
		c.MixHubs = 4
	}
	if c.MixWriters <= 0 {
		c.MixWriters = 4
	}
	if c.TxNodes <= 0 {
		c.TxNodes = 4
	}
	return c
}

// ShardPoint is one (hubs, writers) durable-commit measurement.
type ShardPoint struct {
	Hubs     int
	Writers  int
	Txs      int64
	TxPerSec float64
	// Speedup is TxPerSec over the 1-hub point at the same writer count
	// (0 when no baseline was measured).
	Speedup float64
}

// shardHubs builds H bench hubs; hub i owns label Li.
func shardHubs(n int) []core.HubShard {
	defs := make([]core.HubShard, n)
	for i := range defs {
		defs[i] = core.HubShard{
			Hub:         fmt.Sprintf("H%d", i),
			Description: "bench hub",
			Labels:      []string{fmt.Sprintf("L%d", i)},
		}
	}
	return defs
}

// RunShardScaling measures committed tx/sec for each (hubs, writers) pair.
func RunShardScaling(cfg ShardConfig) ([]ShardPoint, error) {
	cfg = cfg.withDefaults()
	var out []ShardPoint
	base := make(map[int]float64) // writers -> 1-hub tx/sec
	for _, hubs := range cfg.Hubs {
		for _, writers := range cfg.Writers {
			p, err := runShardOnce(cfg, hubs, writers)
			if err != nil {
				return nil, err
			}
			if hubs == 1 {
				base[writers] = p.TxPerSec
			} else if b := base[writers]; b > 0 {
				p.Speedup = p.TxPerSec / b
			}
			out = append(out, p)
		}
	}
	return out, nil
}

func runShardOnce(cfg ShardConfig, hubs, writers int) (ShardPoint, error) {
	dir, err := os.MkdirTemp("", "rkm-bench-shard-*")
	if err != nil {
		return ShardPoint{}, err
	}
	defer os.RemoveAll(dir)
	kb, _, err := core.OpenShardedDurable(dir,
		core.Config{Clock: periodic.NewManualClock(simStart)},
		shardHubs(hubs), wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return ShardPoint{}, err
	}
	defer kb.Close()

	var (
		stop     atomic.Bool
		txs      atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }); stop.Store(true) }

	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := w % hubs
			label := fmt.Sprintf("L%d", shard)
			for i := 0; !stop.Load(); i++ {
				_, err := kb.UpdateShard(shard, func(tx *graph.Tx) error {
					for j := 0; j < cfg.TxNodes; j++ {
						if _, err := tx.CreateNode([]string{label}, map[string]value.Value{
							"w": value.Int(int64(w)), "i": value.Int(int64(i)), "j": value.Int(int64(j)),
						}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					fail(err)
					return
				}
				txs.Add(1)
			}
		}(w)
	}
	time.Sleep(cfg.Window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return ShardPoint{}, firstErr
	}
	p := ShardPoint{Hubs: hubs, Writers: writers, Txs: txs.Load()}
	if elapsed > 0 {
		p.TxPerSec = float64(p.Txs) / elapsed.Seconds()
	}
	return p, nil
}

// BridgeMixPoint is one bridge-fraction measurement.
type BridgeMixPoint struct {
	Hubs       int
	Writers    int
	BridgeFrac float64
	Txs        int64
	BridgeTxs  int64
	TxPerSec   float64
}

// RunShardBridgeMix measures mixed intra-hub/bridge throughput for each
// bridge fraction at the configured MixHubs/MixWriters shape.
func RunShardBridgeMix(cfg ShardConfig) ([]BridgeMixPoint, error) {
	cfg = cfg.withDefaults()
	var out []BridgeMixPoint
	for _, frac := range cfg.BridgeMix {
		p, err := runShardBridgeOnce(cfg, cfg.MixHubs, cfg.MixWriters, frac)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func runShardBridgeOnce(cfg ShardConfig, hubs, writers int, frac float64) (BridgeMixPoint, error) {
	dir, err := os.MkdirTemp("", "rkm-bench-shard-mix-*")
	if err != nil {
		return BridgeMixPoint{}, err
	}
	defer os.RemoveAll(dir)
	kb, _, err := core.OpenShardedDurable(dir,
		core.Config{Clock: periodic.NewManualClock(simStart)},
		shardHubs(hubs), wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return BridgeMixPoint{}, err
	}
	defer kb.Close()

	var (
		stop      atomic.Bool
		txs       atomic.Int64
		bridgeTxs atomic.Int64
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }); stop.Store(true) }

	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			shard := w % hubs
			label := fmt.Sprintf("L%d", shard)
			for i := 0; !stop.Load(); i++ {
				if hubs > 1 && rng.Float64() < frac {
					peer := (shard + 1) % hubs
					peerLabel := fmt.Sprintf("L%d", peer)
					_, err := kb.UpdateBridgeShards(shard, peer, func(bt *graph.BridgeTx) error {
						a, err := bt.CreateNodeIn(shard, []string{label}, nil)
						if err != nil {
							return err
						}
						b, err := bt.CreateNodeIn(peer, []string{peerLabel}, nil)
						if err != nil {
							return err
						}
						_, err = bt.CreateRel(a, b, "BRIDGES", nil)
						return err
					})
					if err != nil {
						fail(err)
						return
					}
					bridgeTxs.Add(1)
				} else {
					_, err := kb.UpdateShard(shard, func(tx *graph.Tx) error {
						_, err := tx.CreateNode([]string{label}, map[string]value.Value{
							"i": value.Int(int64(i)),
						})
						return err
					})
					if err != nil {
						fail(err)
						return
					}
				}
				txs.Add(1)
			}
		}(w)
	}
	time.Sleep(cfg.Window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return BridgeMixPoint{}, firstErr
	}
	p := BridgeMixPoint{
		Hubs: hubs, Writers: writers, BridgeFrac: frac,
		Txs: txs.Load(), BridgeTxs: bridgeTxs.Load(),
	}
	if elapsed > 0 {
		p.TxPerSec = float64(p.Txs) / elapsed.Seconds()
	}
	return p, nil
}

// WriteShard renders both series.
func WriteShard(w io.Writer, scaling []ShardPoint, mix []BridgeMixPoint) {
	fmt.Fprintln(w, "durable commit throughput vs writers, by hub count (fsync = interval)")
	fmt.Fprintf(w, "%6s  %8s  %10s  %12s  %8s\n",
		"hubs", "writers", "txs", "tx/sec", "speedup")
	for _, p := range scaling {
		speedup := ""
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		fmt.Fprintf(w, "%6d  %8d  %10d  %12.0f  %8s\n",
			p.Hubs, p.Writers, p.Txs, p.TxPerSec, speedup)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "mixed workload: intra-hub writes with a fraction of two-shard bridge commits")
	fmt.Fprintf(w, "%6s  %8s  %8s  %10s  %10s  %12s\n",
		"hubs", "writers", "bridge%", "txs", "bridges", "tx/sec")
	for _, p := range mix {
		fmt.Fprintf(w, "%6d  %8d  %7.0f%%  %10d  %10d  %12.0f\n",
			p.Hubs, p.Writers, p.BridgeFrac*100, p.Txs, p.BridgeTxs, p.TxPerSec)
	}
}
