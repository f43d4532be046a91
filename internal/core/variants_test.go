package core

// The constructor table: every way a knowledge base comes into being, one
// row each. Behaviour suites that are not inherently multi-shard — rules and
// cascades, the async pipeline and its crash stages, durable reopen,
// follower apply, plan variants, the golden corpus — run over the rows, so
// "one shard" and "four shards", "in memory" and "recovered from a log" are
// the same tests. The identifiers are exported so the external test package
// (core_test) shares the table.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/wal"
)

// Variant is one row of the constructor table.
type Variant struct {
	Name    string
	Shards  int
	Durable bool
}

// Variants lists the rows. One-shard rows go through New and OpenDurable
// (the flat directory layout), four-shard rows through NewSharded and
// OpenShardedDurable.
var Variants = []Variant{
	{Name: "N=1 in-memory", Shards: 1},
	{Name: "N=1 durable", Shards: 1, Durable: true},
	{Name: "N=4 in-memory", Shards: 4},
	{Name: "N=4 durable", Shards: 4, Durable: true},
}

// ForEachVariant runs fn as a subtest per row.
func ForEachVariant(t *testing.T, fn func(t *testing.T, v Variant)) {
	t.Helper()
	for _, v := range Variants {
		t.Run(v.Name, func(t *testing.T) { fn(t, v) })
	}
}

// ForEachDurableVariant runs fn as a subtest per row that has a log.
func ForEachDurableVariant(t *testing.T, fn func(t *testing.T, v Variant)) {
	t.Helper()
	for _, v := range Variants {
		if v.Durable {
			t.Run(v.Name, func(t *testing.T) { fn(t, v) })
		}
	}
}

// Hub names the hub whose nodes live in shard i of every row: hub Hi owns
// label Li.
func (v Variant) Hub(i int) string { return fmt.Sprintf("H%d", i) }

// LastHub is the hub of the highest shard: the write target that is shard 0
// at N=1 and a non-zero identifier band at N=4.
func (v Variant) LastHub() string { return v.Hub(v.Shards - 1) }

func (v Variant) hubs() []HubShard {
	out := make([]HubShard, v.Shards)
	for i := range out {
		out[i] = HubShard{Hub: v.Hub(i), Description: "test hub", Labels: []string{fmt.Sprintf("L%d", i)}}
	}
	return out
}

// Dir returns a fresh data directory for a durable row, "" otherwise.
func (v Variant) Dir(t testing.TB) string {
	if !v.Durable {
		return ""
	}
	return t.TempDir()
}

// Open opens the row's knowledge base over dir (as returned by Dir, or a
// copy of one) with the row's hubs H0.. and closes it with the test.
func (v Variant) Open(t testing.TB, dir string, cfg Config) *KnowledgeBase {
	t.Helper()
	return v.OpenHubs(t, dir, cfg, v.hubs())
}

// OpenHubs is Open with the caller's hub declarations: one per shard on a
// multi-shard row, any number — all living in the one shard — otherwise.
func (v Variant) OpenHubs(t testing.TB, dir string, cfg Config, hubs []HubShard) *KnowledgeBase {
	t.Helper()
	wopts := wal.Options{Fsync: wal.FsyncAlways}
	var (
		kb  *KnowledgeBase
		err error
	)
	switch {
	case v.Shards == 1 && !v.Durable:
		kb = New(cfg)
	case v.Shards == 1:
		kb, _, err = OpenDurable(dir, cfg, wopts)
	case !v.Durable:
		kb, err = NewSharded(cfg, hubs)
	default:
		kb, _, err = OpenShardedDurable(dir, cfg, hubs, wopts)
	}
	if err != nil {
		t.Fatalf("open %s: %v", v.Name, err)
	}
	t.Cleanup(func() { _ = kb.Close() })
	if v.Shards == 1 {
		// The one-shard constructors take no hub declarations; define the
		// hubs the unsharded way so hub-addressed calls route to the shard.
		for _, h := range hubs {
			if err := kb.DefineHub(h.Hub, h.Description, h.Labels...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return kb
}

// OpenSim opens the row's knowledge base over a fresh directory on a manual
// clock set to sim0.
func (v Variant) OpenSim(t testing.TB) (*KnowledgeBase, *periodic.ManualClock) {
	t.Helper()
	clock := periodic.NewManualClock(sim0)
	return v.Open(t, v.Dir(t), Config{Clock: clock}), clock
}

// OpenFollower opens the row's knowledge base as a replication follower.
func (v Variant) OpenFollower(t testing.TB, dir string, cfg Config) *KnowledgeBase {
	t.Helper()
	wopts := wal.Options{Fsync: wal.FsyncAlways}
	var (
		kb  *KnowledgeBase
		err error
	)
	switch {
	case v.Shards == 1 && !v.Durable:
		kb = NewFollower(cfg)
	case v.Shards == 1:
		kb, _, err = OpenFollowerDurable(dir, cfg, wopts)
	case !v.Durable:
		// No exported constructor: nothing outside the tests builds an
		// in-memory multi-shard follower.
		kb, _, err = openHubs("", cfg, v.hubs(), wal.Options{}, true)
	default:
		kb, _, err = OpenShardedDurableFollower(dir, cfg, v.hubs(), wopts)
	}
	if err != nil {
		t.Fatalf("open follower %s: %v", v.Name, err)
	}
	t.Cleanup(func() { _ = kb.Close() })
	return kb
}

// Exports renders every shard's content as its deterministic JSON document.
func Exports(t testing.TB, kb *KnowledgeBase) []string {
	t.Helper()
	out := make([]string, kb.NumShards())
	for i := range out {
		var b strings.Builder
		if err := kb.Shards().Shard(i).Export(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	return out
}

// SeedShards writes one transaction into every shard and, when there is
// more than one, a knowledge bridge between shards 0 and 1 — the smallest
// content that exercises every stream of a row.
func SeedShards(t testing.TB, kb *KnowledgeBase) {
	t.Helper()
	for i := 0; i < kb.NumShards(); i++ {
		if _, err := kb.UpdateShard(i, func(tx *graph.Tx) error {
			a, err := tx.CreateNode([]string{"Doc"}, nil)
			if err != nil {
				return err
			}
			b, err := tx.CreateNode([]string{"Doc"}, nil)
			if err != nil {
				return err
			}
			_, err = tx.CreateRel(a, b, "CITES", nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if kb.NumShards() < 2 {
		return
	}
	if _, err := kb.UpdateBridgeShards(0, 1, func(bt *graph.BridgeTx) error {
		a, err := bt.CreateNodeIn(0, []string{"Sequence"}, nil)
		if err != nil {
			return err
		}
		b, err := bt.CreateNodeIn(1, []string{"Trial"}, nil)
		if err != nil {
			return err
		}
		_, err = bt.CreateRel(a, b, "TESTED_IN", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
