package core

// The constructor table: every way a knowledge base comes into being, one
// row each. Behaviour suites — rules and cascades, the async pipeline and
// its crash stages, durable reopen, follower apply, plan variants, the
// golden corpus — run over the rows, so "one hub" and "four hubs", "in
// memory" and "recovered from a log" are the same tests. The identifiers are
// exported so the external test package (core_test) shares the table.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/value"
	"repro/internal/wal"
)

// Variant is one row of the constructor table: how many hubs are declared
// on the one store, and whether it is durable.
type Variant struct {
	Name    string
	Hubs    int
	Durable bool
}

// Variants lists the rows. In-memory rows go through New, durable ones
// through OpenDurable (the flat directory layout); every row declares its
// hubs on the one store.
var Variants = []Variant{
	{Name: "N=1 in-memory", Hubs: 1},
	{Name: "N=1 durable", Hubs: 1, Durable: true},
	{Name: "N=4 in-memory", Hubs: 4},
	{Name: "N=4 durable", Hubs: 4, Durable: true},
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

// Hub names the row's i-th hub: hub Hi owns label Li.
func (v Variant) Hub(i int) string { return fmt.Sprintf("H%d", i) }

// LastHub is the row's last declared hub.
func (v Variant) LastHub() string { return v.Hub(v.Hubs - 1) }

// HubDecl declares one hub of a test knowledge base: its name and
// description and the node labels it owns.
type HubDecl struct {
	Hub         string
	Description string
	Labels      []string
}

func (v Variant) hubs() []HubDecl {
	out := make([]HubDecl, v.Hubs)
	for i := range out {
		out[i] = HubDecl{Hub: v.Hub(i), Description: "test hub", Labels: []string{fmt.Sprintf("L%d", i)}}
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
// copy of one) with the row's hubs H0.. declared and their ownership
// enforced, and closes it with the test.
func (v Variant) Open(t testing.TB, dir string, cfg Config) *KnowledgeBase {
	t.Helper()
	kb := v.OpenHubs(t, dir, cfg, v.hubs())
	kb.EnforceHubOwnership()
	return kb
}

// OpenHubs opens the row's knowledge base with the caller's hub
// declarations defined on the one store; enforcing them is up to the
// caller.
func (v Variant) OpenHubs(t testing.TB, dir string, cfg Config, hubs []HubDecl) *KnowledgeBase {
	t.Helper()
	kb := New(cfg)
	if v.Durable {
		var err error
		if kb, _, err = OpenDurable(dir, cfg, wal.Options{Fsync: wal.FsyncAlways}); err != nil {
			t.Fatalf("open %s: %v", v.Name, err)
		}
	}
	t.Cleanup(func() { _ = kb.Close() })
	DeclareHubs(t, kb, hubs)
	return kb
}

// DeclareHubs defines hubs on kb.
func DeclareHubs(t testing.TB, kb *KnowledgeBase, hubs []HubDecl) {
	t.Helper()
	for _, h := range hubs {
		if err := kb.DefineHub(h.Hub, h.Description, h.Labels...); err != nil {
			t.Fatal(err)
		}
	}
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
	kb := NewFollower(cfg)
	if v.Durable {
		var err error
		if kb, _, err = OpenFollowerDurable(dir, cfg, wal.Options{Fsync: wal.FsyncAlways}); err != nil {
			t.Fatalf("open follower %s: %v", v.Name, err)
		}
	}
	t.Cleanup(func() { _ = kb.Close() })
	DeclareHubs(t, kb, v.hubs())
	kb.EnforceHubOwnership()
	return kb
}

// Export renders the graph as its deterministic JSON document.
func Export(t testing.TB, kb *KnowledgeBase) string {
	t.Helper()
	var b strings.Builder
	if err := kb.Store().Export(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// SeedHubs writes one transaction per hub of the row — two nodes the hub
// owns and a relationship between them — and a knowledge bridge between the
// first and the last hub: the smallest content that exercises ownership and
// an inter-hub edge.
func SeedHubs(t testing.TB, kb *KnowledgeBase, v Variant) {
	t.Helper()
	var first, last graph.NodeID
	for i := 0; i < v.Hubs; i++ {
		props := map[string]value.Value{"hub": value.Str(v.Hub(i))}
		label := []string{fmt.Sprintf("L%d", i)}
		if _, err := kb.WriteTx(func(tx *graph.Tx) error {
			a, err := tx.CreateNode(label, props)
			if err != nil {
				return err
			}
			b, err := tx.CreateNode(label, props)
			if err != nil {
				return err
			}
			if i == 0 {
				first = a
			}
			last = b
			_, err = tx.CreateRel(a, b, "CITES", nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(first, last, "TESTED_IN", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
