// The federation tests drive the paper's §V federated deployment end to end:
// one knowledge base per organization, each wrapped in a Node, alerts pushed
// between them over loopback HTTP. The package's other tests pin the
// transport, its fault handling and its apply half; these pin what a
// participant sees of the federation as a whole, through the exported API
// only.
package fednet_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fednet"
	"repro/internal/periodic"
	"repro/internal/trigger"
)

var fedStart = time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)

func newKB() *core.KnowledgeBase {
	return core.New(core.Config{Clock: periodic.NewManualClock(fedStart)})
}

// clinicalKB produces alerts on ICU admissions.
func clinicalKB(t *testing.T) *core.KnowledgeBase {
	t.Helper()
	kb := newKB()
	if err := kb.InstallRule(trigger.Rule{
		Name:  "icu",
		Hub:   "C",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "IcuPatient"},
		Alert: "RETURN NEW.region AS region",
	}); err != nil {
		t.Fatal(err)
	}
	return kb
}

func admit(t *testing.T, kb *core.KnowledgeBase, region string) {
	t.Helper()
	if _, err := kb.Execute(
		"CREATE (:IcuPatient {region: '"+region+"', hub: 'C'})", nil); err != nil {
		t.Fatal(err)
	}
}

// join wraps kb as participant name; MaxAttempts 1 makes a push to an
// absent peer fail at once instead of backing off.
func join(t *testing.T, name string, kb *core.KnowledgeBase) *fednet.Node {
	t.Helper()
	n, err := fednet.NewNode(name, kb, fednet.Options{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// serve mounts n's receiver endpoints on a loopback server and returns its
// base URL.
func serve(t *testing.T, n *fednet.Node) string {
	t.Helper()
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func sync(t *testing.T, n *fednet.Node) int {
	t.Helper()
	sent, err := n.SyncAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sent
}

func TestJoinAndSubscribeValidation(t *testing.T) {
	clinic := join(t, "clinic", clinicalKB(t))
	if _, err := fednet.NewNode("", newKB(), fednet.Options{}); err == nil {
		t.Error("nameless participant joined")
	}
	if err := clinic.Subscribe("clinic", "http://127.0.0.1:1"); err == nil {
		t.Error("self link")
	}
	if err := clinic.Subscribe("region", "region"); err == nil {
		t.Error("peer without an address")
	}
	if err := clinic.Subscribe("region", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := clinic.Subscribe("region", "http://127.0.0.1:1"); !errors.Is(err, fednet.ErrPeerExists) {
		t.Errorf("duplicate subscription: %v", err)
	}

	// A subscription to a peer nobody serves fails its sync and keeps the
	// alert pending for the next round.
	admit(t, clinic.KB(), "Lombardy")
	if sent, err := clinic.SyncAll(context.Background()); err == nil || sent != 0 {
		t.Errorf("sync to an absent peer: sent=%d err=%v", sent, err)
	}
	st, err := clinic.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 || st.Peers[0].Peer != "region" || st.Peers[0].Pending != 1 {
		t.Errorf("peers = %+v", st.Peers)
	}
}

func TestSyncReplicatesAlerts(t *testing.T) {
	clinic := join(t, "clinic", clinicalKB(t))
	region := join(t, "region", newKB())
	if err := clinic.Subscribe("region", serve(t, region)); err != nil {
		t.Fatal(err)
	}

	admit(t, clinic.KB(), "Lombardy")
	admit(t, clinic.KB(), "Veneto")
	if n := sync(t, clinic); n != 2 {
		t.Fatalf("replicated = %d", n)
	}
	remote, err := fednet.RemoteAlerts(region.KB())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 2 {
		t.Fatalf("remote alerts = %d", len(remote))
	}
	if remote[0].Rule != "icu" || remote[0].Hub != "C" {
		t.Errorf("remote alert: %+v", remote[0])
	}
	if origin, _ := remote[0].Props[fednet.OriginProp].AsString(); origin != "clinic" {
		t.Errorf("origin: %v", remote[0].Props)
	}
	// Sync is idempotent.
	if n := sync(t, clinic); n != 0 {
		t.Errorf("second sync replicated %d", n)
	}
	// New alerts after the acknowledged mark replicate.
	admit(t, clinic.KB(), "Lombardy")
	if n := sync(t, clinic); n != 1 {
		t.Errorf("incremental sync replicated %d", n)
	}
}

// TestRuleFilteredSubscriptionJoinedNodes is the rule filter driven through
// this file's join/serve/sync helpers; fednet_test.go's
// TestRuleFilteredSubscription covers it on hand-built nodes.
func TestRuleFilteredSubscriptionJoinedNodes(t *testing.T) {
	src := join(t, "src", clinicalKB(t))
	if err := src.KB().InstallRule(trigger.Rule{
		Name:  "noise",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Misc"},
		Alert: "RETURN 1 AS one",
	}); err != nil {
		t.Fatal(err)
	}
	dst := join(t, "dst", newKB())
	if err := src.Subscribe("dst", serve(t, dst), "icu"); err != nil {
		t.Fatal(err)
	}
	admit(t, src.KB(), "Lombardy")
	if _, err := src.KB().Execute("CREATE (:Misc)", nil); err != nil {
		t.Fatal(err)
	}
	if n := sync(t, src); n != 1 {
		t.Fatalf("filtered sync replicated %d", n)
	}
	remote, _ := fednet.RemoteAlerts(dst.KB())
	if len(remote) != 1 || remote[0].Rule != "icu" {
		t.Errorf("remote: %+v", remote)
	}
	// The skipped alert does not reappear on later syncs (the mark advanced
	// past it).
	if n := sync(t, src); n != 0 {
		t.Errorf("skipped alert resurfaced: %d", n)
	}
}

// TestRebuildDoesNotRereplicate is the restart scenario: fresh nodes over the
// same knowledge bases (in-memory marks gone, the receiver on a new address)
// must not replicate already-delivered alerts again — the sender recovers
// its mark from the outbox in its own graph.
func TestRebuildDoesNotRereplicate(t *testing.T) {
	clinicKB := clinicalKB(t)
	regionKB := newKB()

	clinic := join(t, "clinic", clinicKB)
	if err := clinic.Subscribe("region", serve(t, join(t, "region", regionKB))); err != nil {
		t.Fatal(err)
	}
	admit(t, clinicKB, "Lombardy")
	admit(t, clinicKB, "Veneto")
	if n := sync(t, clinic); n != 2 {
		t.Fatalf("first sync replicated %d", n)
	}

	// Both processes "restart": brand-new nodes over the same knowledge bases.
	clinic2 := join(t, "clinic", clinicKB)
	if err := clinic2.Subscribe("region", serve(t, join(t, "region", regionKB))); err != nil {
		t.Fatal(err)
	}
	if n := sync(t, clinic2); n != 0 {
		t.Fatalf("rebuilt sync replicated %d, want 0", n)
	}
	// New alerts still flow.
	admit(t, clinicKB, "Lazio")
	if n := sync(t, clinic2); n != 1 {
		t.Fatalf("incremental sync after rebuild replicated %d", n)
	}
	remote, _ := fednet.RemoteAlerts(regionKB)
	if len(remote) != 3 {
		t.Fatalf("remote alerts = %d, want 3", len(remote))
	}
}
