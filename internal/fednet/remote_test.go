package fednet

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trigger"
)

// TestApplyRemoteAlertsDedup checks the idempotent apply directly:
// duplicates within one batch, redelivery of a batch, and the same originId
// from another origin.
func TestApplyRemoteAlertsDedup(t *testing.T) {
	kb := newMemKB(t)
	if err := ensureRemoteAlertIndex(kb); err != nil {
		t.Fatal(err)
	}
	batch := []core.Alert{
		{ID: 1, Rule: "icu", DateTime: netStart},
		{ID: 2, Rule: "icu", DateTime: netStart},
		{ID: 2, Rule: "icu", DateTime: netStart}, // in-batch duplicate
	}
	applied, dups, err := applyRemoteAlerts(kb, "clinic", batch)
	if err != nil || applied != 2 || dups != 1 {
		t.Fatalf("first apply: applied=%d dups=%d err=%v", applied, dups, err)
	}
	// Full redelivery (sender never got the ack).
	applied, dups, err = applyRemoteAlerts(kb, "clinic", batch[:2])
	if err != nil || applied != 0 || dups != 2 {
		t.Fatalf("redelivery: applied=%d dups=%d err=%v", applied, dups, err)
	}
	// Same originId from a different origin is distinct knowledge.
	applied, _, err = applyRemoteAlerts(kb, "lab", batch[:1])
	if err != nil || applied != 1 {
		t.Fatalf("other origin: applied=%d err=%v", applied, err)
	}
	if remote, _ := RemoteAlerts(kb); len(remote) != 3 {
		t.Fatalf("remote alerts = %d, want 3", len(remote))
	}
}

// TestRemoteAlertsTriggerTargetRules is the cross-organization reaction: a
// receiver rule on RemoteAlert creation fires on a pushed alert and its
// action commits in the receiver.
func TestRemoteAlertsTriggerTargetRules(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	if err := dstKB.InstallRule(trigger.Rule{
		Name:   "escalate",
		Hub:    "R",
		Event:  trigger.Event{Kind: trigger.CreateNode, Label: RemoteAlertLabel},
		Guard:  "NEW.origin = 'clinic'",
		Action: "CREATE (:PolicyReview {region: NEW.region, hub: 'R'})",
	}); err != nil {
		t.Fatal(err)
	}
	_, url, _ := newReceiver(t, "region", dstKB)
	src, _ := NewNode("clinic", srcKB, testOpts())
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}

	admit(t, srcKB, "Lombardy")
	if _, err := src.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := dstKB.Query("MATCH (p:PolicyReview) RETURN p.region", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != `"Lombardy"` {
		t.Errorf("cross-organization reaction: %v", res.Rows)
	}
}

// TestBidirectionalSubscriptions: with a↔b subscribed both ways, each side
// ends with exactly the other's one alert, and RemoteAlert nodes are never
// pushed back to where they came from.
func TestBidirectionalSubscriptions(t *testing.T) {
	aKB, bKB := newMemKB(t), newMemKB(t)
	a, aURL, _ := newReceiver(t, "a", aKB)
	b, bURL, _ := newReceiver(t, "b", bKB)
	if err := a.Subscribe("b", bURL); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe("a", aURL); err != nil {
		t.Fatal(err)
	}
	admit(t, aKB, "north")
	admit(t, bKB, "south")

	for round := 0; round < 2; round++ {
		want := 1 - round // the second round finds nothing to push
		for _, n := range []*Node{a, b} {
			if sent, err := n.SyncAll(context.Background()); err != nil || sent != want {
				t.Fatalf("round %d, %s: sent=%d err=%v, want %d", round, n.Name(), sent, err, want)
			}
		}
	}
	for _, side := range []struct {
		kb             *core.KnowledgeBase
		origin, region string
	}{{aKB, "b", "south"}, {bKB, "a", "north"}} {
		remote, err := RemoteAlerts(side.kb)
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != 1 {
			t.Fatalf("remote alerts = %d, want 1 from %s", len(remote), side.origin)
		}
		origin, _ := remote[0].Props[OriginProp].AsString()
		region, _ := remote[0].Props["region"].AsString()
		if origin != side.origin || region != side.region {
			t.Errorf("remote alert from %q in %q, want %q in %q", origin, region, side.origin, side.region)
		}
	}
}
