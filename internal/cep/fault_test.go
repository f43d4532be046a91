package cep

// Crash-recovery tests for durable partial-match state: the process is
// "killed" (by copying the FsyncAlways log directory — exactly what a crash
// leaves behind) with partial matches at every stage of their life cycle —
// open mid-sequence, completed but undrained, completion transaction
// mid-write, window expired but unresolved, and absence armed — and after
// reopening, every staged composite match must materialize exactly one
// alert: none lost, none duplicated.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/wal"
)

var faultT0 = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

func cepCopyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	cepCopyInto(t, src, dst)
	return dst
}

// cepCopyInto recursively copies src into dst.
func cepCopyInto(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.Mkdir(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			cepCopyInto(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openDurableCEP opens a durable knowledge base at dir with the clock set
// to at, enables composite events and re-installs the rules (rules are
// configuration, re-installed on every open).
func openDurableCEP(t *testing.T, dir string, at time.Time, rules ...trigger.Rule) (*core.KnowledgeBase, *periodic.ManualClock, *Manager) {
	t.Helper()
	clock := periodic.NewManualClock(at)
	kb, _, err := core.OpenDurable(dir,
		core.Config{Clock: clock},
		wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { _ = kb.Close() })
	m, err := Enable(kb, Options{})
	if err != nil {
		t.Fatalf("Enable: %v", err)
	}
	for _, r := range rules {
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return kb, clock, m
}

// assertAlertKeys drains m and asserts exactly one alert per expected key —
// the exactly-once contract — no matter how many times the drain runs.
func assertAlertKeys(t *testing.T, kb *core.KnowledgeBase, m *Manager, want ...string) {
	t.Helper()
	for i := 0; i < 3; i++ { // repeated drains must not duplicate
		if _, err := m.DrainOnce(); err != nil {
			t.Fatalf("DrainOnce: %v", err)
		}
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, a := range alerts {
		k, _ := a.Props["key"].AsString()
		got[k]++
	}
	if len(alerts) != len(want) {
		t.Fatalf("%d alerts after recovery, want %d: %v", len(alerts), len(want), got)
	}
	for _, k := range want {
		if got[k] != 1 {
			t.Fatalf("key %q materialized %d alerts, want exactly 1 (%v)", k, got[k], got)
		}
	}
	if m.Depth() != 0 {
		t.Fatalf("depth after recovery drain = %d, want 0", m.Depth())
	}
}

func TestCEPFaultCrashWithOpenPartial(t *testing.T) {
	dir := t.TempDir()
	kb, _, _ := openDurableCEP(t, dir, faultT0, seq2("pair", 5*time.Minute))
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")

	// Crash with the match open mid-sequence: the staged partial rode the
	// WAL with its triggering transaction and must survive verbatim.
	kb2, _, m2 := openDurableCEP(t, cepCopyDir(t, dir), faultT0.Add(time.Minute),
		seq2("pair", 5*time.Minute))
	if m2.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want 1", m2.Recovered())
	}
	if m2.Depth() != 1 {
		t.Fatalf("depth after reopen = %d, want 1", m2.Depth())
	}
	if m2.m.recovered.Value() != 1 {
		t.Fatalf("recovered counter = %d, want 1", m2.m.recovered.Value())
	}
	// The surviving partial still advances: the closing step completes it.
	cepExec(t, kb2, "CREATE (:E1 {k: 'a'})")
	assertAlertKeys(t, kb2, m2, "a")
}

func TestCEPFaultCrashDoneUndrained(t *testing.T) {
	dir := t.TempDir()
	kb, _, m := openDurableCEP(t, dir, faultT0, seq2("pair", 5*time.Minute))
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 done partial awaiting drain", m.Depth())
	}

	// Crash after completion committed but before any drain ran: recovery
	// must deliver the match exactly once.
	kb2, _, m2 := openDurableCEP(t, cepCopyDir(t, dir), faultT0.Add(time.Minute),
		seq2("pair", 5*time.Minute))
	assertAlertKeys(t, kb2, m2, "a")
}

func TestCEPFaultCompletionTxMidWrite(t *testing.T) {
	dir := t.TempDir()
	kb, _, _ := openDurableCEP(t, dir, faultT0, seq2("pair", 5*time.Minute))
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'a'})")
	crash := cepCopyDir(t, dir)

	// Reopen and replay the drain up to the brink of its commit: partial
	// deleted and alert created inside the follow-up transaction — then
	// crash (rollback). Nothing may reach the log, so the done partial must
	// still be queued and deliver exactly once.
	kb2, _, m2 := openDurableCEP(t, crash, faultT0.Add(time.Minute),
		seq2("pair", 5*time.Minute))
	var pid graph.NodeID
	err := kb2.Store().View(func(tx *graph.Tx) error {
		ids := tx.NodesByLabel(PartialLabel)
		if len(ids) != 1 {
			return fmt.Errorf("%d partials, want 1", len(ids))
		}
		pid = ids[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := kb2.Engine().CompositeRule("pair")
	wtx := kb2.Store().Begin(graph.ReadWrite)
	if err := m2.complete(wtx, cr, pid); err != nil {
		t.Fatal(err)
	}
	wtx.Rollback() // the crash: the completion transaction never commits

	// The second crash image is byte-identical to the first (rollback wrote
	// nothing durable): reopen it and the match still delivers exactly once.
	kb3, _, m3 := openDurableCEP(t, cepCopyDir(t, crash), faultT0.Add(time.Minute),
		seq2("pair", 5*time.Minute))
	if m3.Depth() != 1 {
		t.Fatalf("depth after mid-write crash = %d, want 1", m3.Depth())
	}
	assertAlertKeys(t, kb3, m3, "a")
	// And the instance that rolled back also converges to exactly once.
	assertAlertKeys(t, kb2, m2, "a")
}

func TestCEPFaultWindowExpiredUncommitted(t *testing.T) {
	dir := t.TempDir()
	kb, _, _ := openDurableCEP(t, dir, faultT0, seq2("pair", 5*time.Minute))
	cepExec(t, kb, "CREATE (:E0 {k: 'a'})")

	// Crash with the partial open; by the time the process is back, the
	// window has expired. The eviction was never committed pre-crash, so
	// recovery must evict — not alert, not leak.
	kb2, _, m2 := openDurableCEP(t, cepCopyDir(t, dir), faultT0.Add(10*time.Minute),
		seq2("pair", 5*time.Minute))
	if m2.Depth() != 1 {
		t.Fatalf("depth after reopen = %d, want 1", m2.Depth())
	}
	assertAlertKeys(t, kb2, m2) // zero alerts
	if m2.m.expired.Value() != 1 {
		t.Fatalf("expired = %d, want 1", m2.m.expired.Value())
	}
}

func TestCEPFaultAbsenceArmedAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	kb, _, _ := openDurableCEP(t, dir, faultT0, absenceRule(5*time.Minute))
	cepExec(t, kb, "CREATE (:Txn {k: 'a'})")

	// Crash while the absence match is armed; the deadline passes while the
	// process is down. The window closing without the forbidden event IS
	// the composite event — it must still be detected after recovery, with
	// the completion stamped at the deadline.
	kb2, _, m2 := openDurableCEP(t, cepCopyDir(t, dir), faultT0.Add(time.Hour),
		absenceRule(5*time.Minute))
	assertAlertKeys(t, kb2, m2, "a")
	alerts, err := kb2.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := alerts[0].Props["completedAt"].AsDateTime(); !ok || !at.Equal(faultT0.Add(5*time.Minute)) {
		t.Fatalf("completedAt = %v, want the original deadline %v",
			alerts[0].Props["completedAt"], faultT0.Add(5*time.Minute))
	}
}

func TestCEPFaultEveryStageExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	kb, _, m := openDurableCEP(t, dir, faultT0, seq2("pair", time.Hour))
	// Stage matches at each point of the life cycle, one key per stage:
	// drained: completed AND drained before the crash — its alert exists.
	cepExec(t, kb, "CREATE (:E0 {k: 'drained'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'drained'})")
	if _, err := m.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	// done: completed, still awaiting drain.
	cepExec(t, kb, "CREATE (:E0 {k: 'done'})")
	cepExec(t, kb, "CREATE (:E1 {k: 'done'})")
	// open1, open2: mid-sequence.
	cepExec(t, kb, "CREATE (:E0 {k: 'open1'})")
	cepExec(t, kb, "CREATE (:E0 {k: 'open2'})")
	if m.Depth() != 3 {
		t.Fatalf("staged depth = %d, want 3", m.Depth())
	}

	kb2, _, m2 := openDurableCEP(t, cepCopyDir(t, dir), faultT0.Add(time.Minute),
		seq2("pair", time.Hour))
	if m2.Recovered() != 3 {
		t.Fatalf("Recovered = %d, want 3", m2.Recovered())
	}
	// Finish the open matches after recovery.
	cepExec(t, kb2, "CREATE (:E1 {k: 'open1'})")
	cepExec(t, kb2, "CREATE (:E1 {k: 'open2'})")
	assertAlertKeys(t, kb2, m2, "drained", "done", "open1", "open2")
}

// TestCEPFaultShardedCrashRecovery crashes a durable knowledge base with two
// hubs and enforced ownership while hub P's partial match is staged, and
// checks the match completes after reopen. (The name dates from one graph
// shard per hub.)
func TestCEPFaultShardedCrashRecovery(t *testing.T) {
	open := func(dir string, at time.Time) (*core.KnowledgeBase, *Manager) {
		t.Helper()
		kb, _, err := core.OpenDurable(dir,
			core.Config{Clock: periodic.NewManualClock(at)},
			wal.Options{Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		t.Cleanup(func() { _ = kb.Close() })
		defineHubs(t, kb, "E0", "E1")
		kb.EnforceHubOwnership()
		m, err := Enable(kb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := seq2("pair", time.Hour)
		r.Hub = "P"
		if err := kb.InstallRule(r); err != nil {
			t.Fatal(err)
		}
		return kb, m
	}

	dir := t.TempDir()
	kb, _ := open(dir, faultT0)
	cepExec(t, kb, "CREATE (:E0 {k: 'a', hub: 'P'})")

	// Crash with the partial staged; it recovers and the match completes
	// after reopen.
	kb2, m2 := open(cepCopyDir(t, dir), faultT0.Add(time.Minute))
	if m2.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want 1", m2.Recovered())
	}
	cepExec(t, kb2, "CREATE (:E1 {k: 'a', hub: 'P'})")
	for i := 0; i < 2; i++ {
		if _, err := m2.DrainOnce(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := kb2.Query("MATCH (a:Alert {hub: 'P'}) RETURN count(a) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Value()
	if n, _ := v.AsInt(); n != 1 {
		t.Fatalf("alerts in P after recovery = %d, want exactly 1", n)
	}
	if m2.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", m2.Depth())
	}
}
