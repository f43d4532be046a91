package core_test

// Crash-recovery property tests at the knowledge-base level: a
// workload-generated KB with reactive rules is "killed" after every
// committed transaction (by copying the log directory, which with
// FsyncAlways is exactly what a crash would leave), reopened, and the
// recovered store's deterministic Export must be byte-identical to the
// pre-crash committed state — including the Alert nodes the rules produced,
// which recovery must restore from the log rather than re-derive.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/periodic"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// copyDir copies a data directory — what a crash leaves behind under
// FsyncAlways.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func saveGraph(t *testing.T, kb *core.KnowledgeBase) string {
	t.Helper()
	var b strings.Builder
	if err := kb.SaveGraph(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

var simStart = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

func openDurableKB(t *testing.T, dir string) (*core.KnowledgeBase, *wal.RecoveryInfo) {
	t.Helper()
	kb, info, err := core.OpenDurable(dir,
		core.Config{Clock: periodic.NewManualClock(simStart)},
		wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { _ = kb.Close() })
	return kb, info
}

func installNaiveRule(t *testing.T, kb *core.KnowledgeBase) {
	t.Helper()
	name, guard, alert := workload.NaiveRuleSpec()
	err := kb.InstallRule(trigger.Rule{
		Name:  name,
		Hub:   "R",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Patient"},
		Guard: guard,
		Alert: alert,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	kb, _ := openDurableKB(t, dir)
	sc, err := workload.Build(kb, workload.Config{Seed: 7, Regions: 3, HospitalsPerRegion: 1, LabsPerRegion: 1})
	if err != nil {
		t.Fatal(err)
	}
	installNaiveRule(t, kb)

	// Day 0 seeds the counters, day 1 grows admissions by far more than the
	// rule's 10% threshold, so the later transactions produce Alert nodes.
	type image struct {
		dir    string
		export string
	}
	var images []image
	snap := func() {
		images = append(images, image{copyDir(t, dir), saveGraph(t, kb)})
	}
	admit := func(day, count int) {
		adms := sc.Admissions(count, day)
		for i := 0; i < len(adms); i += 2 {
			end := i + 2
			if end > len(adms) {
				end = len(adms)
			}
			err := sc.Admit(kb, adms[i:end], workload.AdmitOptions{
				Batch:        2,
				LinkHospital: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			snap()
		}
	}
	snap() // after Build, before any admissions
	admit(0, 6)
	// A mid-workload checkpoint: later crash images recover from
	// snapshot-plus-log instead of pure log replay.
	if err := kb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap()
	admit(1, 12)

	final := images[len(images)-1]
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("workload produced no alerts; the recovery test would not cover them")
	}

	for i, img := range images {
		rkb, _ := openDurableKB(t, img.dir)
		if got := saveGraph(t, rkb); got != img.export {
			t.Fatalf("image %d: recovered export differs from pre-crash committed state", i)
		}
	}

	// Reopening the final image must not re-fire rules during replay: the
	// pre-crash alerts are in the log, and installing the rule again after
	// recovery must not add any more until new transactions commit.
	rkb, info := openDurableKB(t, final.dir)
	if info.RecordsReplayed == 0 {
		t.Fatalf("final image replayed no records: %+v", info)
	}
	installNaiveRule(t, rkb)
	ralerts, err := rkb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(ralerts) != len(alerts) {
		t.Fatalf("alerts after recovery = %d, want %d (replay must not re-trigger rules)",
			len(ralerts), len(alerts))
	}
	for i := range alerts {
		if !ralerts[i].DateTime.Equal(alerts[i].DateTime) || ralerts[i].Rule != alerts[i].Rule {
			t.Fatalf("alert %d changed across recovery: %+v vs %+v", i, ralerts[i], alerts[i])
		}
	}
}

func TestRollbackReachesNeitherWALNorTriggerEngine(t *testing.T) {
	dir := t.TempDir()
	kb, _ := openDurableKB(t, dir)
	err := kb.InstallRule(trigger.Rule{
		Name:  "ghost-watch",
		Hub:   "G",
		Event: trigger.Event{Kind: trigger.CreateNode, Label: "Ghost"},
		Alert: `MATCH (g:Ghost) WITH count(g) AS n WHERE n > 0 RETURN n`,
	})
	if err != nil {
		t.Fatal(err)
	}

	seqBefore := kb.WAL().LastSeq()
	wantErr := os.ErrInvalid
	_, err = kb.WriteTx(func(tx *graph.Tx) error {
		if _, err := tx.CreateNode([]string{"Ghost"}, map[string]value.Value{"x": value.Int(1)}); err != nil {
			return err
		}
		return wantErr // forces rollback after the write
	})
	if err == nil {
		t.Fatal("WriteTx should have failed")
	}

	if got := kb.WAL().LastSeq(); got != seqBefore {
		t.Fatalf("rolled-back transaction reached the WAL: LastSeq %d -> %d", seqBefore, got)
	}
	alerts, err := kb.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("rolled-back transaction reached the trigger engine: %d alerts", len(alerts))
	}

	// A subsequent transaction commits, triggers, and persists normally.
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Ghost"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := kb.WAL().LastSeq(); got != seqBefore+1 {
		t.Fatalf("LastSeq after commit = %d, want %d", got, seqBefore+1)
	}
	alerts, err = kb.Alerts()
	if err != nil || len(alerts) != 1 {
		t.Fatalf("alerts after commit = %d (%v), want 1", len(alerts), err)
	}
	want := saveGraph(t, kb)
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}
	rkb, _ := openDurableKB(t, dir)
	if got := saveGraph(t, rkb); got != want {
		t.Fatal("recovered state differs: rollback leaked into the log")
	}
}

func TestCheckpointOnInMemoryKB(t *testing.T) {
	kb := core.New(core.Config{})
	if err := kb.Checkpoint(); err != core.ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory KB = %v, want ErrNotDurable", err)
	}
	if kb.Durable() {
		t.Fatal("in-memory KB claims to be durable")
	}
	if err := kb.Close(); err != nil {
		t.Fatalf("Close on in-memory KB = %v, want nil", err)
	}
}
