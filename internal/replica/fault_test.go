package replica

// Fault-injection suite for replication catch-up: crash the follower
// mid-stream, crash the leader mid-push, restart both, and require the
// follower to converge to a byte-identical Export of the leader — no
// duplicated and no lost records. Crashes are simulated the same way the
// wal and core suites do: copying a FsyncAlways log directory at an
// arbitrary instant is exactly the state a kill at that instant leaves
// (including torn tails, which recovery discards). Exactly-once apply is
// structurally checked too: a duplicated record would fail ApplyRecord (the
// node id already exists) and a gap would fail the contiguity check, so
// convergence without a "failed" follower state is a strong property.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// copyDir snapshots a log directory file-by-file — the crash image.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// swapHandler lets a test "kill" and "restart" the leader's HTTP face while
// the follower keeps the same URL: nil means down (502), non-nil serves.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "leader down", http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// leaderMux wires a fresh Leader over kb onto a new mux.
func leaderMux(t *testing.T, kb *core.KnowledgeBase) *http.ServeMux {
	t.Helper()
	ld, err := NewLeader(kb, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	return mux
}

func TestFaultFollowerCrashMidStream(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	fdir := t.TempDir()
	fol, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fol.Start()

	// Write while the follower streams; crash it once it is mid-way.
	for i := 0; i < 120; i++ {
		writeDoc(t, leader, i)
	}
	deadline := time.Now().Add(15 * time.Second)
	for fol.KB().ReplicaAppliedSeq() < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached seq 40 (at %d)", fol.KB().ReplicaAppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
	image := copyDir(t, fdir) // the kill: state at an arbitrary mid-stream instant
	fol.Stop()
	_ = fol.Close()

	// More writes land while the follower is "down".
	for i := 120; i < 150; i++ {
		writeDoc(t, leader, i)
	}

	// Restart from the crash image: recovery finds the durable apply cursor
	// and streaming resumes from exactly there.
	fol2, err := OpenFollower(image, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatalf("restart from crash image: %v", err)
	}
	defer fol2.Close()
	if got := fol2.m.bootstraps.Value(); got != 0 {
		t.Fatalf("crash restart re-bootstrapped (%d)", got)
	}
	fol2.Start()
	waitCaughtUp(t, fol2, leader)
	if got, want := export(t, fol2.KB()), export(t, leader); got != want {
		t.Fatal("follower export differs from leader after follower crash/restart")
	}
	if fol2.KB().ReplicaAppliedSeq() != leader.WAL().LastSeq() {
		t.Fatal("cursor mismatch after convergence")
	}
}

func TestFaultLeaderCrashMidPush(t *testing.T) {
	ldir := t.TempDir()
	leader1, _, err := openDurableLeaderKB(ldir)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{}
	sw.set(leaderMux(t, leader1))
	srv := httptest.NewServer(sw)
	defer srv.Close()

	fdir := t.TempDir()
	fol, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	for i := 0; i < 80; i++ {
		writeDoc(t, leader1, i)
	}
	deadline := time.Now().Add(15 * time.Second)
	for fol.KB().ReplicaAppliedSeq() < 30 {
		if time.Now().After(deadline) {
			t.Fatal("follower never got going")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the leader mid-push: connections start failing, and the process
	// state is whatever the log held at that instant.
	sw.set(nil)
	image := copyDir(t, ldir)
	if err := leader1.Close(); err != nil {
		t.Fatal(err)
	}

	// The follower retries with backoff; it must not reach a terminal state
	// from a down leader.
	time.Sleep(50 * time.Millisecond)
	if st := fol.State(); st != "streaming" {
		t.Fatalf("follower state while leader down = %q", st)
	}

	// Restart the leader from the crash image and keep writing.
	leader2, _, err := openDurableLeaderKB(image)
	if err != nil {
		t.Fatalf("leader restart: %v", err)
	}
	defer leader2.Close()
	sw.set(leaderMux(t, leader2))
	for i := 80; i < 120; i++ {
		writeDoc(t, leader2, i)
	}

	waitCaughtUp(t, fol, leader2)
	if got, want := export(t, fol.KB()), export(t, leader2); got != want {
		t.Fatal("follower export differs from leader after leader crash/restart")
	}
}

// TestFaultCrashBothSidesConverge kills the follower mid-stream, then the
// leader mid-push, restarts both from their crash images, and requires
// byte-identical convergence — the full satellite scenario in one run.
func TestFaultCrashBothSidesConverge(t *testing.T) {
	ldir := t.TempDir()
	leader1, _, err := openDurableLeaderKB(ldir)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{}
	sw.set(leaderMux(t, leader1))
	srv := httptest.NewServer(sw)
	defer srv.Close()

	fdir := t.TempDir()
	fol1, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fol1.Start()

	for i := 0; i < 100; i++ {
		writeDoc(t, leader1, i)
	}
	deadline := time.Now().Add(15 * time.Second)
	for fol1.KB().ReplicaAppliedSeq() < 30 {
		if time.Now().After(deadline) {
			t.Fatal("follower never got going")
		}
		time.Sleep(time.Millisecond)
	}

	// Crash the follower mid-stream.
	fimage := copyDir(t, fdir)
	_ = fol1.Close()

	// Crash the leader mid-push (more writes first, so there is a push).
	for i := 100; i < 130; i++ {
		writeDoc(t, leader1, i)
	}
	sw.set(nil)
	limage := copyDir(t, ldir)
	if err := leader1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart both.
	leader2, _, err := openDurableLeaderKB(limage)
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	sw.set(leaderMux(t, leader2))
	fol2, err := OpenFollower(fimage, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Close()
	fol2.Start()

	for i := 130; i < 160; i++ {
		writeDoc(t, leader2, i)
	}
	waitCaughtUp(t, fol2, leader2)
	if got, want := export(t, fol2.KB()), export(t, leader2); got != want {
		t.Fatal("exports differ after crashing and restarting both sides")
	}
}

// openDurableLeaderKB opens a durable KB without the test-server wrapper, so
// crash-image restarts control the lifecycle explicitly.
func openDurableLeaderKB(dir string) (*core.KnowledgeBase, *wal.RecoveryInfo, error) {
	return core.OpenDurable(dir, core.Config{}, wal.Options{Fsync: wal.FsyncAlways})
}
