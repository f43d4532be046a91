package replica

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/value"
	"repro/internal/wal"
)

// testOpts shrinks every timing knob so tests converge in milliseconds.
func testOpts() Options {
	return Options{
		WAL:               wal.Options{Fsync: wal.FsyncAlways},
		PollInterval:      2 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		StreamWindow:      250 * time.Millisecond,
		Policy: backoff.Policy{
			BackoffBase:      5 * time.Millisecond,
			BackoffMax:       25 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  30 * time.Millisecond,
		},
		BatchSize: 64,
	}
}

// openLeader opens a durable leader KB in dir and serves its replication
// endpoints from an httptest server.
func openLeader(t *testing.T, dir string) (*core.KnowledgeBase, *httptest.Server) {
	t.Helper()
	kb, _, err := core.OpenDurable(dir, core.Config{}, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { _ = kb.Close() })
	ld, err := NewLeader(kb, testOpts())
	if err != nil {
		t.Fatalf("NewLeader: %v", err)
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return kb, srv
}

func writeDoc(t *testing.T, kb *core.KnowledgeBase, i int) {
	t.Helper()
	if _, err := kb.WriteTx(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Doc"}, map[string]value.Value{"i": value.Int(int64(i))})
		return err
	}); err != nil {
		t.Fatalf("leader write %d: %v", i, err)
	}
}

func export(t *testing.T, kb *core.KnowledgeBase) string {
	t.Helper()
	var b strings.Builder
	if err := kb.SaveGraph(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// waitCaughtUp polls until the follower's apply cursor reaches the leader's
// current last sequence number.
func waitCaughtUp(t *testing.T, f *Follower, leader *core.KnowledgeBase) {
	t.Helper()
	target := leader.WAL().LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for f.KB().ReplicaAppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, leader at %d (state %s)",
				f.KB().ReplicaAppliedSeq(), target, f.State())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFollowerBootstrapsAndStreams(t *testing.T) {
	ldir := t.TempDir()
	leader, srv := openLeader(t, ldir)
	for i := 0; i < 20; i++ {
		writeDoc(t, leader, i)
	}

	fol, err := OpenFollower(t.TempDir(), srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer fol.Close()
	// The bootstrap snapshot alone already covers the leader's state.
	if got := fol.KB().ReplicaAppliedSeq(); got != 20 {
		t.Fatalf("bootstrap cursor = %d, want 20", got)
	}
	if fol.KB().Role() != "follower" {
		t.Fatalf("role = %q", fol.KB().Role())
	}

	fol.Start()
	// Writes made while streaming arrive without re-bootstrap.
	for i := 20; i < 50; i++ {
		writeDoc(t, leader, i)
	}
	waitCaughtUp(t, fol, leader)
	if got, want := export(t, fol.KB()), export(t, leader); got != want {
		t.Fatal("follower export differs from leader")
	}

	// Writes on the follower are rejected with the typed error.
	if _, err := fol.KB().Execute("CREATE (:X)", nil); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("follower accepted a write: %v", err)
	}

	// Lag reads as caught up: no record lag, and the staleness clock was
	// refreshed by a recent heartbeat.
	if recs, secs := fol.Lag(); recs != 0 || secs > 2 {
		t.Fatalf("caught-up lag = %d records / %.3fs", recs, secs)
	}
	st := fol.Status()
	if st.State != "streaming" || st.AppliedSeq != leader.WAL().LastSeq() {
		t.Fatalf("status = %+v", st)
	}
}

func TestInMemoryFollower(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	for i := 0; i < 10; i++ {
		writeDoc(t, leader, i)
	}
	fol, err := OpenFollower("", srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	defer fol.Close()
	fol.Start()
	for i := 10; i < 25; i++ {
		writeDoc(t, leader, i)
	}
	waitCaughtUp(t, fol, leader)
	if got, want := export(t, fol.KB()), export(t, leader); got != want {
		t.Fatal("in-memory follower export differs from leader")
	}
}

func TestFollowerRestartResumesWithoutRebootstrap(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	for i := 0; i < 10; i++ {
		writeDoc(t, leader, i)
	}
	fdir := t.TempDir()
	fol, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fol.Start()
	waitCaughtUp(t, fol, leader)
	if err := fol.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// More leader writes while the follower is down.
	for i := 10; i < 30; i++ {
		writeDoc(t, leader, i)
	}

	fol2, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fol2.Close()
	// The durable cursor survived; no snapshot was fetched again.
	if got := fol2.m.bootstraps.Value(); got != 0 {
		t.Fatalf("restart re-bootstrapped (%d times)", got)
	}
	if got := fol2.KB().ReplicaAppliedSeq(); got != 10 {
		t.Fatalf("restart cursor = %d, want 10", got)
	}
	fol2.Start()
	waitCaughtUp(t, fol2, leader)
	if got, want := export(t, fol2.KB()), export(t, leader); got != want {
		t.Fatal("follower export differs after restart")
	}
}

func TestFollowerRebootstrapsAfterLeaderTruncation(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	for i := 0; i < 5; i++ {
		writeDoc(t, leader, i)
	}
	fdir := t.TempDir()
	fol, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fol.Start()
	waitCaughtUp(t, fol, leader)
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down, the leader moves on AND checkpoints: the
	// records the follower would need next are compacted away.
	for i := 5; i < 15; i++ {
		writeDoc(t, leader, i)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	fol2, err := OpenFollower(fdir, srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	defer fol2.Close()
	if got := fol2.m.bootstraps.Value(); got != 1 {
		t.Fatalf("bootstraps = %d, want 1 (re-seed after truncation)", got)
	}
	fol2.Start()
	writeDoc(t, leader, 15)
	waitCaughtUp(t, fol2, leader)
	if got, want := export(t, fol2.KB()), export(t, leader); got != want {
		t.Fatal("follower export differs after re-bootstrap")
	}
}

func TestFollowerReportsLagWhileLeaderUnreachable(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	for i := 0; i < 5; i++ {
		writeDoc(t, leader, i)
	}
	fol, err := OpenFollower(t.TempDir(), srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()
	waitCaughtUp(t, fol, leader)

	// One more heartbeat cycle so the follower has a fresh leaderSeq, then
	// take the leader down and keep writing into its log directly — the
	// follower cannot see these, so record lag must stay at 0 only until a
	// reconnect would have told it otherwise; the robust observable here is
	// that the loop keeps retrying without reaching a terminal state.
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	if st := fol.State(); st != "streaming" {
		t.Fatalf("state after leader loss = %q, want streaming (retrying)", st)
	}
	// The staleness clock keeps ticking while the leader is unreachable —
	// this is what -max-lag gates /healthz on.
	if _, secs := fol.Lag(); secs < 0.04 {
		t.Fatalf("lag seconds = %.3f after 50ms of leader loss", secs)
	}
}

// TestConcurrentLeaderWritesWhileStreaming hammers the leader with parallel
// writers while a follower streams; run with -race. The follower must end
// byte-identical, proving the cursor/rotation/apply path is race-free and
// exactly-once under contention.
func TestConcurrentLeaderWritesWhileStreaming(t *testing.T) {
	leader, srv := openLeader(t, t.TempDir())
	fol, err := OpenFollower(t.TempDir(), srv.URL, core.Config{}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				writeDoc(t, leader, w*perWriter+i)
				if i%20 == 19 {
					if _, err := leader.WAL().Cut(); err != nil {
						t.Errorf("cut: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	waitCaughtUp(t, fol, leader)
	if got, want := export(t, fol.KB()), export(t, leader); got != want {
		t.Fatal("follower export differs under concurrent load")
	}
}
