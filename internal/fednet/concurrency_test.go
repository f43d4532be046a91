package fednet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// TestConcurrentSyncAll races SyncAll callers against concurrent
// admissions under the race detector. Whatever the interleaving, every alert
// is delivered and materialized exactly once.
func TestConcurrentSyncAll(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)
	src, err := NewNode("clinic", srcKB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}

	const writers, admitsPerWriter, syncers = 4, 25, 4
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
	)
	errCh := make(chan error, writers+syncers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < admitsPerWriter; i++ {
				if _, err := srcKB.Execute("CREATE (:IcuPatient {region: 'Lombardy', hub: 'C'})", nil); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for s := 0; s < syncers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n, err := src.SyncAll(context.Background())
				if err != nil {
					errCh <- err
					return
				}
				sent.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	n, err := src.SyncAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sent.Add(int64(n))

	const want = writers * admitsPerWriter
	if got := sent.Load(); got != want {
		t.Errorf("delivered %d alerts in total, want %d", got, want)
	}
	if ids := remoteIDs(t, dstKB); len(ids) != want {
		t.Fatalf("remote alerts = %d, want %d (lost under concurrency)", len(ids), want)
	}
}

// TestSyncDuringOpenWrite: federation sync scans the source's alerts from a
// published snapshot, so delivery to the peer proceeds while a write
// transaction is open on the source knowledge base. Only the outbox-mark
// persist (itself a write) queues behind the open writer, so SyncAll
// completes as soon as the writer commits.
func TestSyncDuringOpenWrite(t *testing.T) {
	srcKB, dstKB := newMemKB(t), newMemKB(t)
	_, url, _ := newReceiver(t, "region", dstKB)
	src, err := NewNode("clinic", srcKB, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Subscribe("region", url); err != nil {
		t.Fatal(err)
	}
	admit(t, srcKB, "Lombardy")
	admit(t, srcKB, "Veneto")

	type syncResult struct {
		sent int
		err  error
	}
	syncDone := make(chan syncResult, 1)
	_, err = srcKB.WriteTx(func(tx *graph.Tx) error {
		if _, err := tx.CreateNode([]string{"Note"}, map[string]value.Value{
			"text": value.Str("open while syncing"),
		}); err != nil {
			return err
		}
		// The source's alert scan is lock-free: from inside the open write
		// transaction (same goroutine, write lock held) it must return the
		// committed alerts without deadlocking.
		alerts, err := srcKB.AlertsAfter(0)
		if err != nil {
			return err
		}
		if len(alerts) != 2 {
			return fmt.Errorf("AlertsAfter saw %d alerts during open write, want 2", len(alerts))
		}

		go func() {
			sent, err := src.SyncAll(context.Background())
			syncDone <- syncResult{sent, err}
		}()
		// Delivery must reach the receiver while this transaction still
		// holds the source's write lock.
		deadline := time.Now().Add(5 * time.Second)
		for {
			remote, err := RemoteAlerts(dstKB)
			if err != nil {
				return err
			}
			if len(remote) == 2 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("receiver got %d remote alerts while source write was open, want 2", len(remote))
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// With the writer committed, the mark persist unblocks and SyncAll
	// reports both deliveries.
	select {
	case res := <-syncDone:
		if res.err != nil {
			t.Fatalf("SyncAll: %v", res.err)
		}
		if res.sent != 2 {
			t.Fatalf("SyncAll delivered %d alerts, want 2", res.sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SyncAll did not complete after the write transaction committed")
	}
	if ids := remoteIDs(t, dstKB); len(ids) != 2 {
		t.Fatalf("receiver has %d remote alerts, want 2", len(ids))
	}
}
