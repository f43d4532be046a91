package wal

// Fault-injection tests: simulated crashes are produced by copying the log
// directory at a chosen moment (the files a real crash would leave behind,
// given FsyncAlways) and then mutilating the copy — truncating the last
// record at every byte offset, flipping bytes mid-stream, leaving
// checkpoint temp files around — before recovering from it.

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

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

// buildWorkload commits txs transactions and returns the export after each
// one (exports[i] = state after i+1 commits).
func buildWorkload(t *testing.T, h *harness, txs int) []string {
	t.Helper()
	exports := make([]string, 0, txs)
	var nodes []graph.NodeID
	for i := 0; i < txs; i++ {
		i := i
		h.update(func(tx *graph.Tx) error {
			id, err := tx.CreateNode([]string{"Event"}, map[string]value.Value{
				"i":    value.Int(int64(i)),
				"name": value.Str(fmt.Sprintf("event-%d", i)),
			})
			if err != nil {
				return err
			}
			if len(nodes) > 0 {
				if _, err := tx.CreateRel(nodes[len(nodes)-1], id, "NEXT", nil); err != nil {
					return err
				}
			}
			if i%3 == 2 && len(nodes) > 1 {
				if err := tx.SetNodeProp(nodes[0], "touched", value.Int(int64(i))); err != nil {
					return err
				}
				if err := tx.DeleteNode(nodes[1], true); err != nil {
					return err
				}
				nodes = append(nodes[:1], nodes[2:]...)
			}
			nodes = append(nodes, id)
			return nil
		})
		exports = append(exports, h.export())
	}
	return exports
}

// TestTornTailEveryOffset truncates the final segment at every byte offset
// within the last record (including its frame header) and checks that
// recovery lands exactly on the previous committed state, discarding and
// reporting the torn tail.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})
	const txs = 5
	exports := buildWorkload(t, h, txs)
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	segs := listFiles(t, dir, segSuffix)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	segPath := filepath.Join(dir, segs[0])
	offs := frameOffsets(t, segPath)
	if len(offs) != txs {
		t.Fatalf("records in segment = %d, want %d", len(offs), txs)
	}
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	fileLen := st.Size()
	lastStart := offs[txs-1]

	for cut := lastStart; cut <= fileLen; cut++ {
		crash := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crash, segs[0]), cut); err != nil {
			t.Fatal(err)
		}
		h2 := openHarness(t, crash, Options{Fsync: FsyncAlways})
		want := exports[txs-2]
		wantSeq := uint64(txs - 1)
		if cut == fileLen {
			want = exports[txs-1]
			wantSeq = txs
		}
		if got := h2.export(); got != want {
			t.Fatalf("cut at %d/%d: recovered state differs from last committed state", cut, fileLen)
		}
		if h2.log.LastSeq() != wantSeq {
			t.Fatalf("cut at %d: LastSeq = %d, want %d", cut, h2.log.LastSeq(), wantSeq)
		}
		if cut < fileLen {
			if h2.info.DiscardedBytes != cut-lastStart {
				t.Fatalf("cut at %d: DiscardedBytes = %d, want %d",
					cut, h2.info.DiscardedBytes, cut-lastStart)
			}
			// A truncation exactly on the record boundary is a clean
			// prefix, not a torn tail; past it, the path must be reported.
			if cut > lastStart && h2.info.DiscardedPath == "" {
				t.Fatalf("cut at %d: DiscardedPath not reported", cut)
			}
		} else if h2.info.DiscardedBytes != 0 {
			t.Fatalf("clean log reported %d discarded bytes", h2.info.DiscardedBytes)
		}
		// The log must keep working after a torn-tail recovery: the torn
		// segment was truncated to its last intact record, and new appends
		// land in a fresh segment.
		h2.update(func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"PostCrash"}, nil)
			return err
		})
		want2 := h2.export()
		if err := h2.log.Close(); err != nil {
			t.Fatal(err)
		}
		h3 := openHarness(t, crash, Options{Fsync: FsyncAlways})
		if got := h3.export(); got != want2 {
			t.Fatalf("cut at %d: second recovery differs after post-crash commit", cut)
		}
		if err := h3.log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptRecordMidStream flips a byte inside an early record: recovery
// must stop there, discard everything after it (including later segments),
// and report how much was dropped.
func TestCorruptRecordMidStream(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways, SegmentSize: 1}) // one record per segment
	const txs = 4
	exports := buildWorkload(t, h, txs)
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	segs := listFiles(t, dir, segSuffix)
	if len(segs) != txs {
		t.Fatalf("segments = %d, want %d", len(segs), txs)
	}
	crash := copyDir(t, dir)
	second := filepath.Join(crash, segs[1])
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the payload, CRC now mismatches
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := openHarness(t, crash, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != exports[0] {
		t.Fatalf("recovered state differs from the state before the corrupt record")
	}
	if h2.log.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", h2.log.LastSeq())
	}
	if h2.info.DiscardedBytes == 0 {
		t.Fatal("corruption not reported in DiscardedBytes")
	}
	// The corrupt segment and everything after it are gone from disk.
	left := listFiles(t, crash, segSuffix)
	if len(left) != 1 || left[0] != segs[0] {
		t.Fatalf("segments after recovery = %v, want only %s", left, segs[0])
	}
}

// TestKillMidCheckpoint simulates deaths at both vulnerable points of a
// checkpoint: before the snapshot rename (a stray .tmp file remains) and
// after the rename but before old segments are deleted.
func TestKillMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})
	exports := buildWorkload(t, h, 6)
	want := exports[5]

	// Death before rename: a partial snapshot temp file must be ignored
	// and removed; recovery uses the full log.
	crash := copyDir(t, dir)
	tmp := filepath.Join(crash, snapshotName(6)+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"format":"reactive-graph/v1","nodes":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	h2 := openHarness(t, crash, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != want {
		t.Fatal("recovery with stray snapshot temp file differs from committed state")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stray snapshot temp file not cleaned up")
	}
	if err := h2.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Death after rename, before compaction: the snapshot covers seq 4 but
	// every segment is still present; replay must skip the covered records
	// and apply only 5 and 6.
	crash2 := copyDir(t, dir)
	snap4 := []byte(exports[3])
	if err := os.WriteFile(filepath.Join(crash2, snapshotName(4)), snap4, 0o644); err != nil {
		t.Fatal(err)
	}
	h3 := openHarness(t, crash2, Options{Fsync: FsyncAlways})
	if got := h3.export(); got != want {
		t.Fatal("recovery with un-compacted snapshot differs from committed state")
	}
	if h3.info.SnapshotSeq != 4 || h3.info.RecordsReplayed != 2 {
		t.Fatalf("info = %+v, want snapshot seq 4 and 2 replayed records", h3.info)
	}
	if err := h3.log.Close(); err != nil {
		t.Fatal(err)
	}

	// An unreadable *renamed* snapshot (torn by the filesystem) must fall
	// back to the previous snapshot, or to pure log replay when there is
	// none, as long as the covered segments were not yet deleted.
	crash3 := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crash3, snapshotName(5)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	h4 := openHarness(t, crash3, Options{Fsync: FsyncAlways})
	if got := h4.export(); got != want {
		t.Fatal("recovery with unreadable snapshot differs from committed state")
	}
	if h4.info.SnapshotSeq != 0 {
		t.Fatalf("unreadable snapshot was not skipped: %+v", h4.info)
	}
}

// TestRecoveryNoticesReachTheLog opens a directory with an unreadable
// snapshot and a torn tail and checks that recovery reports both on the
// standard logger, where a server's operator reads them.
func TestRecoveryNoticesReachTheLog(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})
	exports := buildWorkload(t, h, 3)
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crash, snapshotName(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs := listFiles(t, crash, segSuffix)
	last := filepath.Join(crash, segs[len(segs)-1])
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	h2 := openHarness(t, crash, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != exports[1] {
		t.Fatal("recovery differs from the state before the torn record")
	}
	out := buf.String()
	for _, want := range []string{"wal: skipping snapshot " + filepath.Join(crash, snapshotName(2)), "of torn tail"} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q; got:\n%s", want, out)
		}
	}
}
