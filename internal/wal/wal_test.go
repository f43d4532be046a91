package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// harness is a store wired to a log the way core.OpenDurable wires them:
// the commit hook appends without syncing and waits for the group-commit
// fsync once the transaction is published.
type harness struct {
	t     *testing.T
	dir   string
	log   *Log
	store *graph.Store
	info  *RecoveryInfo
}

func openHarness(t *testing.T, dir string, opts Options) *harness {
	t.Helper()
	l, store, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	store.SetCommitHook(func(tx *graph.Tx) error {
		rec := RecordFromTx(tx)
		if rec == nil {
			return nil
		}
		seq, err := l.AppendAsync(rec)
		if err != nil {
			return err
		}
		return tx.OnCommitted(func() error { return l.WaitDurable(seq) })
	})
	h := &harness{t: t, dir: dir, log: l, store: store, info: info}
	t.Cleanup(func() { _ = l.Close() })
	return h
}

func (h *harness) update(fn func(tx *graph.Tx) error) {
	h.t.Helper()
	if err := h.store.Update(fn); err != nil {
		h.t.Fatalf("update: %v", err)
	}
}

func (h *harness) export() string {
	h.t.Helper()
	var b strings.Builder
	if err := h.store.Export(&b); err != nil {
		h.t.Fatalf("export: %v", err)
	}
	return b.String()
}

// checkpoint mirrors core.(*KnowledgeBase).Checkpoint.
func (h *harness) checkpoint() uint64 {
	h.t.Helper()
	var seq uint64
	view, err := h.store.SnapshotView(func() error {
		var err error
		seq, err = h.log.Cut()
		return err
	})
	if err == nil {
		defer view.Rollback()
		var buf strings.Builder
		if err = view.Export(&buf); err == nil {
			err = h.log.Checkpoint(seq, []byte(buf.String()))
		}
	}
	if err != nil {
		h.t.Fatalf("checkpoint: %v", err)
	}
	return seq
}

func listFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// typedProps exercises every value kind the snapshot format must preserve.
func typedProps() map[string]value.Value {
	return map[string]value.Value{
		"str":   value.Str("hello"),
		"empty": value.Str(""),
		"yes":   value.Bool(true),
		"no":    value.Bool(false),
		"n":     value.Int(42),
		"big":   value.Int(1<<60 + 7),
		"f":     value.Float(2.5),
		"whole": value.Float(3.0),
		"when":  value.DateTime(time.Date(2023, 4, 1, 12, 30, 0, 123456789, time.UTC)),
		"span":  value.Duration(36*time.Hour + 15*time.Minute),
		"list": value.ListOf([]value.Value{
			value.Int(1),
			value.ListOf([]value.Value{value.Str("nested"), value.Bool(false)}),
			value.Map(map[string]value.Value{"k": value.Duration(time.Second)}),
		}),
		"map": value.Map(map[string]value.Value{
			"inner": value.Map(map[string]value.Value{"deep": value.DateTime(time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC))}),
			"ns":    value.ListOf([]value.Value{value.Float(1.5), value.Int(2)}),
		}),
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})

	var n1, n2, n3 graph.NodeID
	h.update(func(tx *graph.Tx) error {
		var err error
		if n1, err = tx.CreateNode([]string{"Person", "Admin"}, typedProps()); err != nil {
			return err
		}
		if n2, err = tx.CreateNode([]string{"Person"}, map[string]value.Value{"name": value.Str("b")}); err != nil {
			return err
		}
		if n3, err = tx.CreateNode([]string{"Temp"}, nil); err != nil {
			return err
		}
		_, err = tx.CreateRel(n1, n2, "KNOWS", map[string]value.Value{"since": value.Int(2019)})
		return err
	})
	h.update(func(tx *graph.Tx) error {
		// Exercise every event kind, including order-sensitive sequences
		// (set then remove, remove then set) and a delete of the
		// highest-numbered node (counter fidelity).
		if err := tx.SetLabel(n2, "Flagged"); err != nil {
			return err
		}
		if err := tx.RemoveLabel(n1, "Admin"); err != nil {
			return err
		}
		if err := tx.SetNodeProp(n2, "score", value.Int(1)); err != nil {
			return err
		}
		if err := tx.RemoveNodeProp(n2, "score"); err != nil {
			return err
		}
		if err := tx.RemoveNodeProp(n1, "str"); err != nil {
			return err
		}
		if err := tx.SetNodeProp(n1, "str", value.Str("rewritten")); err != nil {
			return err
		}
		return tx.DeleteNode(n3, true)
	})
	want := h.export()
	wantSeq := h.log.LastSeq()
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := openHarness(t, dir, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != want {
		t.Fatalf("recovered export differs\nwant:\n%s\ngot:\n%s", want, got)
	}
	if h2.log.LastSeq() != wantSeq {
		t.Fatalf("LastSeq = %d, want %d", h2.log.LastSeq(), wantSeq)
	}
	if h2.info.RecordsReplayed != 2 || h2.info.DiscardedBytes != 0 {
		t.Fatalf("info = %+v, want 2 replayed and no discard", h2.info)
	}

	// Identifier allocation must continue where the pre-crash run left off
	// (n3 was the highest node id and was deleted again).
	h2.update(func(tx *graph.Tx) error {
		id, err := tx.CreateNode([]string{"Person"}, nil)
		if err != nil {
			return err
		}
		if id != n3+1 {
			t.Errorf("post-recovery node id = %d, want %d", id, n3+1)
		}
		return nil
	})
}

func TestTypedValuesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})
	var id graph.NodeID
	h.update(func(tx *graph.Tx) error {
		var err error
		id, err = tx.CreateNode([]string{"T"}, typedProps())
		return err
	})
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := openHarness(t, dir, Options{Fsync: FsyncAlways})
	err := h2.store.View(func(tx *graph.Tx) error {
		want := typedProps()
		for k, wv := range want {
			gv, ok := tx.NodeProp(id, k)
			if !ok {
				t.Errorf("prop %s missing after recovery", k)
				continue
			}
			if eq, known := value.Equal(gv, wv); !known || !eq {
				t.Errorf("prop %s = %v, want %v", k, gv, wv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRollbackReachesNeitherWALNorDisk(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})

	tx := h.store.Begin(graph.ReadWrite)
	if _, err := tx.CreateNode([]string{"Ghost"}, nil); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	if got := h.log.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after rollback = %d, want 0", got)
	}
	if segs := listFiles(t, dir, segSuffix); len(segs) != 0 {
		t.Fatalf("segments after rollback = %v, want none", segs)
	}

	// The next committed transaction takes sequence number 1 as if the
	// rolled-back one never existed.
	h.update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Real"}, nil)
		return err
	})
	if got := h.log.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after first commit = %d, want 1", got)
	}
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := openHarness(t, dir, Options{Fsync: FsyncAlways})
	err := h2.store.View(func(tx *graph.Tx) error {
		if n := len(tx.NodesByLabel("Ghost")); n != 0 {
			t.Errorf("recovered %d Ghost nodes, want 0", n)
		}
		if n := len(tx.NodesByLabel("Real")); n != 1 {
			t.Errorf("recovered %d Real nodes, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	// A 1-byte threshold rotates on every append.
	h := openHarness(t, dir, Options{Fsync: FsyncAlways, SegmentSize: 1})
	const txs = 7
	for i := 0; i < txs; i++ {
		h.update(func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"N"}, map[string]value.Value{"i": value.Int(int64(i))})
			return err
		})
	}
	want := h.export()
	if segs := listFiles(t, dir, segSuffix); len(segs) != txs {
		t.Fatalf("segments = %d, want %d", len(segs), txs)
	}
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}
	h2 := openHarness(t, dir, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != want {
		t.Fatalf("recovered export differs after rotation")
	}
	if h2.info.SegmentsScanned != txs || h2.info.RecordsReplayed != txs {
		t.Fatalf("info = %+v, want %d segments and records", h2.info, txs)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 4; i++ {
		h.update(func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"Pre"}, map[string]value.Value{"i": value.Int(int64(i))})
			return err
		})
	}
	seq := h.checkpoint()
	if seq != 4 {
		t.Fatalf("checkpoint seq = %d, want 4", seq)
	}
	if segs := listFiles(t, dir, segSuffix); len(segs) != 0 {
		t.Fatalf("segments after checkpoint = %v, want none", segs)
	}
	if snaps := listFiles(t, dir, snapSuffix); len(snaps) != 1 {
		t.Fatalf("snapshots after checkpoint = %v, want one", snaps)
	}
	for i := 0; i < 3; i++ {
		h.update(func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"Post"}, map[string]value.Value{"i": value.Int(int64(i))})
			return err
		})
	}
	// A second checkpoint supersedes the first.
	h.checkpoint()
	h.update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Tail"}, nil)
		return err
	})
	want := h.export()
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := openHarness(t, dir, Options{Fsync: FsyncAlways})
	if got := h2.export(); got != want {
		t.Fatalf("recovered export differs after checkpoints")
	}
	if h2.info.SnapshotSeq != 7 || h2.info.RecordsReplayed != 1 {
		t.Fatalf("info = %+v, want snapshot seq 7 and 1 replayed record", h2.info)
	}
	if snaps := listFiles(t, dir, snapSuffix); len(snaps) != 1 {
		t.Fatalf("snapshots = %v, want only the newest", snaps)
	}
}

func TestFsyncPolicyParse(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestIntervalFsyncFlushes(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	h.update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"N"}, nil)
		return err
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		segs := listFiles(t, dir, segSuffix)
		if len(segs) == 1 {
			if st, err := os.Stat(filepath.Join(dir, segs[0])); err == nil && st.Size() > int64(len(segMagic)) {
				res, err := scanSegment(filepath.Join(dir, segs[0]))
				if err == nil && len(res.records) == 1 {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never flushed the record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := h.log.Close(); err != nil {
		t.Fatal(err)
	}
}

// frameOffsets returns the byte offset where each record's frame starts.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("%s: bad segment header", path)
	}
	var offs []int64
	off := int64(len(segMagic))
	for off < int64(len(data)) {
		if int64(len(data))-off < frameHdrSize {
			t.Fatalf("%s: trailing garbage", path)
		}
		offs = append(offs, off)
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += frameHdrSize + length
	}
	return offs
}
