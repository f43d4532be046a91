package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

// Fsync policies. Always fsyncs after every committed transaction (no
// committed work is ever lost, slowest). Interval fsyncs on a background
// ticker (bounded loss window, near-in-memory throughput). None leaves
// flushing to the operating system (fastest; loss window is the OS page
// cache).
const (
	FsyncAlways FsyncPolicy = iota
	FsyncInterval
	FsyncNone
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Defaults for Options zero values.
const (
	DefaultFsyncInterval = 100 * time.Millisecond
	DefaultSegmentSize   = 16 << 20
)

// Options tunes a log.
type Options struct {
	// Fsync selects the durability/throughput trade-off (FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the ticker period under FsyncInterval
	// (DefaultFsyncInterval when zero).
	FsyncInterval time.Duration
	// SegmentSize is the rotation threshold in bytes (DefaultSegmentSize
	// when zero).
	SegmentSize int64
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// Metrics holds the log's optional instrumentation. All fields may be nil
// (instrument methods on nil receivers no-op). Install with SetMetrics.
type Metrics struct {
	// RecordsAppended counts records durably assigned a sequence number.
	RecordsAppended *metrics.Counter
	// BytesAppended counts framed bytes written to segments.
	BytesAppended *metrics.Counter
	// FsyncSeconds observes the latency of each fsync of the active
	// segment, whichever policy forced it.
	FsyncSeconds *metrics.Histogram
	// SegmentsOpened counts segment files started (the first open plus
	// every size- or checkpoint-driven rotation).
	SegmentsOpened *metrics.Counter
	// CheckpointSeconds observes end-to-end checkpoint duration: snapshot
	// install, directory syncs and superseded-file removal.
	CheckpointSeconds *metrics.Histogram
	// GroupCommitTxs counts transactions that went through the group-commit
	// durability wait (WaitDurable under FsyncAlways).
	GroupCommitTxs *metrics.Counter
	// GroupCommitSyncs counts the fsyncs those transactions shared; the
	// ratio GroupCommitTxs / GroupCommitSyncs is the achieved batch factor.
	GroupCommitSyncs *metrics.Counter
	// GroupCommitBatchTxs observes how many transactions each shared fsync
	// made durable.
	GroupCommitBatchTxs *metrics.Histogram
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// RecoveryInfo reports what Open found and replayed.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number covered by the snapshot the store
	// was restored from (0 = no snapshot, recovery started empty).
	SnapshotSeq uint64
	// SnapshotPath is the snapshot file used ("" when none).
	SnapshotPath string
	// RecordsReplayed counts WAL records applied on top of the snapshot.
	RecordsReplayed int
	// SegmentsScanned counts segment files read.
	SegmentsScanned int
	// DiscardedBytes is the size of the torn tail dropped at the first
	// corrupt record, 0 when the log was clean.
	DiscardedBytes int64
	// DiscardedPath is the segment file the torn tail was found in.
	DiscardedPath string
	// LastSeq is the sequence number recovery ended on; appends continue
	// from LastSeq+1.
	LastSeq uint64
}

// Log is an append-only write-ahead log over a directory. Appends are
// serialized by the committing store's write lock in normal operation, but
// the log carries its own mutex so checkpoints and background fsyncs are
// safe against concurrent commits.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File      // active segment, nil until the first append after open/cut
	w       *bufio.Writer // buffers writes to f
	size    int64         // bytes written to the active segment
	lastSeq uint64
	// synced is the highest sequence number known to be on stable storage;
	// group commit (WaitDurable) advances it one shared fsync at a time.
	synced uint64
	// syncing is set while a group-commit leader runs fsync outside mu;
	// rotation and segment close are deferred until it clears.
	syncing  bool
	syncCond *sync.Cond // signals synced/syncing/closed changes
	dirty    bool       // unflushed or unsynced appends under FsyncInterval
	closed   bool
	stopSync chan struct{} // closes the background fsync goroutine
	syncDone chan struct{}
	metrics  Metrics
}

// SetMetrics installs the log's instrumentation. Call it right after Open,
// before appends begin.
func (l *Log) SetMetrics(m Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = m
}

// ErrShardedLayout is returned by Open for a directory laid out by the
// removed hub-sharded engine: one shard-NNN/ log stream per hub. Its streams
// may hold two-stream bridge records that a single log cannot replay, so the
// directory is refused rather than read in part.
var ErrShardedLayout = errors.New("wal: hub-sharded data directory (shard-NNN/ log streams) is no longer supported")

// Open recovers the state persisted in dir — newest loadable snapshot, then
// every intact WAL record after it — into a fresh graph store, and returns
// the log ready for appends together with the recovered store. A torn or
// truncated record ends replay: the tail from that point on is discarded
// (reported via RecoveryInfo and the standard logger), the torn segment is
// truncated to its last intact record, and later segments are removed,
// because their transactions depend on the discarded ones. Opening a
// nonexistent or empty directory yields an empty store; a directory in the
// hub-sharded layout fails with ErrShardedLayout before anything is written.
func Open(dir string, opts Options) (*Log, *graph.Store, *RecoveryInfo, error) {
	opts = opts.withDefaults()
	if shards, _ := filepath.Glob(filepath.Join(dir, "shard-[0-9][0-9][0-9]")); len(shards) > 0 {
		return nil, nil, nil, fmt.Errorf("%w: %s holds %s", ErrShardedLayout, dir, filepath.Base(shards[0]))
	}
	store, info, err := recoverDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts, lastSeq: info.LastSeq, synced: info.LastSeq}
	l.syncCond = sync.NewCond(&l.mu)
	if opts.Fsync == FsyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, store, info, nil
}

// recoverDir restores the newest loadable snapshot under dir and replays
// the intact live records after it, in order, each as soon as it is scanned
// (memory stays bounded by one segment); torn tails are truncated on disk.
// An unreadable snapshot (e.g. the machine died while a checkpoint was
// finalizing) falls back to the previous one plus the still-present
// segments.
func recoverDir(dir string) (*graph.Store, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	segments, snapshots, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	store, info := graph.NewStore(), &RecoveryInfo{}
	for _, snap := range snapshots {
		f, err := os.Open(snap.path)
		if err != nil {
			log.Printf("wal: skipping snapshot %s: %v", snap.path, err)
			continue
		}
		err = store.Import(f)
		f.Close()
		if err != nil {
			log.Printf("wal: skipping snapshot %s: %v", snap.path, err)
			store = graph.NewStore()
			continue
		}
		info.SnapshotSeq = snap.seq
		info.SnapshotPath = snap.path
		break
	}
	info.LastSeq = info.SnapshotSeq

	// Segments in order, skipping records the snapshot already covers,
	// stopping at the first corruption.
	for i, seg := range segments {
		res, err := scanSegment(seg.path)
		if err != nil {
			return nil, nil, err
		}
		info.SegmentsScanned++
		for _, rec := range res.records {
			if rec.Seq <= info.SnapshotSeq {
				continue
			}
			if rec.Seq != info.LastSeq+1 {
				log.Printf("wal: %s: sequence gap (want %d, got %d); discarding from there",
					seg.path, info.LastSeq+1, rec.Seq)
				res.torn = true
				res.tornReason = "sequence gap"
				break
			}
			if err := applyToStore(store, rec); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
			info.RecordsReplayed++
			info.LastSeq = rec.Seq
		}
		if res.torn {
			st, err := os.Stat(seg.path)
			if err != nil {
				return nil, nil, err
			}
			info.DiscardedBytes = st.Size() - res.goodLen
			info.DiscardedPath = seg.path
			for _, later := range segments[i+1:] {
				st, err := os.Stat(later.path)
				if err == nil {
					info.DiscardedBytes += st.Size()
				}
				if err := os.Remove(later.path); err != nil {
					return nil, nil, fmt.Errorf("drop %s: %w", later.path, err)
				}
			}
			log.Printf("wal: %s: %s at offset %d; discarded %d byte(s) of torn tail",
				seg.path, res.tornReason, res.goodLen, info.DiscardedBytes)
			if res.goodLen <= int64(len(segMagic)) {
				if err := os.Remove(seg.path); err != nil {
					return nil, nil, fmt.Errorf("drop %s: %w", seg.path, err)
				}
			} else if err := os.Truncate(seg.path, res.goodLen); err != nil {
				return nil, nil, fmt.Errorf("truncate %s: %w", seg.path, err)
			}
			break
		}
	}
	return store, info, nil
}

func applyToStore(store *graph.Store, rec *Record) error {
	tx := store.Begin(graph.ReadWrite)
	if err := ApplyRecord(tx, rec); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// LastSeq returns the sequence number of the most recently appended (or
// recovered) record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// AppendAsync assigns the next sequence number to rec and writes it to the
// active segment WITHOUT forcing it to stable storage, whatever the fsync
// policy. The caller makes it durable later with WaitDurable(seq); keeping
// the two apart lets a committer publish its transaction and release the
// store's write lock before waiting on the disk, so concurrent committers
// share one batched fsync (group commit).
func (l *Log) AppendAsync(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.appendLocked(rec)
	if err != nil {
		return 0, err
	}
	if l.opts.Fsync == FsyncInterval {
		l.dirty = true
	}
	return seq, nil
}

func (l *Log) appendLocked(rec *Record) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	rec.Seq = l.lastSeq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		rec.Seq = 0
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	// Rotation is deferred while a group-commit fsync is in flight: closing
	// the file a leader is syncing would fail, and the few extra records go
	// to the oversized segment harmlessly.
	if l.f == nil || (l.size >= l.opts.SegmentSize && !l.syncing) {
		if err := l.openSegmentLocked(rec.Seq); err != nil {
			rec.Seq = 0
			return 0, err
		}
	}
	buf := frame(nil, payload)
	if _, err := l.w.Write(buf); err != nil {
		rec.Seq = 0
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	l.lastSeq = rec.Seq
	l.metrics.RecordsAppended.Inc()
	l.metrics.BytesAppended.Add(int64(len(buf)))
	return rec.Seq, nil
}

// WaitDurable blocks until the record with the given sequence number is on
// stable storage. Under FsyncInterval and FsyncNone it returns immediately
// (durability is the ticker's or the operating system's business). Under
// FsyncAlways it is the follower half of group commit: if an fsync is
// already in flight the caller waits for it; otherwise the caller becomes
// the leader, flushes everything appended so far and runs one fsync outside
// the log mutex — making every concurrent committer durable in a single
// disk operation while later appends keep landing in the buffer.
func (l *Log) WaitDurable(seq uint64) error {
	if l.opts.Fsync != FsyncAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics.GroupCommitTxs.Inc()
	for l.synced < seq {
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		if err := l.leaderSyncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// leaderSyncLocked makes everything appended so far durable with one fsync,
// run outside the mutex so followers can append the next batch meanwhile.
// Called with l.mu held and l.syncing false; returns with l.mu held.
func (l *Log) leaderSyncLocked() error {
	target := l.lastSeq
	prev := l.synced
	if l.f == nil {
		// Segment was cut; the close flushed and fsynced everything.
		l.synced = target
		l.syncCond.Broadcast()
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	f := l.f
	fsyncHist := l.metrics.FsyncSeconds
	l.syncing = true
	l.mu.Unlock()
	var t0 time.Time
	if fsyncHist != nil {
		t0 = time.Now()
	}
	err := f.Sync()
	if !t0.IsZero() {
		fsyncHist.ObserveSince(t0)
	}
	l.mu.Lock()
	l.syncing = false
	l.syncCond.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.synced = target
	if l.lastSeq == target {
		l.dirty = false
	}
	l.metrics.GroupCommitSyncs.Inc()
	l.metrics.GroupCommitBatchTxs.Observe(float64(target - prev))
	return nil
}

// Cut closes the active segment, so the next append starts a fresh one, and
// returns the last appended sequence number. Checkpointing calls it as the
// barrier of a graph.SnapshotView: with commits briefly quiesced, the
// returned sequence number is exactly the state the pinned snapshot holds.
// Cut waits out any group-commit fsync in flight.
func (l *Log) Cut() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	for l.syncing {
		l.syncCond.Wait()
	}
	if err := l.closeSegmentLocked(); err != nil {
		return 0, err
	}
	return l.lastSeq, nil
}

// Checkpoint durably installs snapshot (a graph.Export document covering
// all records up to and including seq) and compacts the log: the snapshot
// is written to a temporary file, fsynced, renamed into place, and only
// then are the segments and snapshots it supersedes deleted. A crash at any
// point leaves either the old snapshot with the full log, or the new
// snapshot with any not-yet-deleted (and then skipped) old segments — both
// recover to the same state.
func (l *Log) Checkpoint(seq uint64, snapshot []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	ckptHist := l.metrics.CheckpointSeconds
	l.mu.Unlock()
	if ckptHist != nil {
		defer ckptHist.ObserveSince(time.Now())
	}

	if err := writeSnapshotFile(l.dir, seq, snapshot); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}

	// The snapshot is durable; everything it covers can go. Segments whose
	// first record is newer than seq hold post-checkpoint commits and stay.
	segments, snapshots, err := scanDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	for _, seg := range segments {
		if seg.seq <= seq {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: checkpoint: %w", err)
			}
		}
	}
	for _, snap := range snapshots {
		if snap.seq < seq {
			if err := os.Remove(snap.path); err != nil {
				return fmt.Errorf("wal: checkpoint: %w", err)
			}
		}
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	return nil
}

// writeSnapshotFile durably installs a snapshot document covering records
// up to and including seq into dir: written to a temporary file, fsynced,
// renamed into place, directory synced.
func writeSnapshotFile(dir string, seq uint64, snapshot []byte) error {
	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(snapshot); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// Close flushes and fsyncs the active segment and stops the background
// fsync goroutine. The log cannot be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.syncCond.Wait()
	}
	l.closed = true
	err := l.closeSegmentLocked()
	l.syncCond.Broadcast()
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	return err
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return nil
	}
	return l.flushLocked(true)
}

func (l *Log) openSegmentLocked(firstSeq uint64) error {
	if err := l.closeSegmentLocked(); err != nil {
		return err
	}
	path := filepath.Join(l.dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 64<<10)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment: %w", err)
	}
	l.f, l.w, l.size = f, w, int64(len(segMagic))
	l.metrics.SegmentsOpened.Inc()
	return nil
}

func (l *Log) closeSegmentLocked() error {
	if l.f == nil {
		return nil
	}
	err := l.flushLocked(true)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w, l.size, l.dirty = nil, nil, 0, false
	return err
}

func (l *Log) flushLocked(sync bool) error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if sync {
		var t0 time.Time
		if l.metrics.FsyncSeconds != nil {
			t0 = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		if !t0.IsZero() {
			l.metrics.FsyncSeconds.ObserveSince(t0)
		}
		l.synced = l.lastSeq
	}
	l.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	ticker := time.NewTicker(l.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed && l.dirty && l.f != nil {
				if err := l.flushLocked(true); err != nil {
					log.Printf("wal: background fsync: %v", err)
				}
			}
			l.mu.Unlock()
		}
	}
}
