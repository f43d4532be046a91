package wal

import (
	"fmt"
	"io"
	"os"
)

// This file is the leader half of WAL-shipping replication: a replayable
// cursor that streams committed records to followers, plus the directory
// seeding primitives a follower uses to bootstrap its own log from a leader
// snapshot (see internal/replica).
//
// A Cursor reads the same segment files the appender writes, through its own
// read-only file handle, and never takes the log mutex while touching the
// disk — it only consults the mutex-guarded watermarks to decide how far it
// may read. Two invariants make that safe:
//
//   - Segment bytes are append-only while a segment is active and immutable
//     once it is cut; checkpointing only ever removes whole segment files.
//     A torn frame at the end of the active segment is an in-flight append
//     and is simply left for the next poll.
//   - A cursor serves only records at or below the log's durability
//     watermark (DurableSeq). A follower can therefore never hold a record
//     that a crashed-and-restarted leader has lost — the divergence that
//     would otherwise fork the replica permanently.

// TruncatedError reports that a cursor's position precedes the log's
// retained tail: a checkpoint has compacted the requested records into a
// snapshot. The reader must re-bootstrap from a snapshot covering TailStart
// and stream from there.
type TruncatedError struct {
	// Requested is the first sequence number the cursor needed.
	Requested uint64
	// TailStart is the earliest position a fresh cursor can stream from
	// (the argument to give Cursor after loading a covering snapshot).
	TailStart uint64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("wal: records before seq %d are compacted (tail starts after %d); re-bootstrap from a snapshot",
		e.Requested, e.TailStart)
}

// DurableSeq returns the highest sequence number a replication cursor may
// serve: the fsync watermark under FsyncAlways and FsyncInterval, or
// everything appended under FsyncNone (which promises no durability to
// begin with, so shipping the unsynced tail loses nothing that was ever
// guaranteed).
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Fsync == FsyncNone {
		return l.lastSeq
	}
	return l.synced
}

// replicationBound returns DurableSeq and, under FsyncNone, flushes the
// append buffer first so every servable record is actually on file. Under
// the other policies the watermark only advances after a flush+fsync, so
// synced records are on file by construction and the readers never touch
// the write path.
func (l *Log) replicationBound() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.opts.Fsync != FsyncNone {
		return l.synced, nil
	}
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			return 0, fmt.Errorf("wal: flush: %w", err)
		}
	}
	return l.lastSeq, nil
}

// TailStart returns the earliest position a Cursor can currently stream
// from: Cursor(TailStart()) replays every retained record. A follower whose
// apply cursor is older than TailStart must re-bootstrap from a snapshot.
func (l *Log) TailStart() (uint64, error) {
	l.mu.Lock()
	last := l.lastSeq
	l.mu.Unlock()
	segments, snapshots, err := scanDir(l.dir)
	if err != nil {
		return 0, err
	}
	if len(segments) > 0 {
		return segments[0].seq - 1, nil
	}
	if len(snapshots) > 0 {
		return snapshots[0].seq, nil
	}
	return last, nil
}

// Cursor is a replayable tail reader over the log: successive Next calls
// return the records after the cursor's position, in order, exactly once,
// surviving segment rotation (Cut) underneath it. A cursor is not safe for
// concurrent use by multiple goroutines, but any number of cursors may read
// while one appender writes.
type Cursor struct {
	l    *Log
	next uint64 // sequence number of the next record to deliver

	f    *os.File // open segment, nil between segments
	path string
	off  int64 // read offset past the last consumed frame
}

// Cursor returns a cursor positioned just past sequence number after
// (after=0 streams the whole retained log). The position may precede the
// retained tail; Next then reports a *TruncatedError.
func (l *Log) Cursor(after uint64) *Cursor {
	return &Cursor{l: l, next: after + 1}
}

// Pos returns the sequence number of the last record Next delivered (or the
// initial position).
func (c *Cursor) Pos() uint64 { return c.next - 1 }

// Close releases the cursor's file handle. The cursor remains usable; the
// next Next call reopens the segment it needs.
func (c *Cursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f, c.path, c.off = nil, "", 0
	}
}

// Next returns up to max records following the cursor's position (max <= 0
// means 256). An empty result means the cursor is caught up with the
// durable watermark — poll again later. Next returns a *TruncatedError when
// the position has been compacted away by a checkpoint.
func (c *Cursor) Next(max int) ([]*Record, error) {
	if max <= 0 {
		max = 256
	}
	bound, err := c.l.replicationBound()
	if err != nil {
		return nil, err
	}
	var out []*Record
	for len(out) < max && c.next <= bound {
		if c.f == nil {
			if _, err := c.seek(); err != nil {
				return out, err
			}
			if c.f == nil {
				return out, nil // no segment holds c.next yet
			}
		}
		got, err := c.readFrames(&out, bound, max)
		if err != nil {
			return out, err
		}
		if got == 0 {
			// The open segment is exhausted below the bound: either a
			// rotation moved the stream to a newer segment, or the appender
			// simply has not flushed more bytes here yet.
			moved, err := c.seek()
			if err != nil {
				return out, err
			}
			if !moved {
				return out, nil
			}
		}
	}
	return out, nil
}

// seek positions the cursor on the segment holding c.next, keeping the
// already-open file when it is still the right one. It returns whether the
// open file changed. A position older than every retained segment and
// snapshot yields a *TruncatedError.
func (c *Cursor) seek() (bool, error) {
	segments, snapshots, err := scanDir(c.l.dir)
	if err != nil {
		return false, err
	}
	var target fileRef
	found := false
	for _, seg := range segments {
		if seg.seq > c.next {
			break
		}
		target = seg
		found = true
	}
	if !found {
		if len(segments) > 0 {
			return false, &TruncatedError{Requested: c.next, TailStart: segments[0].seq - 1}
		}
		if len(snapshots) > 0 && snapshots[0].seq >= c.next {
			return false, &TruncatedError{Requested: c.next, TailStart: snapshots[0].seq}
		}
		c.Close()
		return false, nil
	}
	if c.f != nil && c.path == target.path {
		return false, nil
	}
	f, err := os.Open(target.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // a checkpoint raced the scan; the next poll re-resolves
		}
		return false, err
	}
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != segMagic {
		f.Close()
		if err != nil {
			return false, nil // header still being written; retry next poll
		}
		return false, fmt.Errorf("wal: cursor: %s: bad segment header", target.path)
	}
	c.Close()
	c.f, c.path, c.off = f, target.path, int64(len(segMagic))
	return true, nil
}

// readFrames parses intact frames from the current offset, appending
// records with sequence numbers in [c.next, bound] to out (up to max total)
// and skipping older ones. It returns how many records it consumed
// (delivered or skipped). The offset only advances past fully intact,
// consumed frames, so a torn in-flight append self-heals on the next call.
func (c *Cursor) readFrames(out *[]*Record, bound uint64, max int) (int, error) {
	st, err := c.f.Stat()
	if err != nil {
		return 0, err
	}
	avail := st.Size() - c.off
	if avail <= 0 {
		return 0, nil
	}
	data := make([]byte, avail)
	n, err := c.f.ReadAt(data, c.off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	data = data[:n]
	consumed := 0
	off := 0
	for len(*out) < max && off < len(data) {
		rec, size, torn := readFrame(data[off:])
		if torn != "" {
			break // an in-flight append; it lands by the next poll
		}
		if rec.Seq > bound {
			break // appended but not durable yet: not servable
		}
		if rec.Seq > c.next {
			return consumed, fmt.Errorf("wal: cursor: %s: sequence gap (want %d, got %d)",
				c.path, c.next, rec.Seq)
		}
		if rec.Seq == c.next { // older ones are skipped
			*out = append(*out, rec)
			c.next++
		}
		c.off += int64(size)
		off += size
		consumed++
	}
	return consumed, nil
}

// AppendReplicated appends a record shipped from a replication leader,
// preserving the leader-assigned sequence number, so a follower's log
// mirrors the leader's record stream exactly and the follower's LastSeq is
// its durable apply cursor. Records must arrive in order: rec.Seq must be
// exactly LastSeq()+1. Durability follows the log's fsync policy; batch
// callers append many records and then WaitDurable the last one, sharing
// one group-commit fsync.
func (l *Log) AppendReplicated(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if rec.Seq != l.lastSeq+1 {
		return fmt.Errorf("wal: replicated append out of order: got seq %d, want %d",
			rec.Seq, l.lastSeq+1)
	}
	want := rec.Seq
	if _, err := l.appendLocked(rec); err != nil {
		rec.Seq = want
		return err
	}
	if l.opts.Fsync == FsyncInterval {
		l.dirty = true
	}
	return nil
}

// HasState reports whether dir already holds log state (segments or
// snapshots). A missing directory counts as empty.
func HasState(dir string) (bool, error) {
	segments, snapshots, err := scanDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	return len(segments)+len(snapshots) > 0, nil
}

// SeedSnapshot installs a leader snapshot (a graph.Export document covering
// records up to and including seq) as the bootstrap image of a fresh
// replica directory: a subsequent Open recovers it and replicated appends
// continue at seq+1. It refuses a directory that already holds log state;
// seq 0 (an empty leader) seeds nothing.
func SeedSnapshot(dir string, seq uint64, snapshot []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: seed: %w", err)
	}
	has, err := HasState(dir)
	if err != nil {
		return fmt.Errorf("wal: seed: %w", err)
	}
	if has {
		return fmt.Errorf("wal: seed: %s already holds log state", dir)
	}
	if seq == 0 {
		return nil
	}
	if err := writeSnapshotFile(dir, seq, snapshot); err != nil {
		return fmt.Errorf("wal: seed: %w", err)
	}
	return nil
}

// RemoveState deletes every segment and snapshot in dir, so a replica whose
// cursor fell behind the leader's retained tail can re-bootstrap from a
// fresh snapshot. Any log over dir must be closed first.
func RemoveState(dir string) error {
	segments, snapshots, err := scanDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, f := range append(segments, snapshots...) {
		if err := os.Remove(f.path); err != nil {
			return err
		}
	}
	return syncDir(dir)
}
