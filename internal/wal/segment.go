package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout of a log directory:
//
//	wal-<firstSeq, 16 hex digits>.seg    log segments, first record's seq in the name
//	snapshot-<seq, 16 hex digits>.json   graph.Export documents covering records ≤ seq
//	*.tmp                                in-flight snapshot writes, discarded on open
//
// A segment starts with an 8-byte magic string, followed by framed records:
//
//	+----------------------+----------------------+------------------+
//	| length uint32 LE     | CRC32-C uint32 LE    | payload (JSON)   |
//	+----------------------+----------------------+------------------+
//
// The CRC covers the payload. A record whose frame extends past the end of
// the file, whose length is implausible, or whose CRC does not match marks
// the torn tail: everything from that point on is discarded at recovery.

const (
	segMagic      = "RKMWAL1\n"
	frameHdrSize  = 8
	maxRecordSize = 1 << 30

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snapshot-"
	snapSuffix = ".json"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexPart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexPart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// frame appends the length/CRC header and payload to buf.
func frame(buf, payload []byte) []byte {
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(buf, hdr[:]...), payload...)
}

// scanResult is the outcome of walking one segment file.
type scanResult struct {
	records []*Record
	// goodLen is the byte offset just past the last intact record; anything
	// beyond it is the torn tail.
	goodLen int64
	// torn reports whether the file ends in a corrupt or truncated record.
	torn bool
	// tornReason describes the first corruption encountered.
	tornReason string
}

// scanSegment decodes every intact record of a segment file, stopping at
// the first corrupt or truncated one.
func scanSegment(path string) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		res.torn = true
		res.tornReason = "bad segment header"
		return res, nil
	}
	res.goodLen = int64(len(segMagic))
	for res.goodLen < int64(len(data)) {
		rec, size, torn := readFrame(data[res.goodLen:])
		if torn != "" {
			res.torn, res.tornReason = true, torn
			return res, nil
		}
		res.goodLen += int64(size)
		res.records = append(res.records, rec)
	}
	return res, nil
}

// readFrame decodes the frame at the start of data, which must not be
// empty. It returns the record and the frame's size, or why the frame is
// torn: data ends inside it, its length is implausible, its CRC does not
// match or its payload does not decode.
func readFrame(data []byte) (rec *Record, size int, torn string) {
	if len(data) < frameHdrSize {
		return nil, 0, "truncated record header"
	}
	length := int64(binary.LittleEndian.Uint32(data[0:4]))
	sum := binary.LittleEndian.Uint32(data[4:8])
	if length > maxRecordSize || int64(len(data)-frameHdrSize) < length {
		return nil, 0, "truncated record payload"
	}
	payload := data[frameHdrSize : frameHdrSize+length]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, "checksum mismatch"
	}
	rec = new(Record)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, 0, "undecodable record payload"
	}
	return rec, frameHdrSize + int(length), ""
}

// fileRef is a directory entry carrying the sequence number encoded in its
// name.
type fileRef struct {
	path string
	seq  uint64
}

// scanDir lists the segments (ascending by first sequence) and snapshots
// (descending by covered sequence) of a log directory, removing stale
// temporary files left by an interrupted checkpoint.
func scanDir(dir string) (segments, snapshots []fileRef, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSeqName(name, segPrefix, segSuffix); ok {
			segments = append(segments, fileRef{filepath.Join(dir, name), seq})
		} else if seq, ok := parseSeqName(name, snapPrefix, snapSuffix); ok {
			snapshots = append(snapshots, fileRef{filepath.Join(dir, name), seq})
		}
	}
	sort.Slice(segments, func(i, j int) bool { return segments[i].seq < segments[j].seq })
	sort.Slice(snapshots, func(i, j int) bool { return snapshots[i].seq > snapshots[j].seq })
	return segments, snapshots, nil
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
