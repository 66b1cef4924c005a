// Package wal implements the segmented write-ahead log under wtfd's
// durability layer (DESIGN.md §11). A Log is an append-only sequence of
// CRC32C-framed records split across fixed-size segment files; every record
// carries a monotonically increasing sequence number, so replay order,
// torn-tail detection and compaction all fall out of one invariant: the live
// log is exactly the records seq 1..LastSeq, a contiguous CRC-valid prefix
// of everything ever appended.
//
// Record frame (integers big-endian):
//
//	uint32  payload length (≤ MaxRecord)
//	uint32  CRC32C over (seq ‖ payload)
//	uint64  seq
//	...     payload
//
// Segment files are named wal-%016d.seg after their first record's seq.
// On Open the segments are scanned in order: the first invalid frame (bad
// CRC, truncated header/payload, wrong seq) marks the torn tail — the
// segment is truncated back to the last valid frame and any later segments
// are discarded, so a crash mid-write (or mid-rotation) recovers to a clean
// prefix. Appends resume from there.
//
// Sync policies (SyncPolicy):
//
//	SyncGroup  — appends return without fsync; Sync() is the durability
//	             barrier callers invoke per commit group, and concurrent
//	             barriers coalesce (one fsync covers every append that
//	             completed before it).
//	SyncAlways — every Append fsyncs before returning.
//	SyncOff    — no fsync on the append path at all; only rotation and
//	             Close sync, so a process exit keeps the data but a power
//	             cut may lose the tail.
//
// Rotation always fsyncs the finished segment and the directory regardless
// of policy (one fsync per SegmentBytes is noise, and it keeps the
// synced-offset bookkeeping uniform: the unsynced suffix always lives in the
// current segment).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxRecord bounds one record's payload; the scanner rejects larger declared
// lengths before allocating (anti-OOM on a corrupt length field).
const MaxRecord = 1 << 26

// recordHeader is the fixed frame prefix: length, CRC, seq.
const recordHeader = 4 + 4 + 8

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when appends are fsynced. The zero value is SyncGroup.
type SyncPolicy int

const (
	// SyncGroup: Sync() is the explicit, coalescing durability barrier.
	SyncGroup SyncPolicy = iota
	// SyncAlways: every Append fsyncs before returning.
	SyncAlways
	// SyncOff: no fsync on the append path (rotation and Close still sync).
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses "always", "group" or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always|group|off)", s)
}

// Options configures Open.
type Options struct {
	// FS is the file layer; nil means OSFS.
	FS FS
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
}

// Stats is a point-in-time snapshot of a Log's counters.
type Stats struct {
	// AppendedRecords / AppendedBytes cover this process's appends only.
	AppendedRecords int64
	AppendedBytes   int64
	// Fsyncs counts file fsyncs issued by this Log.
	Fsyncs int64
	// Segments is the current live segment-file count.
	Segments int
	// RemovedSegments counts segments deleted by RemoveThrough (compaction).
	RemovedSegments int64
	// TruncatedBytes is the torn tail Open cut off (0 on a clean open).
	TruncatedBytes int64
}

// segment is one live segment file.
type segment struct {
	name     string // base name
	firstSeq uint64
}

// Log is a segmented append-only record log. Append and Sync are safe for
// concurrent use; Replay may run concurrently with appends (it sees some
// consistent prefix).
type Log struct {
	fs     FS
	dir    string
	segMax int64
	policy SyncPolicy
	crcBuf []byte // append scratch (header + payload staging), under mu

	mu      sync.Mutex // append/rotate critical section
	f       File       // current segment, opened O_APPEND
	size    int64      // current segment size
	segs    []segment  // all live segments, ascending firstSeq
	nextSeq uint64
	closed  bool
	sticky  error // first unrecoverable append or fsync error; all later ops fail

	syncMu sync.Mutex // serializes fsyncs (group coalescing point)

	appended atomic.Int64 // global byte offset of the append frontier
	synced   atomic.Int64 // global byte offset durably persisted

	records   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	removed   atomic.Int64
	truncated int64
}

// segName formats the segment file name for a first seq.
func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016d.seg", firstSeq) }

// parseSegName extracts the first seq from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (or creates) the log in opts.Dir, scanning existing segments,
// truncating a torn tail, and positioning the append frontier after the last
// valid record.
func Open(opts Options) (*Log, error) {
	l := &Log{
		fs:     opts.FS,
		dir:    opts.Dir,
		segMax: opts.SegmentBytes,
		policy: opts.Sync,
	}
	if l.fs == nil {
		l.fs = OSFS{}
	}
	if l.segMax <= 0 {
		l.segMax = DefaultSegmentBytes
	}
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", l.dir, err)
	}
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir %s: %w", l.dir, err)
	}
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			l.segs = append(l.segs, segment{name: name, firstSeq: first})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].firstSeq < l.segs[j].firstSeq })

	if len(l.segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		l.nextSeq = 1
		return l, nil
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	// Reopen the final segment for appending.
	last := l.segs[len(l.segs)-1]
	f, err := l.fs.OpenFile(path.Join(l.dir, last.name), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen %s: %w", last.name, err)
	}
	l.f = f
	return l, nil
}

// scan validates every segment in order, truncates the torn tail, discards
// unreachable later segments, and sets nextSeq/size. Called from Open only.
func (l *Log) scan() error {
	expect := l.segs[0].firstSeq
	for i := 0; i < len(l.segs); i++ {
		seg := l.segs[i]
		if seg.firstSeq != expect {
			// Gap between segments: everything from here on is unreachable
			// (records would be out of seq order). Keep the valid prefix.
			return l.discardFrom(i, 0)
		}
		tornAt, last, err := l.scanSegment(path.Join(l.dir, seg.name), expect)
		if err != nil {
			return err
		}
		if last != 0 {
			expect = last + 1
		}
		if tornAt >= 0 {
			// Torn frame inside this segment: truncate it here and discard
			// every later segment (they are past the lost tail).
			return l.discardFrom(i+1, tornAt)
		}
	}
	l.nextSeq = expect
	// size of the final segment = its scanned byte length.
	lastPath := path.Join(l.dir, l.segs[len(l.segs)-1].name)
	n, err := fileSize(l.fs, lastPath)
	if err != nil {
		return err
	}
	l.size = n
	return nil
}

// scanSegment walks one segment's frames, requiring the first record to
// carry seq expect and later ones to increment. It returns tornAt >= 0 (the
// byte offset of the first invalid frame; -1 if the whole file is valid) and
// the seq of the last valid record (0 if none).
func (l *Log) scanSegment(p string, expect uint64) (tornAt int64, lastSeq uint64, err error) {
	f, err := l.fs.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open %s: %w", p, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var hdr [recordHeader]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return -1, lastSeq, nil // clean end
			}
			return off, lastSeq, nil // truncated header = torn tail
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		seq := binary.BigEndian.Uint64(hdr[8:16])
		if n > MaxRecord {
			return off, lastSeq, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, lastSeq, nil // truncated payload = torn tail
		}
		if crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload) != crc {
			return off, lastSeq, nil
		}
		if seq != expect {
			return off, lastSeq, nil
		}
		expect++
		lastSeq = seq
		off += recordHeader + int64(n)
	}
}

// discardFrom truncates segment keepIdx-1 at tornAt (when keepIdx > 0) and
// removes segments keepIdx.. — the repair path for a torn tail. It then
// finishes Open's bookkeeping itself.
func (l *Log) discardFrom(keepIdx int, tornAt int64) error {
	if keepIdx == 0 {
		// Nothing valid at all: remove everything and start fresh at seq 1.
		for _, seg := range l.segs {
			if err := l.fs.Remove(path.Join(l.dir, seg.name)); err != nil {
				return err
			}
		}
		l.segs = nil
		if err := l.fs.SyncDir(l.dir); err != nil {
			return err
		}
		if err := l.createSegment(1); err != nil {
			return err
		}
		l.nextSeq = 1
		return nil
	}
	lastKept := l.segs[keepIdx-1]
	p := path.Join(l.dir, lastKept.name)
	pre, err := fileSize(l.fs, p)
	if err != nil {
		return err
	}
	if tornAt < pre {
		f, err := l.fs.OpenFile(p, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(tornAt); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		l.fsyncs.Add(1)
		f.Close()
		l.truncated += pre - tornAt
	}
	for _, seg := range l.segs[keepIdx:] {
		if err := l.fs.Remove(path.Join(l.dir, seg.name)); err != nil {
			return err
		}
		l.removed.Add(1)
	}
	l.segs = l.segs[:keepIdx]
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	// Re-derive lastSeq for the kept prefix by rescanning the kept tail
	// segment (cheap: one segment).
	_, lastSeq, err := l.scanSegment(p, lastKept.firstSeq)
	if err != nil {
		return err
	}
	if lastSeq == 0 {
		l.nextSeq = lastKept.firstSeq
	} else {
		l.nextSeq = lastSeq + 1
	}
	l.size = tornAt
	return nil
}

func fileSize(fsys FS, p string) (int64, error) {
	f, err := fsys.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Seek(0, io.SeekEnd)
}

// createSegment creates (and dirsyncs) a fresh segment whose first record
// will be firstSeq, making it the current append target.
func (l *Log) createSegment(firstSeq uint64) error {
	name := segName(firstSeq)
	f, err := l.fs.OpenFile(path.Join(l.dir, name), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	// The directory entry must be durable before any record in the file is
	// acknowledged; one dirsync at creation covers the segment's lifetime.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir %s: %w", l.dir, err)
	}
	l.f = f
	l.size = 0
	l.segs = append(l.segs, segment{name: name, firstSeq: firstSeq})
	return nil
}

// Append appends one record and returns its seq. Under SyncAlways the record
// is durable on return; under SyncGroup call Sync() before acknowledging;
// under SyncOff durability is best-effort. An append-path error is sticky:
// the log refuses further appends (the disk is not trustworthy anymore).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record %d bytes > MaxRecord", len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.sticky != nil {
		err := l.sticky
		l.mu.Unlock()
		return 0, err
	}
	frame := recordHeader + int64(len(payload))
	if l.size > 0 && l.size+frame > l.segMax {
		if err := l.rotateLocked(); err != nil {
			l.sticky = err
			l.mu.Unlock()
			return 0, err
		}
	}
	seq := l.nextSeq
	need := recordHeader + len(payload)
	if cap(l.crcBuf) < need {
		l.crcBuf = make([]byte, need)
	}
	buf := l.crcBuf[:need]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	copy(buf[recordHeader:], payload)
	crc := crc32.Update(crc32.Checksum(buf[8:16], crcTable), crcTable, payload)
	binary.BigEndian.PutUint32(buf[4:8], crc)
	if _, err := l.f.Write(buf); err != nil {
		// A short write leaves a torn frame; the CRC makes it harmless on
		// recovery, but this process must stop appending after it.
		l.sticky = fmt.Errorf("wal: append: %w", err)
		l.mu.Unlock()
		return 0, l.sticky
	}
	l.nextSeq++
	l.size += frame
	l.appended.Add(frame)
	l.records.Add(1)
	l.bytes.Add(frame)
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.sticky = fmt.Errorf("wal: fsync: %w", err)
			l.mu.Unlock()
			return 0, l.sticky
		}
		l.fsyncs.Add(1)
		l.synced.Store(l.appended.Load())
	}
	l.mu.Unlock()
	return seq, nil
}

// rotateLocked finishes the current segment (fsync + close) and starts the
// next. Called with l.mu held.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	l.fsyncs.Add(1)
	// Everything appended so far now lives in fully-synced segments.
	l.synced.Store(l.appended.Load())
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.createSegment(l.nextSeq)
}

// Sync is the group-commit durability barrier: on return, every record whose
// Append completed before the call is durable. Concurrent barriers coalesce:
// if another Sync already covered this caller's frontier, it returns without
// an fsync of its own. A failed fsync that no rotation covered is sticky, as
// in Append: every later Append and Sync returns it.
func (l *Log) Sync() error {
	target := l.appended.Load()
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil // coalesced into a concurrent barrier
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.sticky != nil {
		err := l.sticky
		l.mu.Unlock()
		return err
	}
	f := l.f
	cur := l.appended.Load()
	l.mu.Unlock()
	if err := f.Sync(); err != nil {
		// A rotation may have synced+closed this handle between the capture
		// and the fsync; if it covered us, the barrier held anyway.
		if l.synced.Load() >= target {
			return nil
		}
		// Otherwise the kernel may have dropped the pages the fsync failed
		// to write, and a later fsync that succeeds would not bring them
		// back: no barrier may claim them durable again.
		l.mu.Lock()
		if l.sticky == nil {
			l.sticky = fmt.Errorf("wal: fsync: %w", err)
		}
		err = l.sticky
		l.mu.Unlock()
		return err
	}
	l.fsyncs.Add(1)
	// cur was captured while f was current, so f's fsync covers cur. Lift
	// monotonically (a concurrent rotation may have advanced it further).
	for {
		old := l.synced.Load()
		if old >= cur || l.synced.CompareAndSwap(old, cur) {
			return nil
		}
	}
}

// LastSeq returns the seq of the last appended record (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Replay streams records with seq > after, in order, to fn. It re-reads the
// segment files, so it is typically called once at recovery before serving
// starts. fn's payload is only valid during the call.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	end := l.nextSeq
	l.mu.Unlock()
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].firstSeq <= after+1 {
			continue // entire segment ≤ after
		}
		err := l.replaySegment(path.Join(l.dir, seg.name), after, end, fn)
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(p string, after, end uint64, fn func(uint64, []byte) error) error {
	f, err := l.fs.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: replay open %s: %w", p, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [recordHeader]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil // clean or torn end — Open already validated the live prefix
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		seq := binary.BigEndian.Uint64(hdr[8:16])
		if n > MaxRecord {
			return nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil
		}
		if crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload) != crc {
			return nil
		}
		if seq >= end {
			return nil // appended after the replay snapshot; not ours
		}
		if seq > after {
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
	}
}

// RemoveThrough deletes every segment whose records are all ≤ seq (the
// current segment is never removed). Used by checkpoint compaction: after a
// snapshot covering seq is durable, the prefix is dead weight.
func (l *Log) RemoveThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	removedAny := false
	for i, seg := range l.segs {
		// A segment's records end where the next segment starts; the final
		// segment is always kept.
		if i+1 < len(l.segs) && l.segs[i+1].firstSeq-1 <= seq {
			if err := l.fs.Remove(path.Join(l.dir, seg.name)); err != nil {
				return err
			}
			l.removed.Add(1)
			removedAny = true
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = append(l.segs[:0], kept...)
	if removedAny {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// Close syncs the current segment (all policies: a graceful shutdown is
// always durable) and closes it. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if l.sticky == nil {
		if err = l.f.Sync(); err == nil {
			l.fsyncs.Add(1)
			l.synced.Store(l.appended.Load())
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := len(l.segs)
	trunc := l.truncated
	l.mu.Unlock()
	return Stats{
		AppendedRecords: l.records.Load(),
		AppendedBytes:   l.bytes.Load(),
		Fsyncs:          l.fsyncs.Load(),
		Segments:        segs,
		RemovedSegments: l.removed.Load(),
		TruncatedBytes:  trunc,
	}
}
