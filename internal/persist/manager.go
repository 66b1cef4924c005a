package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wtftm/internal/wal"
)

// Options configures Open.
type Options struct {
	// FS is the file layer; nil means the real file system.
	FS wal.FS
	// Dir is the data directory: the log lives in Dir/wal and each shard's
	// snapshots in Dir/shard-%03d.
	Dir string
	// Shards is the shard count; must match the server's.
	Shards int
	// Sync is the WAL fsync policy.
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL rotation threshold (0 = wal default).
	SegmentBytes int64
	// SnapshotEvery triggers an async checkpoint of a shard after this many
	// records carrying a part for it; 0 disables automatic checkpoints.
	SnapshotEvery int64

	// Source walks a shard's live entries (called with the shard's commit
	// lock held, so the walk is consistent with the log frontier).
	Source func(shard int, emit func(key string, val []byte) error) error
	// Restore installs one snapshot entry during recovery.
	Restore func(shard int, key string, val []byte) error
	// Apply replays one shard's committed batch during recovery; seq is the
	// log record that carried it.
	Apply func(shard int, seq uint64, payload []byte) error
}

// Stats is a point-in-time aggregate of the log and every shard's snapshots.
type Stats struct {
	wal.Stats
	// Snapshots counts snapshots written by this process.
	Snapshots int64
	// SnapshotErrors counts failed checkpoint attempts.
	SnapshotErrors int64
	// LastSnapshotSeq is the highest seq any durable snapshot covers.
	LastSnapshotSeq uint64
	// LastSnapshotUnixNano is the wall-clock completion time of the newest
	// checkpoint (0 if none this process); STATS reports its age.
	LastSnapshotUnixNano int64
	// RecoveredRecords counts WAL records replayed at Open.
	RecoveredRecords int64
}

// A record's payload is one commit unit: the per-shard batches it logged,
// as parts in ascending shard order, each
//
//	uvarint shard
//	uvarint len
//	len bytes   the shard's batch (wal.DecodeBatch)
//
// repeated to the end of the payload. Recovery hands each part to Apply.

// AppendPart appends shard's batch to a unit record being built for
// AppendUnit.
func AppendPart(dst []byte, shard int, batch []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(shard))
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	return append(dst, batch...)
}

// decodeParts streams a unit record's parts to fn in order. It rejects an
// empty record, a shard out of range and a length past the payload.
func decodeParts(payload []byte, shards int, fn func(shard int, batch []byte) error) error {
	if len(payload) == 0 {
		return errors.New("persist: empty unit record")
	}
	for b := payload; len(b) > 0; {
		sh, n := binary.Uvarint(b)
		if n <= 0 || sh >= uint64(shards) {
			return errors.New("persist: unit record: bad shard")
		}
		b = b[n:]
		size, n := binary.Uvarint(b)
		if n <= 0 || size > uint64(len(b)-n) {
			return errors.New("persist: unit record: bad part length")
		}
		b = b[n:]
		if err := fn(int(sh), b[:size]); err != nil {
			return err
		}
		b = b[size:]
	}
	return nil
}

// shardDur is one shard's durability state.
type shardDur struct {
	mu     sync.Mutex // commit-order lock: held across STM commit + log append
	ckptMu sync.Mutex // serializes whole checkpoints (async kick + sync calls)
	dir    string
	part   []byte // Append's one-part record scratch (under mu)

	snapSeq     atomic.Uint64 // newest durable snapshot's covered seq
	prevSnapSeq atomic.Uint64 // the retained older snapshot's seq

	sinceCkpt   atomic.Int64
	ckptRunning atomic.Bool
}

// Manager owns the store's one WAL and every shard's snapshots.
// Lock/AppendUnit/Sync form the commit path; checkpoints run
// asynchronously; Close drains and syncs everything.
//
// There is one log for all shards, so one fsync makes a whole commit
// cycle durable, and a unit that wrote several shards is one record: it
// survives a crash whole or not at all. Each shard still has its own commit
// lock, held across the STM commit and the append, so the log's record
// order, restricted to one shard, is that shard's commit order.
//
// A snapshot's seq is a log seq: the snapshot holds exactly the shard's
// parts in records up to it. The log keeps every record after the oldest
// retained snapshot of any shard (the compaction floor), so each shard can
// fall back to the older of its pair. A shard whose snapshots fall behind
// the others' holds the floor back, and is checkpointed for that reason.
type Manager struct {
	opts   Options
	fs     wal.FS
	log    *wal.Log
	shards []*shardDur
	wg     sync.WaitGroup

	snaps       atomic.Int64
	snapErrs    atomic.Int64
	lastSnapSeq atomic.Uint64
	lastSnapNs  atomic.Int64
	recovered   atomic.Int64
}

// Open opens the log, recovers every shard through the Restore and Apply
// callbacks (its latest valid snapshot, then its parts in the log past it),
// and returns a manager ready for the commit path.
func Open(opts Options) (*Manager, error) {
	if opts.Shards <= 0 {
		return nil, errors.New("persist: Shards must be positive")
	}
	if opts.Source == nil || opts.Restore == nil || opts.Apply == nil {
		return nil, errors.New("persist: Source, Restore and Apply are required")
	}
	m := &Manager{opts: opts, fs: opts.FS}
	if m.fs == nil {
		m.fs = wal.OSFS{}
	}
	walDir := path.Join(opts.Dir, "wal")
	m.shards = make([]*shardDur, opts.Shards)
	for i := range m.shards {
		s := &shardDur{dir: path.Join(opts.Dir, fmt.Sprintf("shard-%03d", i))}
		if err := m.fs.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("persist: mkdir %s: %w", s.dir, err)
		}
		if err := refuseShardLog(m.fs, s.dir, walDir); err != nil {
			return nil, err
		}
		m.shards[i] = s
	}
	log, err := wal.Open(wal.Options{
		FS:           m.fs,
		Dir:          walDir,
		SegmentBytes: opts.SegmentBytes,
		Sync:         opts.Sync,
	})
	if err != nil {
		return nil, err
	}
	m.log = log
	if err := m.recover(); err != nil {
		log.Close()
		return nil, err
	}
	return m, nil
}

// refuseShardLog fails on a shard directory that holds WAL segments: the
// layout with one log per shard. Its snapshots count that shard's own
// records, not seqs of the one log, so starting from them would be wrong.
func refuseShardLog(fsys wal.FS, dir, walDir string) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("persist: readdir %s: %w", dir, err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			return fmt.Errorf("persist: %s holds a per-shard write-ahead log (%s); this version keeps one log for all shards in %s and cannot read the per-shard layout", dir, name, walDir)
		}
	}
	return nil
}

// recover rebuilds every shard: its snapshot entries via Restore, then one
// pass over the log that applies each part past its shard's snapshot. The
// replayed records must continue the log from the oldest loaded snapshot
// without a gap — a gap means compaction outran every loadable snapshot of
// some shard (media damage), which is an error, not silence.
func (m *Manager) recover() error {
	from := uint64(math.MaxUint64)
	for i, s := range m.shards {
		snapSeq, ok, err := loadSnapshot(m.fs, s.dir, i, func(key string, val []byte) error {
			return m.opts.Restore(i, key, val)
		})
		if err != nil {
			return err
		}
		if ok {
			s.snapSeq.Store(snapSeq)
			s.prevSnapSeq.Store(snapSeq)
			m.lastSnapSeq.Store(max(m.lastSnapSeq.Load(), snapSeq))
		}
		from = min(from, snapSeq)
	}
	// A snapshot newer than the whole log would make future appends replay-
	// invisible; checkpoint syncs the log before publishing, so this is
	// damage, not a normal crash.
	last := m.log.LastSeq()
	for i, s := range m.shards {
		if seq := s.snapSeq.Load(); last < seq {
			return fmt.Errorf("persist: shard %d: snapshot covers seq %d but the log ends at %d", i, seq, last)
		}
	}
	expect := from + 1
	return m.log.Replay(from, func(seq uint64, payload []byte) error {
		if seq != expect {
			return fmt.Errorf("persist: log gap at seq %d (want %d): snapshot lost", seq, expect)
		}
		expect++
		applied := false
		err := decodeParts(payload, len(m.shards), func(shard int, batch []byte) error {
			if seq <= m.shards[shard].snapSeq.Load() {
				return nil // the shard's snapshot already holds it
			}
			applied = true
			return m.opts.Apply(shard, seq, batch)
		})
		if applied {
			m.recovered.Add(1)
		}
		if err != nil {
			return fmt.Errorf("persist: record %d: %w", seq, err)
		}
		return nil
	})
}

// Lock acquires shard's commit-order lock. The caller holds it across the
// STM commit and the matching append, so log order equals commit order.
func (m *Manager) Lock(shard int) { m.shards[shard].mu.Lock() }

// Unlock releases shard's commit-order lock.
func (m *Manager) Unlock(shard int) { m.shards[shard].mu.Unlock() }

// AppendUnit appends one commit unit's record, built with AppendPart, and
// returns its seq. The caller must hold Lock of every shard with a part in
// it. Durability on return follows the sync policy: under SyncAlways the
// record is durable; under SyncGroup call Sync before acknowledging.
func (m *Manager) AppendUnit(payload []byte) (uint64, error) {
	// A checkpoint kicked here waits for the shard's commit lock, which the
	// caller holds until after the append, so it covers this record.
	err := decodeParts(payload, len(m.shards), func(shard int, _ []byte) error {
		if n := m.shards[shard].sinceCkpt.Add(1); m.opts.SnapshotEvery > 0 && n >= m.opts.SnapshotEvery {
			m.kickCheckpoint(shard)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return m.log.Append(payload)
}

// Append appends a record with one part, shard's batch. Caller must hold
// Lock(shard).
func (m *Manager) Append(shard int, payload []byte) (uint64, error) {
	s := m.shards[shard]
	s.part = AppendPart(s.part[:0], shard, payload)
	return m.AppendUnit(s.part)
}

// Sync is the group-commit durability barrier (coalescing; see
// wal.Log.Sync). Every shard appends to the one log, so it makes every
// record appended before the call durable, whichever shard is named. Call
// without holding Lock.
func (m *Manager) Sync(shard int) error { return m.log.Sync() }

// kickCheckpoint starts an async checkpoint for shard unless one is already
// running. Failures are counted, not fatal: the log keeps the data.
func (m *Manager) kickCheckpoint(shard int) {
	s := m.shards[shard]
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	s.sinceCkpt.Store(0)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer s.ckptRunning.Store(false)
		if err := m.checkpointShard(shard); err != nil {
			m.snapErrs.Add(1)
		}
	}()
}

// Checkpoint synchronously snapshots one shard and compacts the log. Safe
// to call concurrently with the commit path.
func (m *Manager) Checkpoint(shard int) error { return m.checkpointShard(shard) }

func (m *Manager) checkpointShard(shard int) error {
	s := m.shards[shard]
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Capture under the commit lock: every part of this shard up to seq is
	// in the entry set, and every later one will get a higher seq.
	s.mu.Lock()
	seq := m.log.LastSeq()
	if seq == s.snapSeq.Load() {
		s.mu.Unlock()
		return nil
	}
	var enc snapEncoder
	err := m.opts.Source(shard, func(key string, val []byte) error {
		enc.add(key, val)
		return nil
	})
	s.mu.Unlock()
	if err != nil {
		return err
	}

	// The snapshot must never cover more than the durable log (recovery
	// replays from snapSeq and a shorter log would strand future appends
	// behind already-replayed seqs), so force the log through seq first.
	if err := m.log.Sync(); err != nil {
		return err
	}
	if err := writeSnapshot(m.fs, s.dir, shard, seq, &enc); err != nil {
		return err
	}

	prev := s.snapSeq.Load() // the snapshot that now becomes "previous"
	s.prevSnapSeq.Store(prev)
	s.snapSeq.Store(seq)
	m.snaps.Add(1)
	m.lastSnapSeq.Store(max(m.lastSnapSeq.Load(), seq))
	m.lastSnapNs.Store(time.Now().UnixNano())

	// Retain the {previous, new} snapshot pair.
	if err := pruneSnapshots(m.fs, s.dir, prev); err != nil {
		return err
	}
	return m.compact(prev)
}

// compact removes the log prefix no shard's retained snapshot pair needs:
// every record up to the oldest previous snapshot of any shard. A shard
// whose newest snapshot is older than prev, the previous snapshot of the
// shard just checkpointed, holds that floor behind where this shard alone
// would put it, so it is checkpointed too (when automatic checkpoints are
// on): a shard that stops receiving writes would otherwise pin the log.
func (m *Manager) compact(prev uint64) error {
	floor := prev
	for i, s := range m.shards {
		floor = min(floor, s.prevSnapSeq.Load())
		if m.opts.SnapshotEvery > 0 && s.snapSeq.Load() < prev {
			m.kickCheckpoint(i)
		}
	}
	return m.log.RemoveThrough(floor)
}

// Close waits for in-flight checkpoints and closes the log (which fsyncs
// its final segment under every policy — a graceful shutdown loses
// nothing).
func (m *Manager) Close() error {
	m.wg.Wait()
	return m.log.Close()
}

// Stats reports the log's counters and the snapshot counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Stats:                m.log.Stats(),
		Snapshots:            m.snaps.Load(),
		SnapshotErrors:       m.snapErrs.Load(),
		LastSnapshotSeq:      m.lastSnapSeq.Load(),
		LastSnapshotUnixNano: m.lastSnapNs.Load(),
		RecoveredRecords:     m.recovered.Load(),
	}
}
