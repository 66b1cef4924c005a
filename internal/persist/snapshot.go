// Package persist is wtfd's durability manager: one wal.Log for the whole
// store, a rolling pair of CRC-validated snapshots per shard, and the
// recovery procedure that rebuilds every shard as (its latest valid
// snapshot) + (its parts in the log past that snapshot). A log record is one
// commit unit — the per-shard batches one top-level transaction wrote — so a
// cross-shard unit is durable whole or not at all, and one fsync covers a
// commit cycle whichever shards it touched. The server talks to the manager
// through three callbacks — Source walks a shard's live entries for
// checkpointing, Restore installs a snapshot entry, Apply replays one shard's
// committed batch — so persist depends only on the wal file layer, never on
// the store or the STM.
//
// Directory layout under Options.Dir:
//
//	wal/wal-%016d.seg           the log's segments (internal/wal)
//	shard-%03d/snap-%016d.snap  each shard's snapshots, named by log seq
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path"
	"strconv"
	"strings"

	"wtftm/internal/wal"
)

// Snapshot file layout (integers big-endian, lengths uvarint):
//
//	8 bytes  magic "WTFSNAP1"
//	uint32   shard
//	uint64   seq     last log record the snapshot covers (a seq of the one log)
//	uint64   count   entry count
//	count ×  entry:  uvarint klen, key, uvarint vlen, val
//	uint32   CRC32C  over every preceding byte
//
// Files are named snap-%016d.snap after their seq, written to a temp name,
// fsynced, renamed into place and dirsynced — a crash mid-write leaves the
// previous snapshot untouched.

const snapMagic = "WTFSNAP1"

// snapHeader is the fixed prefix: magic, shard, seq, count.
const snapHeader = 8 + 4 + 8 + 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadSnapshot reports a snapshot file that failed validation.
var ErrBadSnapshot = errors.New("persist: invalid snapshot")

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[5:len(name)-5], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// snapEncoder accumulates the entry section of a snapshot while the shard
// lock is held; the file I/O happens later, outside the lock.
type snapEncoder struct {
	buf   []byte
	count uint64
}

func (e *snapEncoder) add(key string, val []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(key)))
	e.buf = append(e.buf, key...)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(val)))
	e.buf = append(e.buf, val...)
	e.count++
}

// writeSnapshot atomically installs a snapshot covering seq in dir.
func writeSnapshot(fsys wal.FS, dir string, shard int, seq uint64, enc *snapEncoder) error {
	hdr := make([]byte, 0, snapHeader+len(enc.buf)+4)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(shard))
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	hdr = binary.BigEndian.AppendUint64(hdr, enc.count)
	body := append(hdr, enc.buf...)
	crc := crc32.Checksum(body, crcTable)
	body = binary.BigEndian.AppendUint32(body, crc)

	tmp := path.Join(dir, snapName(seq)+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create %s: %w", tmp, err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return fmt.Errorf("persist: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", tmp, err)
	}
	final := path.Join(dir, snapName(seq))
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("persist: rename %s: %w", final, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	return nil
}

// loadSnapshot finds the newest snapshot in dir that validates (magic, shard,
// CRC) and streams its entries to emit. Invalid newer snapshots are skipped
// in favour of older ones — the fallback the rolling pair exists for. Returns
// the covered seq and whether any snapshot was loaded.
func loadSnapshot(fsys wal.FS, dir string, shard int, emit func(key string, val []byte) error) (uint64, bool, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, false, fmt.Errorf("persist: readdir %s: %w", dir, err)
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	for i := len(seqs) - 1; i >= 0; i-- { // ReadDir is sorted; walk newest-first
		seq := seqs[i]
		err := readSnapshot(fsys, path.Join(dir, snapName(seq)), shard, seq, emit)
		if err == nil {
			return seq, true, nil
		}
		if !errors.Is(err, ErrBadSnapshot) {
			return 0, false, err
		}
	}
	return 0, false, nil
}

// readSnapshot validates one snapshot file end-to-end (the CRC check streams
// the whole file before any entry is emitted) and then emits its entries.
func readSnapshot(fsys wal.FS, p string, shard int, seq uint64, emit func(key string, val []byte) error) error {
	f, err := fsys.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("%w: open: %v", ErrBadSnapshot, err)
	}
	defer f.Close()
	data, err := io.ReadAll(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrBadSnapshot, err)
	}
	if len(data) < snapHeader+4 {
		return fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(tail) {
		return fmt.Errorf("%w: CRC mismatch", ErrBadSnapshot)
	}
	if string(body[:8]) != snapMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if got := binary.BigEndian.Uint32(body[8:12]); got != uint32(shard) {
		return fmt.Errorf("%w: shard %d in shard-%d file", ErrBadSnapshot, got, shard)
	}
	if got := binary.BigEndian.Uint64(body[12:20]); got != seq {
		return fmt.Errorf("%w: seq %d in %s", ErrBadSnapshot, got, path.Base(p))
	}
	count := binary.BigEndian.Uint64(body[20:28])
	b := body[28:]
	for i := uint64(0); i < count; i++ {
		key, rest, err := snapBytes(b, wal.MaxBatchKeyLen)
		if err != nil {
			return fmt.Errorf("%w: entry %d key: %v", ErrBadSnapshot, i, err)
		}
		val, rest, err := snapBytes(rest, wal.MaxBatchValLen)
		if err != nil {
			return fmt.Errorf("%w: entry %d val: %v", ErrBadSnapshot, i, err)
		}
		b = rest
		if err := emit(string(key), val); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(b))
	}
	return nil
}

func snapBytes(b []byte, max uint64) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, errors.New("bad length")
	}
	if n > max {
		return nil, nil, fmt.Errorf("length %d > %d", n, max)
	}
	b = b[sz:]
	if uint64(len(b)) < n {
		return nil, nil, errors.New("truncated")
	}
	return b[:n], b[n:], nil
}

// pruneSnapshots removes snapshot files older than keepFrom (exclusive of
// the pair the manager retains).
func pruneSnapshots(fsys wal.FS, dir string, keepFrom uint64) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if seq, ok := parseSnapName(name); ok && seq < keepFrom {
			if err := fsys.Remove(path.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
		// Stray temp files from a crashed checkpoint are dead weight too.
		if strings.HasSuffix(name, ".tmp") {
			if err := fsys.Remove(path.Join(dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fsys.SyncDir(dir)
	}
	return nil
}
