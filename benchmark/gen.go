package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"wtftm/internal/wire"
)

// rng is splitmix64: tiny, seedable, and good enough that two streams
// derived from one seed do not correlate. The benchmark keeps its own
// generator rather than internal/workload's so that its inputs cannot change
// when the code under test does.
type rng struct{ x uint64 }

// newRNG derives an independent stream from (seed, stream).
func newRNG(seed, stream uint64) *rng {
	r := &rng{x: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(i) ∝ 1/(i+1)^theta from a precomputed
// CDF; a draw is one uniform and a binary search.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// An op is one generated request: the write flag in the top bit, below it
// three bits of rotation (multi-hot: which of the group's keys the batch
// starts with), and the key index (single-key workloads) or group index
// (multi-hot) in the rest.
type op uint32

const (
	opWrite    op = 1 << 31
	opRotShift    = 28
	opRotMax      = 8 // rotations that fit the three bits
)

func (o op) write() bool { return o&opWrite != 0 }
func (o op) rot() int    { return int(o>>opRotShift) & (opRotMax - 1) }
func (o op) index() int  { return int(o & (1<<opRotShift - 1)) }

// streamLen is the number of pre-generated ops (and inter-arrival gaps) per
// connection. Phases that need more wrap around; sequence numbers and
// tokens are assigned at send time, so a wrapped op is still a fresh write.
const streamLen = 1 << 20

// stream is one connection's pre-generated input: ops and, for the open
// loop, exponential inter-arrival gaps in nanoseconds at rate 1 — the
// sender scales them by the per-connection mean gap.
type stream struct {
	ops  []op
	gaps []float32
	pos  int
}

func (s *stream) nextOp() (op, float32) {
	i := s.pos & (len(s.ops) - 1)
	s.pos++
	return s.ops[i], s.gaps[i]
}

// genStream builds connection conn's stream for workload w from seed.
// Writes go only to keys the connection owns (index ≡ conn mod conns), so
// every key has a single writer and its sequence numbers are totally
// ordered — that is what makes the value oracles exact. Reads are uniform
// over all keys. multi-hot draws groups from a zipf instead and both
// connections may write any group (its oracle is token equality); each
// MULTI lists the group's keys from a random one onwards. wtfd hands a
// MULTI to the executor that owns its first key's shard, so without the
// rotation all traffic of a group would queue on one executor and two
// MULTIs over the same keys could never meet: the rotation is what lets
// concurrent transactions conflict on data they really share.
func genStream(w *workload, seed uint64, conn, conns, n int) *stream {
	r := newRNG(seed, uint64(conn))
	s := &stream{ops: make([]op, n), gaps: make([]float32, n)}
	var z *zipf
	if w.groups > 0 {
		z = newZipf(w.groups, w.zipfTheta)
	}
	for i := range s.ops {
		write := r.intn(100) >= w.readPct
		var idx int
		switch {
		case z != nil:
			idx = z.sample(r.float())
		case write:
			idx = r.intn(w.keys/conns)*conns + conn
		default:
			idx = r.intn(w.keys)
		}
		o := op(idx)
		if z != nil {
			o |= op(r.intn(w.groupKeys)) << opRotShift
		}
		if write {
			o |= opWrite
		}
		s.ops[i] = o
		s.gaps[i] = float32(-math.Log(1 - r.float()))
	}
	return s
}

// keyspace holds a workload's key strings and the filler its values are
// cut from.
type keyspace struct {
	keys   []string // single-key workloads: key i; multi-hot: group g's keys at g*groupKeys..
	valLen int
	filler []byte
}

const fillerLen = 4096

// valHeader is the part of a value the oracle decodes: key index and
// sequence number. The rest is a slice of the seeded filler chosen by both,
// so a value that mixes two writes cannot pass the comparison.
const valHeader = 8

func newKeyspace(w *workload, seed uint64) *keyspace {
	ks := &keyspace{valLen: w.valLen}
	r := newRNG(seed, 1<<32)
	ks.filler = make([]byte, fillerLen+w.valLen)
	for i := range ks.filler {
		ks.filler[i] = byte(r.next())
	}
	if w.groups > 0 {
		ks.keys = multiKeys(w.groups, w.groupKeys, w.shards)
		return ks
	}
	ks.keys = make([]string, w.keys)
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("k%015d", i)
	}
	return ks
}

// appendValue appends the value write number seq of key idx carries.
func (ks *keyspace) appendValue(dst []byte, idx int, seq uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(idx))
	dst = binary.BigEndian.AppendUint32(dst, seq)
	off := (uint32(idx)*31 + seq*17) % fillerLen
	return append(dst, ks.filler[off:off+uint32(ks.valLen-valHeader)]...)
}

// parseValue decodes a value read back for key idx and reports the
// sequence number it carries; ok is false when the value is not one some
// write of that key carried.
func (ks *keyspace) parseValue(val []byte, idx int) (seq uint32, ok bool) {
	if len(val) != ks.valLen || binary.BigEndian.Uint32(val) != uint32(idx) {
		return 0, false
	}
	seq = binary.BigEndian.Uint32(val[4:])
	off := (uint32(idx)*31 + seq*17) % fillerLen
	return seq, string(val[valHeader:]) == string(ks.filler[off:off+uint32(ks.valLen-valHeader)])
}

// shardOf is wtfd's key → shard map (FNV-1a mod shards). The benchmark
// needs it only to lay multi-hot's groups across shards; if the server's
// routing changes, server.future_fanouts in the report shows it.
func shardOf(key string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// multiKeys names groups×per keys such that the per keys of group g sit on
// per distinct shards (g, g+1, ... mod shards): a MULTI over one group then
// fans out as one future per key, which is the engine shape multi-hot is
// there to load.
func multiKeys(groups, per, shards int) []string {
	keys := make([]string, 0, groups*per)
	for g := 0; g < groups; g++ {
		for j := 0; j < per; j++ {
			want := (g + j) % shards
			for n := 0; ; n++ {
				k := fmt.Sprintf("g%03d/%d/%d", g, j, n)
				if shardOf(k, shards) == want {
					keys = append(keys, k)
					break
				}
			}
		}
	}
	return keys
}

// tokenLen is the size of a multi-hot value: group, writer connection and
// the writer's sequence number.
const tokenLen = 16

func appendToken(dst []byte, group, conn int, seq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(group))
	dst = binary.BigEndian.AppendUint32(dst, uint32(conn))
	return binary.BigEndian.AppendUint64(dst, seq)
}

func parseToken(val []byte) (group, conn int, seq uint64, ok bool) {
	if len(val) != tokenLen {
		return 0, 0, 0, false
	}
	return int(binary.BigEndian.Uint32(val)), int(binary.BigEndian.Uint32(val[4:])), binary.BigEndian.Uint64(val[8:]), true
}

// reqBuilder turns ops into wire requests, reusing its command and value
// storage; one per sender goroutine.
type reqBuilder struct {
	w    *workload
	ks   *keyspace
	conn int
	req  wire.Request
	vals []byte
}

func newReqBuilder(w *workload, ks *keyspace, conn int) *reqBuilder {
	b := &reqBuilder{w: w, ks: ks, conn: conn}
	if w.groups > 0 {
		b.req.Batch = make([]wire.Cmd, w.groupKeys)
	}
	return b
}

// build fills b.req for o. seq is the sequence number (single-key write) or
// token number (multi-hot write) this request carries; reads ignore it.
func (b *reqBuilder) build(id uint32, o op, seq uint64) *wire.Request {
	r := &b.req
	r.ID = id
	idx := o.index()
	if b.w.groups > 0 {
		r.Op = wire.OpMulti
		keys := b.ks.keys[idx*b.w.groupKeys : (idx+1)*b.w.groupKeys]
		if o.write() {
			b.vals = appendToken(b.vals[:0], idx, b.conn, seq)
		}
		for j := range keys {
			k := keys[(j+o.rot())%len(keys)]
			if o.write() {
				r.Batch[j] = wire.Put(k, b.vals)
			} else {
				r.Batch[j] = wire.Get(k)
			}
		}
		return r
	}
	if o.write() {
		b.vals = b.ks.appendValue(b.vals[:0], idx, uint32(seq))
		r.Op, r.Cmd = wire.OpPut, wire.Put(b.ks.keys[idx], b.vals)
	} else {
		r.Op, r.Cmd = wire.OpGet, wire.Get(b.ks.keys[idx])
	}
	return r
}

// appendFrame appends req as one length-prefixed frame.
func appendFrame(dst []byte, req *wire.Request) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := wire.AppendRequest(dst, req)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst, nil
}
