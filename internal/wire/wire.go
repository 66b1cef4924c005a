// Package wire defines the wtfd client/server protocol: compact
// length-prefixed binary frames carrying key-value operations. One frame is
// one request or one response; a connection carries any number of frames in
// each direction and requests are tagged with a caller-chosen ID so that
// responses can be matched out of order (request pipelining: a client may
// have many requests in flight on one connection, and the server answers
// each as soon as its transaction commits).
//
// Frame layout (all integers big-endian, lengths as uvarints):
//
//	uint32  payload length (≤ MaxFrame)
//	payload:
//	  uint32  request ID (echoed verbatim in the response)
//	  byte    opcode
//	  ...     op-specific body
//
// Request bodies:
//
//	GET, DEL    key
//	PUT         key value
//	CAS         key presentFlag [expect] value   (presentFlag 0 ⇒ expect-absent)
//	MULTI       uvarint n, then n sub-commands (opcode byte + body; GET/PUT/DEL/CAS only)
//	STATS, PING (empty)
//	DEDUP       uvarint clientID, uvarint seq, then one inner write request
//	            (opcode byte + body; PUT/DEL/CAS/MULTI only)
//
// DEDUP is the exactly-once resend envelope: a client that must resend a
// non-idempotent write after a transport failure (the ack may have been lost
// after the server applied the write) wraps it with its stable client ID and
// a per-client sequence number. The server remembers the outcome of each
// (clientID, seq) it executed and answers a resend from that memory instead
// of applying the write twice. Decoded requests carry the envelope as
// Dedup/ClientID/Seq with Op set to the inner opcode.
//
// Response bodies are a single result — byte status, byte hasVal,
// [value] — except MULTI, whose overall result is followed by uvarint n
// per-command results. A MULTI is all-or-nothing: if any CAS in the batch
// fails, no write of the batch is applied and the overall status is
// StatusCASMismatch (the per-command results still report which commands
// matched; reads report the consistent snapshot the batch executed against).
//
// The decoder is total: any byte string either decodes or returns an error.
// It never panics and never allocates more than the declared (and
// limit-checked) lengths, so it is safe to expose to untrusted peers; see
// FuzzDecodeFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Limits. Frames, keys and values above these sizes are protocol errors:
// the decoder rejects them before allocating.
const (
	// MaxFrame is the maximum payload length of one frame.
	MaxFrame = 1 << 20
	// MaxKeyLen is the maximum key length in bytes.
	MaxKeyLen = 1 << 10
	// MaxValLen is the maximum value length in bytes.
	MaxValLen = 1 << 16
	// MaxMultiOps is the maximum number of sub-commands in one MULTI.
	MaxMultiOps = 1 << 12
)

// Retention caps for reused buffers. A single oversized frame or value must
// not permanently pin its backing array in a pooled object, so the recycling
// helpers drop anything above these sizes and let steady-state traffic
// re-grow small buffers on demand.
const (
	// MaxRetainedFrame caps the frame buffer kept across ReadFrame calls.
	MaxRetainedFrame = 64 << 10
	// maxRetainedVal caps per-command value buffers kept in pooled requests.
	maxRetainedVal = 4 << 10
	// maxRetainedBatch caps the Batch capacity kept in pooled objects.
	maxRetainedBatch = 256
)

// Op is a request opcode.
type Op byte

// Opcodes. OpGet..OpCAS are also valid MULTI sub-commands.
const (
	OpGet Op = iota + 1
	OpPut
	OpDel
	OpCAS
	OpMulti
	OpStats
	OpPing
	// OpDedup is the exactly-once resend envelope; it never appears in a
	// decoded Request's Op field (the envelope unwraps to the inner opcode
	// plus the Dedup/ClientID/Seq fields).
	OpDedup
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpCAS:
		return "CAS"
	case OpMulti:
		return "MULTI"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpDedup:
		return "DEDUP"
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Status is a per-result status code.
type Status byte

const (
	// StatusOK: the operation applied (or the read succeeded).
	StatusOK Status = iota
	// StatusNotFound: GET/DEL of an absent key.
	StatusNotFound
	// StatusCASMismatch: the current value did not match the expectation;
	// for a CAS result the value carries the current value when present.
	StatusCASMismatch
	// StatusErr: server-side failure; the value carries a message.
	StatusErr
	// StatusUnavailable: the server is draining and refused the request.
	StatusUnavailable
	// StatusBusy: the server shed the request under overload (max in-flight
	// exceeded) without executing it; the client may retry after backing off.
	StatusBusy
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusCASMismatch:
		return "CAS_MISMATCH"
	case StatusErr:
		return "ERR"
	case StatusUnavailable:
		return "UNAVAILABLE"
	case StatusBusy:
		return "BUSY"
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Cmd is one key-value command: a whole single-op request, or one
// sub-command of a MULTI.
type Cmd struct {
	Op  Op
	Key string
	// Val is the new value (PUT, CAS).
	Val []byte
	// Expect is the expected current value for CAS; meaningful only when
	// ExpectPresent. ExpectPresent == false means "expect the key absent"
	// (create-if-missing CAS).
	Expect        []byte
	ExpectPresent bool
}

// Get, Put, Del and CAS build sub-commands.
func Get(key string) Cmd             { return Cmd{Op: OpGet, Key: key} }
func Put(key string, val []byte) Cmd { return Cmd{Op: OpPut, Key: key, Val: val} }
func Del(key string) Cmd             { return Cmd{Op: OpDel, Key: key} }

// CAS builds a compare-and-set sub-command; a nil expect means "expect the
// key absent".
func CAS(key string, expect, val []byte) Cmd {
	return Cmd{Op: OpCAS, Key: key, Val: val, Expect: expect, ExpectPresent: expect != nil}
}

// Request is one decoded request frame.
type Request struct {
	ID uint32
	Op Op
	// Cmd is the command of a single-op request (Op GET/PUT/DEL/CAS).
	Cmd Cmd
	// Batch holds the sub-commands of a MULTI.
	Batch []Cmd
	// Dedup marks a request wrapped in the exactly-once resend envelope;
	// ClientID and Seq identify the logical write so the server can answer a
	// resend without applying it twice. Op is the inner opcode (PUT/DEL/CAS/
	// MULTI only).
	Dedup    bool
	ClientID uint64
	Seq      uint64
}

// Result is the outcome of one command.
type Result struct {
	Status Status
	// Val is the result value (GET hit, CAS-mismatch current value, STATS
	// payload, ERR message). HasVal distinguishes "empty value" from "no
	// value".
	Val    []byte
	HasVal bool
}

// OKResult is a bare success result.
func OKResult() Result { return Result{Status: StatusOK} }

// ValResult is a success carrying a value.
func ValResult(val []byte) Result { return Result{Status: StatusOK, Val: val, HasVal: true} }

// ErrResult is a StatusErr carrying a message.
func ErrResult(msg string) Result {
	return Result{Status: StatusErr, Val: []byte(msg), HasVal: true}
}

// Response is one decoded response frame.
type Response struct {
	ID uint32
	Op Op // echo of the request opcode
	// Result is the overall outcome. For MULTI it summarizes the batch
	// (StatusOK: all applied; StatusCASMismatch: nothing applied).
	Result Result
	// Batch holds per-command results of a MULTI, aligned with the request.
	Batch []Result
	// valBuf is a private scratch buffer for Result.Val, populated only by
	// SetVal/DecodeResponseInto and recycled (size-capped) by
	// ReleaseResponse. It exists so pooled responses can carry values with
	// zero steady-state allocation WITHOUT ever reusing Result.Val itself:
	// Result.Val may alias memory the response does not own (the server's
	// dedup table aliases its immutable result copies straight into outgoing
	// responses), so appending into a recycled Result.Val would scribble on
	// foreign state. The scratch is only ever written through the setters,
	// which makes it provably this response's own.
	valBuf []byte
}

// SetVal points resp.Result at a copy of val (status st) held in resp's
// private scratch buffer. Use it on pooled responses for values that must
// survive until the response is encoded; ReleaseResponse then recycles the
// buffer. The copy semantics match ValResult — val itself is not retained.
func (resp *Response) SetVal(st Status, val []byte) {
	resp.valBuf = append(resp.valBuf[:0], val...)
	resp.Result = Result{Status: st, Val: resp.valBuf, HasVal: true}
}

// Err reports a decoded protocol violation.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrLimit         = errors.New("wire: length limit exceeded")
	ErrBadOp         = errors.New("wire: unknown opcode")
)

// --- framing ---------------------------------------------------------------

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	n := uint32(len(payload))
	if bw, ok := w.(*bufio.Writer); ok {
		// Buffered hot path (every server and client write loop): emit the
		// header byte-by-byte. Passing a stack [4]byte slice to the
		// io.Writer interface below makes it escape — one heap allocation
		// per frame, which the zero-alloc read path cannot afford. bufio
		// errors are sticky, so checking the payload write alone suffices.
		bw.WriteByte(byte(n >> 24))
		bw.WriteByte(byte(n >> 16))
		bw.WriteByte(byte(n >> 8))
		bw.WriteByte(byte(n))
		_, err := bw.Write(payload)
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameHeader reads and validates one frame's 4-byte length prefix off
// the concrete bufio.Reader via Peek/Discard: a stack [4]byte handed to
// io.ReadFull would escape through the interface — one heap allocation per
// frame — and byte-at-a-time reads cost four bounds-checked calls where Peek
// costs one. A clean EOF before any header byte is a peer closing between
// frames; EOF mid-header is a truncated frame.
func readFrameHeader(r *bufio.Reader) (uint32, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// ReadFrame reads one frame's payload, reusing buf when it is large enough.
// The length prefix is validated against MaxFrame before any allocation, so
// a hostile peer cannot make the reader over-allocate.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readFrameHeader(r)
	if err != nil {
		return nil, err
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// ReadFrameStalling is ReadFrame with a stall callback: onStall runs
// immediately before any read that would block on the underlying transport
// (the buffered bytes cannot complete the current header or payload). A read
// loop that defers response flushes to batch them uses this to flush exactly
// when it is about to park — never earlier (losing the batching) and never
// later (holding responses while both peers wait would deadlock). onStall may
// run more than once per frame (header stall, then payload stall) and must
// tolerate having nothing to do.
func ReadFrameStalling(r *bufio.Reader, buf []byte, onStall func()) ([]byte, error) {
	if r.Buffered() < 4 {
		onStall()
	}
	n, err := readFrameHeader(r)
	if err != nil {
		return nil, err
	}
	if r.Buffered() < int(n) {
		onStall()
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// PeekFrame returns the next frame's payload without consuming it, when —
// and only when — the frame is entirely buffered in r: no syscall, no copy.
// ok=false (not enough buffered, or an oversized length prefix) means the
// caller must fall back to ReadFrame/ReadFrameStalling, which report proper
// errors; PeekFrame never consumes input either way. The returned slice
// aliases r's internal buffer: it is invalidated by the r.Discard(4+len)
// that consumes the frame, so the caller must finish with the payload
// first.
func PeekFrame(r *bufio.Reader) (payload []byte, ok bool) {
	buffered := r.Buffered()
	if buffered < 4 {
		return nil, false
	}
	hdr, _ := r.Peek(4)
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame || buffered < 4+int(n) {
		return nil, false
	}
	whole, _ := r.Peek(4 + int(n))
	return whole[4:], true
}

// RecycleFrameBuf prepares a frame buffer for reuse by the next ReadFrame
// call. Buffers inflated past MaxRetainedFrame by one oversized frame are
// dropped rather than kept alive, so a read loop's steady-state footprint is
// bounded by its actual traffic, not by its largest-ever frame.
func RecycleFrameBuf(buf []byte) []byte {
	if cap(buf) > MaxRetainedFrame {
		return nil
	}
	return buf[:0]
}

// --- encoding --------------------------------------------------------------

func appendUvarint(dst []byte, n uint64) []byte {
	return binary.AppendUvarint(dst, n)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendCmdBody(dst []byte, c *Cmd) ([]byte, error) {
	if len(c.Key) > MaxKeyLen {
		return nil, fmt.Errorf("%w: key %d > %d", ErrLimit, len(c.Key), MaxKeyLen)
	}
	switch c.Op {
	case OpGet, OpDel:
		return appendString(dst, c.Key), nil
	case OpPut:
		if len(c.Val) > MaxValLen {
			return nil, fmt.Errorf("%w: value %d > %d", ErrLimit, len(c.Val), MaxValLen)
		}
		dst = appendString(dst, c.Key)
		return appendBytes(dst, c.Val), nil
	case OpCAS:
		if len(c.Val) > MaxValLen || len(c.Expect) > MaxValLen {
			return nil, fmt.Errorf("%w: value > %d", ErrLimit, MaxValLen)
		}
		dst = appendString(dst, c.Key)
		if c.ExpectPresent {
			dst = append(dst, 1)
			dst = appendBytes(dst, c.Expect)
		} else {
			dst = append(dst, 0)
		}
		return appendBytes(dst, c.Val), nil
	default:
		return nil, fmt.Errorf("%w: %v in command position", ErrBadOp, c.Op)
	}
}

// AppendRequest appends req's payload encoding to dst. When req.Dedup is
// set, the command is wrapped in the exactly-once resend envelope (req.Op
// must be a write opcode: PUT/DEL/CAS/MULTI).
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, req.ID)
	if req.Dedup {
		switch req.Op {
		case OpPut, OpDel, OpCAS, OpMulti:
		default:
			return nil, fmt.Errorf("%w: %v inside DEDUP", ErrBadOp, req.Op)
		}
		dst = append(dst, byte(OpDedup))
		dst = appendUvarint(dst, req.ClientID)
		dst = appendUvarint(dst, req.Seq)
	}
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpGet, OpPut, OpDel, OpCAS:
		return appendCmdBody(dst, &req.Cmd)
	case OpMulti:
		if len(req.Batch) > MaxMultiOps {
			return nil, fmt.Errorf("%w: %d sub-commands > %d", ErrLimit, len(req.Batch), MaxMultiOps)
		}
		dst = appendUvarint(dst, uint64(len(req.Batch)))
		for i := range req.Batch {
			c := &req.Batch[i]
			switch c.Op {
			case OpGet, OpPut, OpDel, OpCAS:
			default:
				return nil, fmt.Errorf("%w: %v inside MULTI", ErrBadOp, c.Op)
			}
			dst = append(dst, byte(c.Op))
			var err error
			if dst, err = appendCmdBody(dst, c); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case OpStats, OpPing:
		return dst, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrBadOp, req.Op)
	}
}

func appendResult(dst []byte, r *Result) []byte {
	dst = append(dst, byte(r.Status))
	if r.HasVal {
		dst = append(dst, 1)
		dst = appendBytes(dst, r.Val)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// AppendResponse appends resp's payload encoding to dst.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if resp.Result.HasVal && len(resp.Result.Val) > MaxValLen {
		return nil, fmt.Errorf("%w: value %d > %d", ErrLimit, len(resp.Result.Val), MaxValLen)
	}
	dst = binary.BigEndian.AppendUint32(dst, resp.ID)
	dst = append(dst, byte(resp.Op))
	dst = appendResult(dst, &resp.Result)
	if resp.Op == OpMulti {
		if len(resp.Batch) > MaxMultiOps {
			return nil, fmt.Errorf("%w: %d results > %d", ErrLimit, len(resp.Batch), MaxMultiOps)
		}
		dst = appendUvarint(dst, uint64(len(resp.Batch)))
		for i := range resp.Batch {
			if resp.Batch[i].HasVal && len(resp.Batch[i].Val) > MaxValLen {
				return nil, fmt.Errorf("%w: value %d > %d", ErrLimit, len(resp.Batch[i].Val), MaxValLen)
			}
			dst = appendResult(dst, &resp.Batch[i])
		}
	}
	return dst, nil
}

// DecodeGetKey decodes payload if and only if it is a well-formed plain GET
// request, returning its ID and a key slice aliasing payload — no copy, no
// pooled Request, no key string. ok is false for everything else (other
// opcodes, DEDUP envelopes, malformed frames); the caller routes those
// through the full decoder, which produces the proper protocol error. This
// is the read fast path's admission test: it must never misclassify, so it
// re-checks exact body consumption rather than trusting the opcode byte.
func DecodeGetKey(payload []byte) (id uint32, key []byte, ok bool) {
	if len(payload) < 5 || Op(payload[4]) != OpGet {
		return 0, nil, false
	}
	n, sz := binary.Uvarint(payload[5:])
	if sz <= 0 || n > MaxKeyLen {
		return 0, nil, false
	}
	body := payload[5+sz:]
	if uint64(len(body)) != n {
		return 0, nil, false
	}
	return binary.BigEndian.Uint32(payload), body, true
}

// AppendGetResult appends the payload of a single-key GET response — status
// OK with the value when found, StatusNotFound with no value otherwise — to
// dst, byte-identical to AppendResponse over the equivalent Response. It is
// the read fast path's allocation-free encoder: no Response object, one copy
// (store value into dst). The caller guarantees len(val) ≤ MaxValLen (store
// values were length-checked at PUT decode).
func AppendGetResult(dst []byte, id uint32, val string, found bool) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = append(dst, byte(OpGet))
	if found {
		dst = append(dst, byte(StatusOK), 1)
		return appendString(dst, val)
	}
	return append(dst, byte(StatusNotFound), 0)
}

// --- decoding --------------------------------------------------------------

// reader is a bounds-checked cursor over one payload.
type reader struct{ b []byte }

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if len(r.b) < 1 {
		return 0, ErrTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) uvarint(max uint64) (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	if v > max {
		return 0, fmt.Errorf("%w: %d > %d", ErrLimit, v, max)
	}
	return v, nil
}

// bytes reads a length-prefixed byte string. The length is checked against
// both the given limit and the remaining payload before slicing, so the
// declared length can never drive an allocation beyond the frame itself.
func (r *reader) bytes(max int) ([]byte, error) {
	n, err := r.uvarint(uint64(max))
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)) < n {
		return nil, ErrTruncated
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return nil
}

// cloneBytes copies a sub-slice of the frame buffer so decoded values stay
// valid after the buffer is reused for the next frame. nil stays nil (the
// CAS expect-absent marker); empty stays empty-but-present.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// DecodeRequest decodes one request payload (a frame body as returned by
// ReadFrame). It returns an error — never panics — on malformed input.
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	err := DecodeRequestInto(&req, payload)
	return req, err
}

// DecodeRequestInto decodes one request payload into req, reusing req's
// Batch storage and per-command value buffers where their capacity allows.
// It is the allocation-free steady-state decode path: with a pooled request
// (AcquireRequest) the only unavoidable allocations are the key strings.
// On error req is left partially filled; release it normally.
func DecodeRequestInto(req *Request, payload []byte) error {
	r := reader{b: payload}
	id, err := r.u32()
	if err != nil {
		return err
	}
	op, err := r.byte()
	if err != nil {
		return err
	}
	req.ID = id
	req.Op = Op(op)
	if req.Op == OpDedup {
		cid, err := r.uvarint(^uint64(0))
		if err != nil {
			return err
		}
		seq, err := r.uvarint(^uint64(0))
		if err != nil {
			return err
		}
		inner, err := r.byte()
		if err != nil {
			return err
		}
		switch Op(inner) {
		case OpPut, OpDel, OpCAS, OpMulti:
		default:
			// Reads gain nothing from the envelope and nesting is
			// meaningless; both are protocol errors.
			return fmt.Errorf("%w: %v inside DEDUP", ErrBadOp, Op(inner))
		}
		req.Dedup = true
		req.ClientID = cid
		req.Seq = seq
		req.Op = Op(inner)
	}
	switch req.Op {
	case OpGet, OpPut, OpDel, OpCAS:
		if err := decodeCmdBodyInto(&r, req.Op, &req.Cmd); err != nil {
			return err
		}
	case OpMulti:
		n, err := r.uvarint(MaxMultiOps)
		if err != nil {
			return err
		}
		// Grow req.Batch one command at a time, bounded by the remaining
		// bytes (every sub-command is ≥ 2 bytes): a tiny frame declaring
		// MaxMultiOps sub-commands must not allocate for all of them.
		req.Batch = req.Batch[:0]
		for i := uint64(0); i < n; i++ {
			sub, err := r.byte()
			if err != nil {
				return err
			}
			if int(i) < cap(req.Batch) {
				req.Batch = req.Batch[:i+1]
			} else {
				req.Batch = append(req.Batch, Cmd{})
			}
			if err := decodeCmdBodyInto(&r, Op(sub), &req.Batch[i]); err != nil {
				return err
			}
		}
	case OpStats, OpPing:
	default:
		return fmt.Errorf("%w: %d", ErrBadOp, op)
	}
	return r.done()
}

// decodeCmdBodyInto is decodeCmdBody writing into an existing command,
// reusing its Val/Expect backing arrays.
func decodeCmdBodyInto(r *reader, op Op, c *Cmd) error {
	c.Op = op
	c.ExpectPresent = false
	key, err := r.bytes(MaxKeyLen)
	if err != nil {
		return err
	}
	c.Key = string(key)
	switch op {
	case OpGet, OpDel:
	case OpPut:
		v, err := r.bytes(MaxValLen)
		if err != nil {
			return err
		}
		c.Val = append(c.Val[:0], v...)
	case OpCAS:
		flag, err := r.byte()
		if err != nil {
			return err
		}
		switch flag {
		case 0:
		case 1:
			e, err := r.bytes(MaxValLen)
			if err != nil {
				return err
			}
			c.Expect = append(c.Expect[:0], e...)
			c.ExpectPresent = true
		default:
			return fmt.Errorf("wire: bad CAS expect flag %d", flag)
		}
		v, err := r.bytes(MaxValLen)
		if err != nil {
			return err
		}
		c.Val = append(c.Val[:0], v...)
	default:
		return fmt.Errorf("%w: %v in command position", ErrBadOp, op)
	}
	return nil
}

func decodeResult(r *reader) (Result, error) {
	var res Result
	st, err := r.byte()
	if err != nil {
		return res, err
	}
	res.Status = Status(st)
	flag, err := r.byte()
	if err != nil {
		return res, err
	}
	switch flag {
	case 0:
	case 1:
		v, err := r.bytes(MaxValLen)
		if err != nil {
			return res, err
		}
		res.Val = cloneBytes(v)
		res.HasVal = true
	default:
		return res, fmt.Errorf("wire: bad result value flag %d", flag)
	}
	return res, nil
}

// DecodeResponse decodes one response payload. It returns an error — never
// panics — on malformed input.
func DecodeResponse(payload []byte) (Response, error) {
	var resp Response
	err := DecodeResponseInto(&resp, payload)
	return resp, err
}

// DecodeResponseInto decodes one response payload into resp, copying the
// top-level result value into resp's private scratch buffer and reusing
// resp.Batch storage where capacity allows. With a pooled response
// (AcquireResponse) a non-MULTI response decodes with zero steady-state
// allocations; MULTI batch values are still cloned individually because the
// Batch slice is routinely handed to callers outliving the response. On
// error resp is left partially filled; release it normally.
func DecodeResponseInto(resp *Response, payload []byte) error {
	r := reader{b: payload}
	id, err := r.u32()
	if err != nil {
		return err
	}
	op, err := r.byte()
	if err != nil {
		return err
	}
	resp.ID = id
	resp.Op = Op(op)
	st, err := r.byte()
	if err != nil {
		return err
	}
	flag, err := r.byte()
	if err != nil {
		return err
	}
	switch flag {
	case 0:
		resp.Result = Result{Status: Status(st)}
	case 1:
		v, err := r.bytes(MaxValLen)
		if err != nil {
			return err
		}
		resp.SetVal(Status(st), v)
	default:
		return fmt.Errorf("wire: bad result value flag %d", flag)
	}
	if resp.Op == OpMulti {
		n, err := r.uvarint(MaxMultiOps)
		if err != nil {
			return err
		}
		resp.Batch = resp.Batch[:0]
		// Grow one result at a time, bounded by the remaining bytes (every
		// result is ≥ 2 bytes): a tiny frame declaring MaxMultiOps results
		// must not allocate for all of them.
		for i := uint64(0); i < n; i++ {
			res, err := decodeResult(&r)
			if err != nil {
				return err
			}
			resp.Batch = append(resp.Batch, res)
		}
	}
	return r.done()
}

// --- object pools ----------------------------------------------------------
//
// The request lifecycle of a busy server decodes, executes and encodes
// thousands of frames per second; allocating a fresh Request and Response
// per frame makes the allocator the hot path. These pools recycle both,
// with retention caps so one giant MULTI or value does not pin its backing
// arrays forever.

var requestPool = sync.Pool{New: func() any { return new(Request) }}
var responsePool = sync.Pool{New: func() any { return new(Response) }}

// AcquireRequest returns an empty pooled Request. Pair with ReleaseRequest.
func AcquireRequest() *Request { return requestPool.Get().(*Request) }

// ReleaseRequest resets req (keeping size-capped backing arrays for reuse)
// and returns it to the pool. The caller must not retain req, its commands,
// or their value slices afterwards.
func ReleaseRequest(req *Request) {
	req.ID = 0
	req.Op = 0
	req.Dedup = false
	req.ClientID = 0
	req.Seq = 0
	resetCmd(&req.Cmd)
	if cap(req.Batch) > maxRetainedBatch {
		req.Batch = nil
	} else {
		for i := range req.Batch {
			resetCmd(&req.Batch[i])
		}
		req.Batch = req.Batch[:0]
	}
	requestPool.Put(req)
}

// resetCmd clears one command, dropping oversized value buffers and the key
// string (so pooled requests never pin request data).
func resetCmd(c *Cmd) {
	c.Op = 0
	c.Key = ""
	c.ExpectPresent = false
	if cap(c.Val) > maxRetainedVal {
		c.Val = nil
	} else {
		c.Val = c.Val[:0]
	}
	if cap(c.Expect) > maxRetainedVal {
		c.Expect = nil
	} else {
		c.Expect = c.Expect[:0]
	}
}

// AcquireResponse returns an empty pooled Response. Pair with
// ReleaseResponse (typically after the response frame has been encoded).
func AcquireResponse() *Response { return responsePool.Get().(*Response) }

// ReleaseResponse resets resp (keeping a size-capped Batch and value
// scratch for reuse) and returns it to the pool. Result is always fully
// cleared — it may alias memory the response does not own (see
// Response.valBuf) — while the private scratch buffer is retained.
func ReleaseResponse(resp *Response) {
	resp.ID = 0
	resp.Op = 0
	resp.Result = Result{}
	if cap(resp.valBuf) > maxRetainedVal {
		resp.valBuf = nil
	} else {
		resp.valBuf = resp.valBuf[:0]
	}
	if cap(resp.Batch) > maxRetainedBatch {
		resp.Batch = nil
	} else {
		for i := range resp.Batch {
			resp.Batch[i] = Result{} // drop value references
		}
		resp.Batch = resp.Batch[:0]
	}
	responsePool.Put(resp)
}

// --- stats payload ---------------------------------------------------------

// StatsReply is the JSON document carried by a STATS response: the server's
// own counters plus the engine and MV-STM substrate snapshots (the latter
// exported through the wtftm facade — HelpedCommits and CommitQueueHWM are
// the commit-pipeline counters of DESIGN.md §6).
type StatsReply struct {
	Server ServerStats `json:"server"`
	Engine EngineStats `json:"engine"`
	STM    STMStats    `json:"stm"`
	// WAL is the durability section; nil on a memory-only server.
	WAL *WALStats `json:"wal,omitempty"`
	// Latency carries per-stage latency histogram summaries (and the
	// group-commit size distribution); empty on servers predating the
	// observability layer.
	Latency []LatencyStats `json:"latency,omitempty"`
	// Aborts is the abort-attribution section; nil when unavailable.
	Aborts *AbortStats `json:"aborts,omitempty"`
}

// LatencyStats is one histogram summary in a STATS reply. Quantiles are
// upper bounds from a log-linear histogram with <= 6.25% relative bucket
// error (see internal/obs). Durations are microseconds; the batch-size
// histogram reports raw op counts in the same fields.
type LatencyStats struct {
	// Stage names the measured segment: "decode", "queue", "exec",
	// "sync", "flush", "fastread", "fsync" or "batch_ops".
	Stage string `json:"stage"`
	// Op is the request class ("get", "put", "del", "cas", "multi",
	// "group", "other"); empty for stages not split by op.
	Op    string  `json:"op,omitempty"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	// Hist is the compact binary bucket encoding (internal/obs
	// AppendHist/DecodeHist), base64 in JSON, for consumers that want to
	// merge or re-quantize rather than trust the summary.
	Hist []byte `json:"hist,omitempty"`
}

// AbortStats attributes transaction aborts per validation direction, keyed
// by the server's ordering/atomicity mode — the WO/SO x LAC/GAC cost
// question from the paper as a stats section.
type AbortStats struct {
	// Mode is "<ordering>/<atomicity>", e.g. "WO/LAC".
	Mode string `json:"mode"`
	// Backward counts MV-STM read-set validation failures at top-level
	// commit (a concurrent first committer won); BackwardByShard splits
	// them by the store shard owning the stale box (the last entry
	// aggregates boxes outside the keyspace).
	Backward        int64   `json:"backward"`
	BackwardByShard []int64 `json:"backward_by_shard,omitempty"`
	// SOContinuation counts continuations killed by forward validation
	// under strong ordering (futures won the prefix race).
	SOContinuation int64 `json:"so_continuation"`
	// FutureReexecs counts futures re-executed because their snapshot went
	// stale before merge; EscapeReexecs the same for escaped futures under
	// GAC.
	FutureReexecs int64 `json:"future_reexecs"`
	EscapeReexecs int64 `json:"escape_reexecs"`
}

// ServerStats are wtfd's own counters and configuration echo.
type ServerStats struct {
	Ordering  string `json:"ordering"`
	Atomicity string `json:"atomicity"`
	Shards    int    `json:"shards"`
	// Executors is the shard-affine executor goroutine count; single-key
	// requests for one shard always run on the same executor.
	Executors int `json:"executors"`
	// WriterQueueHWM is the deepest any connection's response queue has been.
	WriterQueueHWM int64 `json:"writer_queue_hwm"`
	// ExecQueueHWM is the deepest any executor's run queue has been.
	ExecQueueHWM int64 `json:"exec_queue_hwm"`
	// GroupCommits counts coalesced transactions (≥ 2 single-key ops each);
	// GroupedOps counts the ops they carried.
	GroupCommits  int64 `json:"group_commits"`
	GroupedOps    int64 `json:"grouped_ops"`
	ConnsOpened   int64 `json:"conns_opened"`
	ConnsActive   int64 `json:"conns_active"`
	Requests      int64 `json:"requests"`
	KeysServed    int64 `json:"keys_served"`
	MultiBatches  int64 `json:"multi_batches"`
	FutureFanouts int64 `json:"future_fanouts"`
	BadFrames     int64 `json:"bad_frames"`
	// MaxInFlight echoes the overload-shedding admission bound (0 =
	// unlimited); InFlight is the current admitted-but-unanswered request
	// count and Shed counts requests refused with StatusBusy.
	MaxInFlight int   `json:"max_in_flight"`
	InFlight    int64 `json:"in_flight"`
	Shed        int64 `json:"shed"`
	// FastReadsEnabled reports whether the lock-free GET fast path is on.
	// FastReads counts GETs served directly in the connection read loop
	// (no executor hop, no transaction); FastReadRetries the clock-reload
	// retries those reads needed against concurrent version trims;
	// FastReadFallbacks the eligible GETs routed to an executor after all —
	// retry budget exhausted or a pending write on the same session.
	FastReadsEnabled  bool  `json:"fast_reads_enabled"`
	FastReads         int64 `json:"fast_reads"`
	FastReadRetries   int64 `json:"fast_read_retries"`
	FastReadFallbacks int64 `json:"fast_read_fallbacks"`
	// DedupHits counts retried writes answered from the exactly-once table
	// instead of being re-applied.
	DedupHits int64 `json:"dedup_hits"`
	// IdleReaped counts connections closed by the idle read deadline.
	IdleReaped int64 `json:"idle_reaped"`
	Draining   bool  `json:"draining"`
}

// WALStats is the durability section of STATS, present when the server runs
// with a data directory: WAL append/fsync counters, checkpoint state and the
// recovery tally from the last boot.
type WALStats struct {
	// Fsync echoes the configured sync policy ("always", "group" or "off").
	Fsync string `json:"fsync"`
	// DataDir echoes the configured data directory.
	DataDir string `json:"data_dir"`
	// AppendedRecords / AppendedBytes count WAL appends by this process.
	AppendedRecords int64 `json:"appended_records"`
	AppendedBytes   int64 `json:"appended_bytes"`
	// Fsyncs counts file fsyncs across all shard logs.
	Fsyncs int64 `json:"fsyncs"`
	// Segments is the live segment-file count; RemovedSegments counts
	// segments deleted by checkpoint compaction.
	Segments        int   `json:"segments"`
	RemovedSegments int64 `json:"removed_segments"`
	// TruncatedBytes is the torn tail recovery cut off at the last boot.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// BatchOpsHWM is the largest op count any single WAL batch carried.
	BatchOpsHWM int64 `json:"batch_ops_hwm"`
	// AppendFailures counts writes refused an ack because the WAL append or
	// sync failed (the client saw an error; the disk is suspect).
	AppendFailures int64 `json:"append_failures"`
	// Snapshots / SnapshotErrors count checkpoint attempts this process.
	Snapshots      int64 `json:"snapshots"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	// LastSnapshotSeq is the newest durable snapshot's covered seq;
	// LastSnapshotAgeMS its age (-1 if no checkpoint ran this process).
	LastSnapshotSeq   uint64 `json:"last_snapshot_seq"`
	LastSnapshotAgeMS int64  `json:"last_snapshot_age_ms"`
	// RecoveredRecords counts WAL records replayed at boot.
	RecoveredRecords int64 `json:"recovered_records"`
}

// EngineStats mirrors wtftm.StatsSnapshot field-for-field (kept as a plain
// wire struct so the protocol package has no dependency on the engine).
type EngineStats struct {
	TopCommits          int64 `json:"top_commits"`
	TopConflict         int64 `json:"top_conflict"`
	TopInternal         int64 `json:"top_internal"`
	FuturesSubmitted    int64 `json:"futures_submitted"`
	MergedAtSubmission  int64 `json:"merged_at_submission"`
	MergedAtEvaluation  int64 `json:"merged_at_evaluation"`
	FutureReexecutions  int64 `json:"future_reexecutions"`
	ImplicitEvaluations int64 `json:"implicit_evaluations"`
	EscapedFutures      int64 `json:"escaped_futures"`
	EscapeReexecs       int64 `json:"escape_reexecs"`
	SegmentRollbacks    int64 `json:"segment_rollbacks"`
}

// STMStats mirrors wtftm.STMStatsSnapshot (the MV-STM substrate counters).
type STMStats struct {
	Commits         int64 `json:"commits"`
	ReadOnlyCommits int64 `json:"readonly_commits"`
	Conflicts       int64 `json:"conflicts"`
	Begins          int64 `json:"begins"`
	HelpedCommits   int64 `json:"helped_commits"`
	CommitQueueHWM  int64 `json:"commit_queue_hwm"`
}
