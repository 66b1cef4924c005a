// Package history records totally ordered logs of transactional events
// emitted by the WTF-TM engine. A recorded history can be converted into
// the paper's Future Serialization Graph (internal/fsg) to verify, after
// the fact, that the engine only produced serializable executions.
package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind enumerates event types. The names follow Section 3 of the paper.
type Kind int

const (
	// TopBegin marks the start of a top-level transaction attempt.
	TopBegin Kind = iota
	// TopCommit marks a successful top-level commit.
	TopCommit
	// TopAbort marks a top-level abort (conflict, internal, or user).
	TopAbort
	// Read is a transactional read of a shared variable.
	Read
	// Write is a transactional (buffered) write of a shared variable.
	Write
	// Submit spawns a transactional future.
	Submit
	// Evaluate retrieves a future's result (possibly implicitly, at a LAC
	// top-level commit).
	Evaluate
	// FutureBegin marks the start of a future body execution.
	FutureBegin
	// FutureMerge marks a future serialization (at submission or at
	// evaluation; see the Arg field).
	FutureMerge
	// FutureAbort marks a discarded future execution (it will re-execute).
	FutureAbort
)

var kindNames = [...]string{
	"topBegin", "topCommit", "topAbort", "read", "write",
	"submit", "evaluate", "futureBegin", "futureMerge", "futureAbort",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one recorded event.
type Op struct {
	// Seq is the global total order position, assigned by the Recorder.
	Seq int64 `json:"seq"`
	// Top identifies the top-level transaction attempt.
	Top int64 `json:"top"`
	// Flow identifies the logical thread of control within the top-level
	// transaction: 0 for the main flow, one id per future body.
	Flow int `json:"flow"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Var is the variable name for Read/Write events.
	Var string `json:"var,omitempty"`
	// Arg carries the future id for Submit/Evaluate/Future* events and the
	// serialization point ("submission"/"evaluation") for FutureMerge.
	Arg string `json:"arg,omitempty"`
	// Obs identifies the write a Read observed: "v<ts>" for a committed
	// version or "w<id>" for an uncommitted sub-transaction write.
	Obs string `json:"obs,omitempty"`
	// WID is the unique id of a Write.
	WID int64 `json:"wid,omitempty"`
}

// Recorder accumulates a totally ordered log. All methods are safe for
// concurrent use.
type Recorder struct {
	mu  sync.Mutex
	seq int64
	ops []Op
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends op, assigning its Seq.
func (r *Recorder) Record(op Op) {
	r.mu.Lock()
	r.seq++
	op.Seq = r.seq
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns a copy of the log in order.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.ops = nil
	r.seq = 0
	r.mu.Unlock()
}

// WriteJSON streams the log as one JSON object per line.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, op := range r.Ops() {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSON parses a log produced by WriteJSON.
func ReadJSON(rd io.Reader) ([]Op, error) {
	dec := json.NewDecoder(rd)
	var ops []Op
	for {
		var op Op
		if err := dec.Decode(&op); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}
