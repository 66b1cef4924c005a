// The served-history checker: what clients saw, judged against what a
// durable server logged, through internal/fsg's polygraph.
//
// A history is the client side of a run: every operation each client
// process issued, in that process's program order, with what it wrote,
// what it read and how it ended — the (process, program-order index,
// access) trace shape. Check turns it into an fsg.History and asks whether
// one serialization explains every answer while respecting each process's
// session order. A durable server's log adds what no client can see:
//
//   - Version order. The WAL, restricted to one shard's parts, is that
//     shard's commit order (DESIGN.md §10: the commit lock spans the STM
//     commit and the append). Check reads it through persist.Open — the
//     replay recovery runs — and turns each record part into one
//     fsg.CommitRec per operation whose writes it holds: a coalesced unit's
//     part spans several operations, and a MULTI's writes span the parts of
//     its one record on several shards. Written values are unique per
//     key, so a logged value names the operation that issued it and a read
//     value names its writer. A memory-only server has no log; there every
//     key needs a single writer process, whose program order is then the
//     key's version order (DESIGN.md §12).
//   - The log against the clients. An acked write that no record holds was
//     lost. A logged value nobody issued was invented, and one logged twice
//     was applied twice. A write whose operation was answered "CAS
//     mismatch" but is logged anyway ran twice: applied once, then answered
//     against its own effect — the duplicated effect exactly-once exists to
//     prevent.
//   - Session order. A process's answered operation precedes every later
//     operation of that process. An unanswered (ambiguous) one orders
//     nothing after it: its client never learned when, or whether, it took
//     effect. A process that pipelines must pipeline only what the server
//     orders (DESIGN.md §13): requests on one key, or GETs on a connection
//     with no write of its own in flight.
package chaos

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"wtftm/internal/fsg"
	"wtftm/internal/persist"
	"wtftm/internal/wal"
)

// Outcome is how an operation ended, as its client saw it.
type Outcome uint8

const (
	// Acked: answered, and every write the operation asked for committed.
	Acked Outcome = iota
	// Mismatch: answered that a CAS did not match, so nothing was written;
	// the reads still report what the server held.
	Mismatch
	// Ambiguous: never answered (transport error, timeout, retries spent);
	// the operation may or may not have taken effect.
	Ambiguous
)

func (o Outcome) String() string {
	switch o {
	case Acked:
		return "acked"
	case Mismatch:
		return "mismatch"
	}
	return "ambiguous"
}

// Access is one key an operation touched.
type Access struct {
	Key string
	// Write is the value the operation asked to install, "" for none.
	// Written values are never empty and never repeat for one key.
	Write string
	// Reads reports that the answer told the client the key's value: Read,
	// or absent when Read is "". A CAS observes its expectation when it
	// matches and the current value when it does not.
	Reads bool
	Read  string
}

// Op is one client operation: who issued it and when in its program order,
// what it touched, and how it ended.
type Op struct {
	Process, Index int
	Kind           string // "put", "get", "cas", "multi": for messages only
	Access         []Access
	Outcome        Outcome
}

// History collects the operations of concurrent client processes.
type History struct {
	mu  sync.Mutex
	ops []Op
}

// Add records one operation. A process numbers its own operations in the
// order it issued them.
func (h *History) Add(op Op) {
	h.mu.Lock()
	h.ops = append(h.ops, op)
	h.mu.Unlock()
}

// Ops returns the operations recorded so far.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.ops)
}

// Log locates a stopped durable server's write-ahead log.
type Log struct {
	FS     wal.FS // nil means the real file system
	Dir    string
	Shards int
}

// Verdict is what Check found.
type Verdict struct {
	// Violations holds one line per contradiction; empty means the history
	// is explained.
	Violations []string
	// CrashAdopted counts duplicated effects adopted under crashTolerant.
	CrashAdopted int64
}

// kv is one written version: a key and a value unique to it.
type kv struct{ key, val string }

type checker struct {
	ops     []Op
	v       Verdict
	crash   bool
	issued  map[kv]int    // written version -> index of the op that asked for it
	commit  map[kv]string // committed version -> the CommitRec that installed it
	commits []fsg.CommitRec
}

// Check judges a recorded history. With log, the per-key version order is
// the order of the server's log, which the server must have stopped
// writing; with a nil log the server was memory-only (see the file
// comment). crashTolerant is for schedules that kill -9 the server: its
// exactly-once table lives in memory, so a resend that straddles the crash
// runs again — a CAS is answered mismatch against its own first effect, a
// PUT is logged twice. Check then adopts both as the first send having
// applied and counts them in Verdict.CrashAdopted.
//
// The error is for a history or log Check cannot judge: a written value
// that repeats, a log that is unreadable or was compacted by a checkpoint,
// a key with two writers and no log.
func Check(ops []Op, log *Log, crashTolerant bool) (*Verdict, error) {
	c := &checker{ops: ops, crash: crashTolerant, issued: map[kv]int{}, commit: map[kv]string{}}
	seen := map[[2]int]bool{}
	for i, op := range ops {
		id := [2]int{op.Process, op.Index}
		if seen[id] {
			return nil, fmt.Errorf("chaos: two operations are numbered p%d.%d", op.Process, op.Index)
		}
		seen[id] = true
		for _, a := range op.Access {
			if a.Write == "" {
				continue
			}
			w := kv{a.Key, a.Write}
			if j, dup := c.issued[w]; dup {
				return nil, fmt.Errorf("chaos: %s and %s both write %s=%q; written values must be unique per key",
					c.name(j), c.name(i), a.Key, a.Write)
			}
			c.issued[w] = i
		}
	}
	var err error
	if log != nil {
		err = c.replay(log)
	} else {
		err = c.programOrder()
	}
	if err != nil {
		return nil, err
	}
	adopted := c.compare(log != nil)
	return &c.v, c.serializable(adopted)
}

func (c *checker) violate(format string, args ...any) {
	c.v.Violations = append(c.v.Violations, fmt.Sprintf(format, args...))
}

// name is an operation's agent name in the FSG: p<process>.<index>.
func (c *checker) name(i int) string {
	return fmt.Sprintf("p%d.%d", c.ops[i].Process, c.ops[i].Index)
}

// describe renders an operation for a violation message.
func (c *checker) describe(i int) string {
	op := &c.ops[i]
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", c.name(i), op.Kind)
	for _, a := range op.Access {
		fmt.Fprintf(&b, " %s", a.Key)
		if a.Reads {
			fmt.Fprintf(&b, " read %q", a.Read)
		}
		if a.Write != "" {
			fmt.Fprintf(&b, " write %q", a.Write)
		}
	}
	fmt.Fprintf(&b, " (%s)", op.Outcome)
	return b.String()
}

// install records that commit record id, of operation i, installed w; the
// record is appended to c.commits unless it is already the last one there.
func (c *checker) install(i int, w kv, id string) {
	if n := len(c.commits); n == 0 || c.commits[n-1].ID != id {
		c.commits = append(c.commits, fsg.CommitRec{Top: c.name(i), ID: id})
	}
	rec := &c.commits[len(c.commits)-1]
	rec.Vars = append(rec.Vars, w.key)
	c.commit[w] = id
}

// replay reads the one log in record order through the recovery callbacks,
// one call per part; record order restricted to a shard is that shard's
// commit order, so every key's versions arrive in commit order.
func (c *checker) replay(log *Log) error {
	m, err := persist.Open(persist.Options{
		FS:     log.FS,
		Dir:    log.Dir,
		Shards: log.Shards,
		Sync:   wal.SyncOff,
		Source: func(int, func(string, []byte) error) error { return nil },
		Restore: func(shard int, _ string, _ []byte) error {
			return fmt.Errorf("chaos: shard %d was checkpointed, and the checker needs its whole log", shard)
		},
		Apply: func(shard int, seq uint64, payload []byte) error {
			prev := -1
			id := ""
			return wal.DecodeBatch(payload, func(o wal.Op) error {
				if o.Kind != wal.OpPut {
					c.violate("shard %d record %d deletes %s, which no client asked for", shard, seq, o.Key)
					return nil
				}
				w := kv{o.Key, string(o.Val)}
				i, ok := c.issued[w]
				switch {
				case !ok:
					c.violate("shard %d record %d holds %s=%q, which no client wrote", shard, seq, w.key, w.val)
				case c.commit[w] != "" && c.crash:
					c.v.CrashAdopted++
				case c.commit[w] != "":
					c.violate("%s=%q is logged twice (again in shard %d record %d): %s applied twice",
						w.key, w.val, shard, seq, c.describe(i))
				default:
					if i != prev {
						prev, id = i, fmt.Sprintf("s%d.%d.%d", shard, seq, len(c.commits))
					}
					c.install(i, w, id)
				}
				return nil
			})
		},
	})
	if err != nil {
		return fmt.Errorf("chaos: reading the log: %w", err)
	}
	return m.Close()
}

// programOrder orders a memory-only server's versions by their writers'
// program order. The committed writes are the acked ones and any other a
// read observed; an unobserved ambiguous write constrains nothing.
func (c *checker) programOrder() error {
	observed := map[kv]bool{}
	for _, op := range c.ops {
		for _, a := range op.Access {
			if a.Reads && a.Read != "" {
				observed[kv{a.Key, a.Read}] = true
			}
		}
	}
	order := make([]int, len(c.ops))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if pa, pb := c.ops[a].Process, c.ops[b].Process; pa != pb {
			return pa - pb
		}
		return c.ops[a].Index - c.ops[b].Index
	})
	writer := map[string]int{}
	for _, i := range order {
		op := &c.ops[i]
		for _, a := range op.Access {
			w := kv{a.Key, a.Write}
			if a.Write == "" || !(op.Outcome == Acked || observed[w]) {
				continue
			}
			if p, ok := writer[a.Key]; ok && p != op.Process {
				return fmt.Errorf("chaos: %s has writers p%d and p%d; without a log only a single-writer key has a known version order",
					a.Key, p, op.Process)
			}
			writer[a.Key] = op.Process
			c.install(i, w, c.name(i))
		}
	}
	return nil
}

// compare holds every write a client asked for against the committed
// versions. It returns which operations crashTolerant adopted: answered
// mismatch, yet committed by a send before the crash.
func (c *checker) compare(logged bool) (adopted []bool) {
	adopted = make([]bool, len(c.ops))
	for i, op := range c.ops {
		for _, a := range op.Access {
			if a.Write == "" {
				continue
			}
			_, in := c.commit[kv{a.Key, a.Write}]
			switch {
			case op.Outcome == Acked && !in && logged:
				c.violate("lost acked write: no log record holds %s=%q of %s", a.Key, a.Write, c.describe(i))
			case op.Outcome == Mismatch && in && c.crash:
				adopted[i] = true
				c.v.CrashAdopted++
			case op.Outcome == Mismatch && in:
				c.violate("duplicated effect: %s was answered CAS mismatch, yet %s=%q committed",
					c.describe(i), a.Key, a.Write)
			}
		}
	}
	return adopted
}

// serializable asks the FSG polygraph whether one serialization explains
// every answer while keeping each process's session order. An adopted
// operation's reads are dropped: they saw its own first effect.
func (c *checker) serializable(adopted []bool) error {
	h := fsg.History{Agents: map[string][]fsg.Op{}, Top: map[string]string{}, Commits: c.commits}
	byProc := map[int][]int{}
	for i, op := range c.ops {
		byProc[op.Process] = append(byProc[op.Process], i)
	}
	for _, ids := range byProc {
		slices.SortFunc(ids, func(a, b int) int { return c.ops[a].Index - c.ops[b].Index })
		last := ""
		for _, i := range ids {
			op := &c.ops[i]
			agent := c.name(i)
			var stream []fsg.Op
			for _, a := range op.Access {
				if !a.Reads || op.Outcome == Ambiguous || adopted[i] {
					continue
				}
				obs := ""
				if a.Read != "" {
					id, ok := c.commit[kv{a.Key, a.Read}]
					if !ok {
						c.violate("%s observed %s=%q, which no committed write installed", c.describe(i), a.Key, a.Read)
						continue
					}
					obs = "c:" + id
				}
				stream = append(stream, fsg.Op{Kind: fsg.Read, Var: a.Key, Obs: obs})
			}
			for _, a := range op.Access {
				if _, in := c.commit[kv{a.Key, a.Write}]; a.Write != "" && in {
					stream = append(stream, fsg.Op{Kind: fsg.Write, Var: a.Key, WID: agent + "/" + a.Key})
				}
			}
			if op.Outcome == Ambiguous && len(stream) == 0 {
				continue // as far as anyone can tell, it never happened
			}
			h.Agents[agent], h.Top[agent] = stream, agent
			if last != "" {
				h.Order = append(h.Order, [2]string{last, agent})
			}
			if op.Outcome != Ambiguous {
				last = agent
			}
		}
	}

	p, err := fsg.Build(h, fsg.None) // client operations submit no futures
	if err != nil {
		return fmt.Errorf("chaos: building the FSG: %w", err)
	}
	if p.Acyclic() {
		return nil
	}
	// An agent without futures is one FSG vertex, its begin vertex.
	index := map[string]int{}
	for i := range c.ops {
		index["B("+c.name(i)+")"] = i
	}
	var steps []string
	for _, vtx := range p.Cycle() {
		steps = append(steps, c.describe(index[vtx]))
	}
	if len(steps) > 0 {
		steps = append(steps, steps[0])
	}
	c.violate("no serialization explains the answers; cycle: %s", strings.Join(steps, " -> "))
	return nil
}
