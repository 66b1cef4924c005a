// Shard-affine executors: the serving layer's answer to "route conflicting
// work to the same place and batch its commits" (DESIGN.md §10).
//
// Each executor owns the shards sh where sh mod Executors == id, a bounded
// run queue, and one goroutine. Because every single-key request for a shard
// arrives on the owning executor's queue, same-shard requests never race
// each other's STM validation — their transactions are naturally serialized
// by the queue — and consecutive single-key commands can be coalesced into
// one group-commit transaction, amortizing begin/validate/commit across the
// group. Cross-shard work (a MULTI, another executor's unit) still
// conflicts only through the STM, which resolves it as before.
package server

import "wtftm/internal/wire"

// executor is one shard-affine serving goroutine.
type executor struct {
	srv   *Server
	id    int
	q     chan task
	group []task // the unit being collected, reused across units
	unit  *unit  // write-pipeline working set (pipeline.go)
}

func newExecutor(s *Server, id int) *executor {
	return &executor{srv: s, id: id, q: make(chan task, execQueue), unit: newUnit(s)}
}

// singleKey reports whether op is one of the single-key store commands.
func singleKey(op wire.Op) bool {
	switch op {
	case wire.OpGet, wire.OpPut, wire.OpDel, wire.OpCAS:
		return true
	}
	return false
}

// coalescible reports whether a request may share a unit with its queue
// neighbours: exactly the single-key store commands. Dedup-enveloped
// requests always run as a unit of one, so the exactly-once lookup/store in
// run brackets precisely the request it describes.
func coalescible(req *wire.Request) bool {
	return !req.Dedup && singleKey(req.Op)
}

// loop runs tasks from the queue until it is closed (Drain after all read
// loops exited; queued work is still completed). Single-key commands are
// collected into bounded units and committed together; anything else is a
// unit of one, run after the unit collected so far (queue order is
// completion order per key).
func (e *executor) loop() {
	defer e.srv.execWG.Done()
	for t := range e.q {
		e.group = append(e.group, t)
		if coalescible(t.req) {
			e.collect()
		}
		e.flush()
	}
}

// flush runs the collected unit, if any, through the write pipeline.
func (e *executor) flush() {
	if len(e.group) == 0 {
		return
	}
	e.run(e.group)
	clear(e.group) // drop request/response refs so the pools can recycle
	e.group = e.group[:0]
}

// collect tops e.group off with coalescible work that is already queued, up
// to groupLimit commands. It never blocks: group commit trades no latency
// for throughput — it only exploits backlog that pipelining already created.
func (e *executor) collect() {
	for len(e.group) < groupLimit {
		select {
		case t, ok := <-e.q:
			if !e.admit(t, ok) {
				return
			}
		default:
			return
		}
	}
}

// admit handles one task received while collecting: coalescible work joins
// the unit; anything else flushes the unit (preserving queue order) and
// runs as a unit of its own. It reports whether collection may continue
// (false on queue close).
func (e *executor) admit(t task, ok bool) bool {
	if !ok {
		return false
	}
	solo := !coalescible(t.req)
	if solo {
		e.flush()
	}
	e.group = append(e.group, t)
	if solo {
		e.flush()
	}
	return true
}
