package core

import (
	"sync"
	"time"
)

// Who runs a future's body is decided by one CAS on the handle
// (Future.claim), and whoever gets there first wins it: a worker goroutine,
// the flow that reaches Evaluate(f), or — under serialSubmit — the
// submitting flow. All of them run the same Future.run; the loser does
// nothing more with the future.
//
// Who wakes whom. Submit publishes the future on the System's run queue and
// wakes a parked worker only if no worker is awake looking for work. A
// worker that wins a claim first wakes one more worker if claimable work
// remains, and only then runs the body; after it, the worker looks for work
// again. So whenever the queue holds a future some worker is awake to claim
// it, and a body that blocks — on another future, on a channel of the
// program — can never keep a later body from starting. On one CPU a
// continuation that evaluates its futures runs every body itself and the
// one worker its first Submit woke finds nothing left to claim; on N CPUs
// the chain of wakes spreads the bodies across cores.
//
// Workers park between wakes, so a body starts on a stack that has already
// grown to what bodies need instead of a fresh one that is regrown by
// copying every time. Only the number of *idle* workers is bounded.

const (
	// workerIdleMax bounds the parked workers; one past it exits instead of
	// parking. It caps only what a quiet System holds: a burst of more
	// concurrent bodies still gets its workers, started fresh.
	workerIdleMax = 32
	// workerIdleTick is how long the set may sit unused before it is let
	// go, so a System that went quiet (or was dropped) holds no goroutines.
	workerIdleTick = 500 * time.Millisecond
)

// worker is one parked-or-running worker goroutine, as the channel that
// wakes it; it has room for one token because a parked worker is woken
// exactly once before it parks again.
type worker chan struct{}

// workerSet is the System's run queue and its workers.
type workerSet struct {
	mu sync.Mutex
	// queue[head:] are the published futures, oldest first; an evaluator
	// may have claimed some of them already.
	queue []*Future
	head  int
	// searching counts the workers that are awake and not running a body.
	searching int
	idle      []worker // parked workers, most recently parked last
	publishes uint64   // bumped per publish: the reaper's sign of life
	reaping   bool
}

// publish makes f claimable and wakes a worker if none is searching. It
// never blocks.
func (s *System) publish(f *Future) {
	ws := &s.workers
	ws.mu.Lock()
	ws.publishes++
	if len(ws.queue) == cap(ws.queue) {
		// Before growing the array, drop what was consumed or claimed by an
		// evaluator: on one CPU the woken worker may not run for a whole
		// time slice, and the dead entries would pile up until it does.
		n := 0
		for _, q := range ws.queue[ws.head:] {
			if !q.claimed.Load() {
				ws.queue[n] = q
				n++
			}
		}
		clear(ws.queue[n:])
		ws.queue, ws.head = ws.queue[:n], 0
	}
	ws.queue = append(ws.queue, f)
	if ws.searching > 0 {
		ws.mu.Unlock()
		return
	}
	s.wakeLocked()
}

// wakeLocked sets one more worker searching: the most recently parked one
// (the warmest stack) if any, a new one otherwise. Caller holds ws.mu,
// which wakeLocked releases.
func (s *System) wakeLocked() {
	ws := &s.workers
	ws.searching++
	var w worker
	if n := len(ws.idle); n > 0 {
		w = ws.idle[n-1]
		ws.idle[n-1] = nil
		ws.idle = ws.idle[:n-1]
	}
	ws.mu.Unlock()
	s.stats.WorkerWakes.Add(1)
	if h := s.opts.Hook; h != nil {
		h.SpawnExpected()
	}
	if w != nil {
		w <- struct{}{}
		return
	}
	go s.work(make(worker, 1))
}

// work is a worker's life: take published futures and run the ones it
// wins until the queue is empty, park, and start over when woken — until
// the idle set is full or the reaper lets it go. Each waking is one
// scheduler-hook task.
func (s *System) work(w worker) {
	h := s.opts.Hook
	for {
		if h != nil {
			h.TaskBegin()
		}
		f, parked := s.take(w, false)
		for f != nil {
			ran := f.claim()
			if ran {
				s.startBody()
				f.run()
			}
			f, parked = s.take(w, ran)
		}
		if h != nil {
			h.TaskEnd()
		}
		if !parked {
			return
		}
		if _, ok := <-w; !ok {
			return
		}
	}
}

// take pops the next published future for a searching worker; ran says the
// worker just finished a body and is searching again. With the queue empty
// the worker stops searching and parks on w — in the same critical section,
// so no publish can miss it — and take returns nil and whether it parked
// (false: the idle set is full and the worker must exit).
func (s *System) take(w worker, ran bool) (f *Future, parked bool) {
	ws := &s.workers
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ran {
		ws.searching++
	}
	if ws.head < len(ws.queue) {
		f = ws.queue[ws.head]
		ws.queue[ws.head] = nil
		ws.head++
		if ws.head == len(ws.queue) {
			ws.queue, ws.head = ws.queue[:0], 0
		}
		return f, false
	}
	ws.searching--
	if len(ws.idle) >= workerIdleMax {
		return nil, false
	}
	ws.idle = append(ws.idle, w)
	if !ws.reaping {
		ws.reaping = true
		go s.reap()
	}
	return nil, true
}

// startBody takes a worker that won a claim out of the searching count,
// first waking another one if claimable work remains and nobody else is
// searching for it.
func (s *System) startBody() {
	ws := &s.workers
	ws.mu.Lock()
	ws.searching--
	if ws.searching == 0 && ws.head < len(ws.queue) {
		s.wakeLocked()
		return
	}
	ws.mu.Unlock()
}

// reap releases the idle workers once a whole tick passed without a
// publish, and exits with them; the next park starts another reaper.
func (s *System) reap() {
	ws := &s.workers
	var seen uint64
	for {
		time.Sleep(workerIdleTick)
		ws.mu.Lock()
		if ws.publishes != seen {
			seen = ws.publishes
			ws.mu.Unlock()
			continue
		}
		idle := ws.idle
		ws.idle, ws.reaping = nil, false
		ws.mu.Unlock()
		for _, w := range idle {
			close(w)
		}
		return
	}
}
