package core

import (
	"sync"
	"time"
)

// Future bodies run on worker goroutines the System keeps parked between
// futures, so a body starts on a stack that has already grown to what bodies
// need instead of a fresh one that is regrown by copying every time.
//
// A worker serves one future at a time and is never shared: dispatch hands
// the future to a parked worker when there is one and starts a new worker
// when there is none, so a body that blocks — on another future, on a
// channel of the program — can never keep a later body from starting. Only
// the number of *idle* workers is bounded.

const (
	// workerIdleMax bounds the parked workers; one past it exits instead of
	// parking. Twice the widest served fan-out per executor pair.
	workerIdleMax = 32
	// workerIdleTick is how long the set may sit unused before it is let
	// go, so a System that went quiet (or was dropped) holds no goroutines.
	workerIdleTick = 500 * time.Millisecond
)

// worker is one parked-or-running body goroutine, as the channel that
// carries the future it should run next; it has room for one because a
// parked worker is handed exactly one future before it parks again.
type worker chan *Future

// workerSet is the System's idle workers, most recently parked last.
type workerSet struct {
	mu         sync.Mutex
	idle       []worker
	dispatches uint64 // bumped per dispatch: the reaper's sign of life
	reaping    bool
}

// dispatch starts f's body: on the most recently parked worker (the warmest
// stack) if any, on a new one otherwise. It never blocks.
func (s *System) dispatch(f *Future) {
	ws := &s.workers
	ws.mu.Lock()
	ws.dispatches++
	if n := len(ws.idle); n > 0 {
		w := ws.idle[n-1]
		ws.idle[n-1] = nil
		ws.idle = ws.idle[:n-1]
		ws.mu.Unlock()
		w <- f
		return
	}
	ws.mu.Unlock()
	go s.work(make(worker, 1), f)
}

// work runs futures until the idle set is full or the reaper lets it go.
func (s *System) work(w worker, f *Future) {
	for f != nil {
		f.run()
		if !s.park(w) {
			return
		}
		f = <-w // nil once the reaper closed it
	}
}

// park puts w on the idle set, starting the reaper if none is running. It
// reports false when the set is full.
func (s *System) park(w worker) bool {
	ws := &s.workers
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if len(ws.idle) >= workerIdleMax {
		return false
	}
	ws.idle = append(ws.idle, w)
	if !ws.reaping {
		ws.reaping = true
		go s.reap()
	}
	return true
}

// reap releases the idle workers once a whole tick passed without a
// dispatch, and exits with them; the next park starts another reaper.
func (s *System) reap() {
	ws := &s.workers
	var seen uint64
	for {
		time.Sleep(workerIdleTick)
		ws.mu.Lock()
		if ws.dispatches != seen {
			seen = ws.dispatches
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
