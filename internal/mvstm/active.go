package mvstm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// activeShards tracks the snapshots of live transactions and their pins so
// version GC never trims a version some active snapshot can still read.
//
// The table is striped: every transaction is assigned one shard for its whole
// lifetime (the assignment is made when the Txn object is allocated, so
// sync.Pool reuse gives natural per-P affinity), and register/unregister/pin
// for that transaction all go through that one shard.
//
// Each shard is one intrusive doubly-linked list of snapNodes kept sorted by
// snapshot, oldest at the head:
//
//   - register reads the clock under the shard's lock and links the Txn's
//     own node at the tail. The clock only rises, and every node already in
//     the list was linked under the same lock at an earlier clock reading,
//     so the tail is the newest.
//   - pin links a node with its transaction's snapshot directly behind that
//     transaction's node, which is still linked (Txn.Pin requires a live
//     transaction): its neighbours are no newer before it and no older after.
//   - unregister unlinks a node, which keeps the rest in order.
//
// So a shard's smallest snapshot is its head, and min reads one node per
// shard.
//
// Safety argument for the striped minimum (used as the GC horizon): a
// snapshot that must stay protected is continuously linked in exactly one
// shard. The registration is linked from Begin to finish, and Txn.Pin links
// its node in the same shard before the registration unlinks. min reads each
// shard's head under its lock, so it either sees the snapshot (or an older
// one) or read the shard before the snapshot was registered — and in the
// latter case the snapshot was taken from the clock *after* the read began,
// hence snap >= clock >= fallback >= the value min can return (the fallback
// passed by the commit pipeline is always <= the clock at the time min is
// called).
type activeShards struct {
	shards []activeShard
	mask   int32
	// seq assigns shards round-robin to newly allocated transactions.
	seq atomic.Int32
}

type activeShard struct {
	mu sync.Mutex
	// root is the list's sentinel: root.next is the oldest snapshot,
	// root.prev the newest, and root.next == &root when nothing is tracked.
	root snapNode
	_    [32]byte
}

// snapNode is one tracked snapshot: a Txn's registration (its node field)
// or a pin. next is nil while the node is not linked.
type snapNode struct {
	prev, next *snapNode
	snap       int64
}

// nextPow2 rounds n up to a power of two (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (a *activeShards) init(n int) {
	if n <= 0 {
		n = nextPow2(runtime.GOMAXPROCS(0))
	}
	n = nextPow2(n)
	if n > 64 {
		n = 64
	}
	a.shards = make([]activeShard, n)
	a.mask = int32(n - 1)
	for i := range a.shards {
		r := &a.shards[i].root
		r.prev, r.next = r, r
	}
}

// assign hands out a shard index for a new transaction object.
func (a *activeShards) assign() int32 {
	return a.seq.Add(1) & a.mask
}

// register sets n's snapshot to the clock and links n at the tail of the
// given shard. Reading the clock and linking happen under the shard's lock,
// which keeps the list sorted and means a concurrent min cannot miss a
// snapshot older than the horizon it computes.
func (a *activeShards) register(shard int32, n *snapNode, clock *atomic.Int64) {
	sh := &a.shards[shard]
	sh.mu.Lock()
	n.snap = clock.Load()
	n.linkAfter(sh.root.prev)
	sh.mu.Unlock()
}

// pin links n, with owner's snapshot, directly behind owner, which must be
// linked in the given shard.
func (a *activeShards) pin(shard int32, owner, n *snapNode) {
	sh := &a.shards[shard]
	sh.mu.Lock()
	n.snap = owner.snap
	n.linkAfter(owner)
	sh.mu.Unlock()
}

// unregister unlinks n from the given shard; a node that is not linked is
// left alone, so a repeated release is harmless.
func (a *activeShards) unregister(shard int32, n *snapNode) {
	sh := &a.shards[shard]
	sh.mu.Lock()
	if n.next != nil {
		n.prev.next, n.next.prev = n.next, n.prev
		n.prev, n.next = nil, nil
	}
	sh.mu.Unlock()
}

// linkAfter inserts n between p and p.next. The caller holds the shard lock.
func (n *snapNode) linkAfter(p *snapNode) {
	n.prev, n.next = p, p.next
	p.next.prev = n
	p.next = n
}

// min returns the smallest active snapshot across all shards, or fallback
// when nothing is tracked (or everything tracked is newer than fallback).
func (a *activeShards) min(fallback int64) int64 {
	m := fallback
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		if h := sh.root.next; h != &sh.root && h.snap < m {
			m = h.snap
		}
		sh.mu.Unlock()
	}
	return m
}
