package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wtftm/internal/mvstm"
)

// The validators and the merge walk a chain's inline sets and decide from
// vertex summaries first. Their predecessors materialised every set as a map.
// The map-based versions are kept below as reference code, and a seeded
// generator of small graphs checks that both agree on every conflict
// verdict, every folded read/write set, every relocated child and every
// flow's visible-write index.

// --- reference: validation and merge over materialised sets ----------------

func refChain(v *vertex) []*vertex {
	var out []*vertex
	for c := v; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

func refChainWriteBoxes(v *vertex) (map[*mvstm.VBox]struct{}, uint64) {
	out := make(map[*mvstm.VBox]struct{})
	var sum uint64
	for _, c := range refChain(v) {
		for b := range c.writes.all() {
			out[b] = struct{}{}
			sum |= b.Summary()
		}
	}
	return out, sum
}

func refChainReadBoxes(v *vertex, self int) (map[*mvstm.VBox]struct{}, uint64) {
	out := make(map[*mvstm.VBox]struct{})
	var sum uint64
	for _, c := range refChain(v) {
		for b, obs := range c.reads.all() {
			if obs.ver == nil && obs.flow == self {
				continue
			}
			out[b] = struct{}{}
			sum |= b.Summary()
		}
	}
	return out, sum
}

func refIntersects(a, b map[*mvstm.VBox]struct{}) bool {
	for x := range a {
		if _, ok := b[x]; ok {
			return true
		}
	}
	return false
}

func refForwardConflicts(start *vertex, writes map[*mvstm.VBox]struct{}, wsum uint64, skip *vertex) bool {
	if len(writes) == 0 {
		return false
	}
	seen := map[*vertex]bool{start: true}
	stack := []*vertex{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.removed() || v == skip {
			continue
		}
		if v.readSum.Load()&wsum != 0 {
			for b := range v.reads.all() {
				if _, ok := writes[b]; ok {
					return true
				}
			}
		}
		for _, s := range v.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func refBackwardConflicts(from, until *vertex, reads map[*mvstm.VBox]struct{}, rsum uint64) (conflict, ok bool) {
	for v := from; v != nil; v = v.pred {
		if v == until {
			return false, true
		}
		if v.writeSum.Load()&rsum != 0 {
			for b := range v.writes.all() {
				if _, in := reads[b]; in {
					return true, true
				}
			}
		}
	}
	return false, false
}

func refPathWriteBoxes(from, until *vertex) map[*mvstm.VBox]struct{} {
	out := make(map[*mvstm.VBox]struct{})
	for v := from; v != nil && v != until; v = v.pred {
		for b := range v.writes.all() {
			out[b] = struct{}{}
		}
	}
	return out
}

func refAddExtraPathWrites(f *Future, boxes map[*mvstm.VBox]struct{}) {
	if len(boxes) == 0 {
		return
	}
	if f.extraPathWrites == nil {
		f.extraPathWrites = make(map[*mvstm.VBox]struct{}, len(boxes))
	}
	for b := range boxes {
		f.extraPathWrites[b] = struct{}{}
		f.extraSum |= b.Summary()
	}
}

func refExtraConflict(f *Future, reads map[*mvstm.VBox]struct{}, rsum uint64) bool {
	return rsum&f.extraSum != 0 && refIntersects(reads, f.extraPathWrites)
}

func (t *topTx) refMergeChain(head, target *vertex, evalFrom *vertex) {
	cs := refChain(head)
	inChain := make(map[*vertex]bool, len(cs))
	for _, c := range cs {
		inChain[c] = true
	}
	var relocW map[*mvstm.VBox]struct{}
	if evalFrom != nil {
		relocW = refPathWriteBoxes(evalFrom, head.pred)
	}
	acc := make(map[*mvstm.VBox]struct{})
	for i := len(cs) - 1; i >= 0; i-- {
		c := cs[i]
		for _, child := range c.succs {
			if inChain[child] || child.removed() {
				continue
			}
			child.pred = target
			target.succs = append(target.succs, child)
			if f := child.fut; f != nil {
				refAddExtraPathWrites(f, acc)
				refAddExtraPathWrites(f, relocW)
				if inChain[f.cont] {
					f.cont = target
				}
			}
		}
		for b := range c.writes.all() {
			acc[b] = struct{}{}
		}
	}
	patch := make(map[*mvstm.VBox]writeEntry, len(acc))
	for _, c := range cs {
		for b, we := range c.writes.all() {
			target.writes.put(b, we)
			patch[b] = we
		}
		for b, obs := range c.reads.all() {
			if _, ok := target.reads.get(b); !ok {
				target.reads.put(b, obs)
			}
		}
		target.readSum.Store(target.readSum.Load() | c.readSum.Load())
		target.writeSum.Store(target.writeSum.Load() | c.writeSum.Load())
		c.status = vRemoved
		c.succs = nil
	}
	if p := head.pred; p != nil {
		for i, s := range p.succs {
			if s == head {
				p.succs = append(p.succs[:i], p.succs[i+1:]...)
				break
			}
		}
	}
	t.refPushMergePatch(patch, target, evalFrom)
}

func (t *topTx) refPushMergePatch(patch map[*mvstm.VBox]writeEntry, target, evalFrom *vertex) {
	for _, ftx := range t.flows {
		c := ftx.cur
		if c == nil || c == target {
			continue
		}
		anc, blocked := false, false
		for v := c.pred; v != nil; v = v.pred {
			if v == target {
				anc = true
				break
			}
			if !blocked {
				for b := range v.writes.all() {
					if _, in := patch[b]; in {
						blocked = true
						break
					}
				}
			}
		}
		if !anc {
			continue
		}
		if evalFrom != nil || blocked {
			ftx.markDirtyLocked()
			continue
		}
		if len(patch) == 0 || !ftx.visBuilt || ftx.visDirty {
			continue
		}
		ftx.pending = append(ftx.pending, patch)
		ftx.visOK.Store(false)
	}
}

// --- generator ---------------------------------------------------------------

// equivGraph is one of the two copies of a generated graph: `fresh` runs the
// code under test, the other the reference. Both are driven by the same
// operation sequence on separate engines, so vertex ids, flow numbers and
// write ids line up; boxes are compared by name.
type equivGraph struct {
	fresh bool
	top   *topTx
	boxes []*mvstm.VBox
	flows []*equivFlow // every flow ever opened, index-aligned across copies
}

type equivFlow struct {
	tx     *Tx
	fut    *Future    // nil for the main flow
	parent *equivFlow // the flow that submitted fut
	done   bool       // body finished
	gone   bool       // serialized or discarded
}

func newEquivGraph(fresh bool, nboxes int) *equivGraph {
	stm := mvstm.New()
	sys := New(stm, Options{})
	g := &equivGraph{fresh: fresh, top: sys.newTop()}
	for i := 0; i < nboxes; i++ {
		g.boxes = append(g.boxes, stm.NewBoxNamed(fmt.Sprintf("b%02d", i), i))
	}
	g.flows = []*equivFlow{{tx: g.top.mainTx}}
	return g
}

func (g *equivGraph) submit(fl *equivFlow) {
	g.top.lockG()
	f := fl.tx.spawnLocked(nil)
	g.top.unlockG()
	g.flows = append(g.flows, &equivFlow{tx: f.ftx, fut: f, parent: fl})
}

func (g *equivGraph) boundary(fl *equivFlow) {
	g.top.lockG()
	fl.tx.boundaryLocked()
	g.top.unlockG()
}

func (g *equivGraph) refresh(fl *equivFlow) {
	g.top.mu.RLock()
	fl.tx.refreshVis()
	g.top.mu.RUnlock()
}

// settle classifies the finished future of fl the way Future.run and
// evaluateLocal do — forward validation and a submission merge, else
// backward validation from the spawning flow's current vertex and an
// evaluation merge, else a discard — and reports the verdicts it reached.
func (g *equivGraph) settle(fl *equivFlow) (verdicts [5]bool) {
	t, f := g.top, fl.fut
	t.lockG()
	defer t.unlockG()
	fl.gone = true
	var forward, extra bool
	if g.fresh {
		rsum, wsum := chainSums(f.vertex)
		forward = t.forwardConflicts(f.cont, f.vertex, wsum, f.vertex)
		extra = f.extraConflict(rsum)
	} else {
		writes, wsum := refChainWriteBoxes(f.vertex)
		reads, rsum := refChainReadBoxes(f.vertex, f.flow)
		forward = refForwardConflicts(f.cont, writes, wsum, f.vertex)
		extra = refExtraConflict(f, reads, rsum)
	}
	verdicts[0], verdicts[1] = forward, extra
	if f.isInvalidated() || f.vertex.removed() {
		return verdicts
	}
	if !forward && !extra {
		if g.fresh {
			t.mergeChain(f.vertex, f.vertex.pred, nil)
		} else {
			t.refMergeChain(f.vertex, f.vertex.pred, nil)
		}
		return verdicts
	}
	// Parked: its spawning flow evaluates it from wherever it is now.
	ev := fl.parent.tx
	var conflict, ok bool
	if g.fresh {
		rsum, _ := chainSums(f.vertex)
		conflict, ok = backwardConflicts(ev.cur, f.vertex.pred, f.vertex, rsum, f.flow)
	} else {
		reads, rsum := refChainReadBoxes(f.vertex, f.flow)
		conflict, ok = refBackwardConflicts(ev.cur, f.vertex.pred, reads, rsum)
	}
	verdicts[2], verdicts[3], verdicts[4] = conflict, ok, true
	if fl.parent.done || fl.parent.gone {
		// Nobody is left to evaluate it.
		t.discardChain(f.vertex)
		return verdicts
	}
	if ok && !conflict && !extra {
		cur := ev.cur
		cur.status = vICommitted
		if g.fresh {
			t.mergeChain(f.vertex, cur, cur)
		} else {
			t.refMergeChain(f.vertex, cur, cur)
		}
		ev.absorbWrites(cur)
		ev.cur = t.newVertex(cur.flow, cur)
		return verdicts
	}
	t.discardChain(f.vertex)
	return verdicts
}

// --- comparison ---------------------------------------------------------------

type equivVertex struct {
	Status        vstatus
	Flow, Segment int
	Pred, Next    int
	Succs         []int
	Reads, Writes map[string]string
}

func vid(v *vertex) int {
	if v == nil {
		return 0
	}
	return v.id
}

func boxNames[V any](m map[*mvstm.VBox]V) []string {
	out := make([]string, 0, len(m))
	for b := range m {
		out = append(out, b.Name)
	}
	sort.Strings(out)
	return out
}

func fmtRead(obs readObs) string {
	if obs.ver != nil {
		return fmt.Sprintf("%v@v%d", obs.val, obs.ver.TS)
	}
	return fmt.Sprintf("%v@f%d.w%d", obs.val, obs.flow, obs.wid)
}

func fmtWrite(we writeEntry) string { return fmt.Sprintf("%v@f%d.w%d", we.val, we.flow, we.wid) }

// snapshot renders everything the merge and the validators can change, in a
// form two graphs over different boxes can be compared in.
func (g *equivGraph) snapshot(t *testing.T) map[string]any {
	out := make(map[string]any)
	for _, v := range g.top.verts[:g.top.nverts] {
		ev := equivVertex{Status: v.status, Flow: v.flow, Segment: v.segment, Pred: vid(v.pred), Next: vid(v.next),
			Reads: map[string]string{}, Writes: map[string]string{}}
		for _, s := range v.succs {
			ev.Succs = append(ev.Succs, s.id)
		}
		var rsum, wsum uint64
		for b, obs := range v.reads.all() {
			ev.Reads[b.Name] = fmtRead(obs)
			rsum |= b.Summary()
		}
		for b, we := range v.writes.all() {
			ev.Writes[b.Name] = fmtWrite(we)
			wsum |= b.Summary()
		}
		if v.reads.size() != len(ev.Reads) || v.writes.size() != len(ev.Writes) {
			t.Fatalf("vertex %d: set size disagrees with its iteration", v.id)
		}
		// Summaries may over-approximate, never miss a member.
		if v.readSum.Load()&rsum != rsum || v.writeSum.Load()&wsum != wsum {
			t.Fatalf("vertex %d: a summary misses a member of its set", v.id)
		}
		out[fmt.Sprintf("v%02d", v.id)] = ev
	}
	for i, fl := range g.flows {
		if f := fl.fut; f != nil {
			out[fmt.Sprintf("f%02d", i)] = fmt.Sprintf("cont=%d invalid=%v extra=%v",
				vid(f.cont), f.isInvalidated(), boxNames(f.extraPathWrites))
		}
		if fl.done || fl.gone {
			continue
		}
		// What the flow's next read of each box would resolve to.
		g.refresh(fl)
		vis := map[string]string{}
		for b, we := range fl.tx.vis {
			vis[b.Name] = fmtWrite(we)
		}
		out[fmt.Sprintf("vis%02d", i)] = vis
	}
	return out
}

func TestValidationEquivalence(t *testing.T) {
	const (
		seeds    = 600
		nboxes   = 10
		maxVerts = 12
	)
	var merges, evalMerges, conflicts, relocated, spilled, patched int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newEquivGraph(true, nboxes), newEquivGraph(false, nboxes)
		both := func(op func(g *equivGraph)) { op(a); op(b) }
		// A narrow box range makes flows collide; a wide burst spills a set.
		hot := 2 + rng.Intn(nboxes-2)

		for step := 0; step < 60; step++ {
			var open, finished []int
			for i, fl := range a.flows {
				switch {
				case fl.gone:
				case fl.done:
					finished = append(finished, i)
				default:
					open = append(open, i)
				}
			}
			room := a.top.nverts+2 <= maxVerts
			switch r := rng.Intn(100); {
			case r < 30: // read
				i, bx := open[rng.Intn(len(open))], rng.Intn(hot)
				both(func(g *equivGraph) { g.flows[i].tx.Read(g.boxes[bx]) })
			case r < 55: // write
				i, bx, val := open[rng.Intn(len(open))], rng.Intn(hot), rng.Intn(1000)
				both(func(g *equivGraph) { g.flows[i].tx.Write(g.boxes[bx], val) })
			case r < 60: // a burst past the inline capacity
				i, wr := open[rng.Intn(len(open))], rng.Intn(2) == 0
				both(func(g *equivGraph) {
					for bx := 0; bx <= isetInline+1; bx++ {
						if wr {
							g.flows[i].tx.Write(g.boxes[bx], step)
						} else {
							g.flows[i].tx.Read(g.boxes[bx])
						}
					}
				})
			case r < 75 && room: // submit, from any live flow: futures nest
				i := open[rng.Intn(len(open))]
				both(func(g *equivGraph) { g.submit(g.flows[i]) })
			case r < 80 && room: // a sub-transaction boundary
				i := open[rng.Intn(len(open))]
				both(func(g *equivGraph) { g.boundary(g.flows[i]) })
			case r < 85: // build a flow's index, so a merge has something to patch
				i := open[rng.Intn(len(open))]
				both(func(g *equivGraph) { g.refresh(g.flows[i]) })
			case r < 92: // a future's body ends
				if len(open) > 1 {
					i := open[1+rng.Intn(len(open)-1)]
					both(func(g *equivGraph) {
						fl := g.flows[i]
						g.top.lockG()
						g.top.unregister(fl.tx)
						g.top.unlockG()
						fl.done = true
					})
				}
			default: // a finished future settles
				if len(finished) == 0 {
					continue
				}
				i := finished[rng.Intn(len(finished))]
				for _, fl := range a.flows {
					if !fl.done && !fl.gone && fl.tx.visBuilt && !fl.tx.visDirty {
						patched++
					}
				}
				va, vb := a.settle(a.flows[i]), b.settle(b.flows[i])
				if va != vb {
					t.Fatalf("seed %d step %d: verdicts differ: new %v, reference %v (forward, extra, backward, ok, parked)", seed, step, va, vb)
				}
				switch {
				case va[4] && va[3] && !va[2] && !va[1]:
					evalMerges++
				case va[4]:
					conflicts++
				default:
					merges++
				}
				sa, sb := a.snapshot(t), b.snapshot(t)
				if !reflect.DeepEqual(sa, sb) {
					for k, x := range sa {
						if !reflect.DeepEqual(x, sb[k]) {
							t.Errorf("seed %d step %d: %s differs:\n  new       %+v\n  reference %+v", seed, step, k, x, sb[k])
						}
					}
					t.FailNow()
				}
			}
		}
		for _, fl := range a.flows {
			if fl.fut != nil && len(fl.fut.extraPathWrites) > 0 {
				relocated++
			}
		}
		for _, v := range a.top.verts[:a.top.nverts] {
			if v.reads.n < 0 || v.writes.n < 0 {
				spilled++
			}
		}
		if sa, sb := a.snapshot(t), b.snapshot(t); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("seed %d: final graphs differ", seed)
		}
	}
	t.Logf("%d seeds: %d submission merges, %d evaluation merges, %d conflicts; %d relocated children, %d spilled sets, %d built indexes at a merge",
		seeds, merges, evalMerges, conflicts, relocated, spilled, patched)
	for name, n := range map[string]int{"submission merges": merges, "evaluation merges": evalMerges, "conflicts": conflicts,
		"relocated children": relocated, "spilled sets": spilled, "built indexes at a merge": patched} {
		if n == 0 {
			t.Errorf("the generator never produced %s", name)
		}
	}
}

// TestDiscardReachesEveryPendingChild: discarding a chain cancels every
// pending future hanging off it, however many were re-rooted onto one vertex
// (the walk once edited the successor list it was ranging over and skipped a
// sibling, which then could still merge — into a removed vertex).
func TestDiscardReachesEveryPendingChild(t *testing.T) {
	g := newEquivGraph(true, 2)
	g.submit(g.flows[0]) // F = flows[1]
	g.submit(g.flows[1]) // G = flows[2], nested in F
	for i := 0; i < 3; i++ {
		g.submit(g.flows[2]) // H1..H3 = flows[3..5], nested in G
	}
	// G's body ends and G serializes into F's vertex: its three pending
	// children are re-rooted there.
	g.top.lockG()
	g.top.unregister(g.flows[2].tx)
	g.top.unlockG()
	g.flows[2].done = true
	if v := g.settle(g.flows[2]); v[4] {
		t.Fatalf("G did not merge at submission: %v", v)
	}
	fv := g.flows[1].fut.vertex
	if len(fv.succs) != 4 {
		t.Fatalf("F's vertex has %d successors, want its continuation and three re-rooted futures", len(fv.succs))
	}
	g.top.lockG()
	g.top.discardChain(fv)
	g.top.unlockG()
	for i := 3; i <= 5; i++ {
		f := g.flows[i].fut
		if !f.isInvalidated() || !f.vertex.removed() {
			t.Errorf("pending future %d survived the discard of its ancestor (invalid=%v removed=%v)",
				i-2, f.isInvalidated(), f.vertex.removed())
		}
	}
}
