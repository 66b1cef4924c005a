package core

import (
	"errors"
	"fmt"
	"iter"
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
// verdict, every folded read/write set and every relocated child, and that
// every flow's visible-write index that counts as current equals its
// definition, a fresh walk of the flow's ancestor path.

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
		for b := range c.writes.All() {
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
		for b, obs := range c.reads.All() {
			if obs.ver == nil && int(obs.flow) == self {
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
			for b := range v.reads.All() {
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
			for b := range v.writes.All() {
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
		for b := range v.writes.All() {
			out[b] = struct{}{}
		}
	}
	return out
}

func refAddExtraPathWrites(f *Future, boxes map[*mvstm.VBox]struct{}) {
	if len(boxes) == 0 {
		return
	}
	for b := range boxes {
		f.extraPathWrites.Put(b, struct{}{})
		f.extraSum |= b.Summary()
	}
}

func refExtraConflict(f *Future, reads map[*mvstm.VBox]struct{}, rsum uint64) bool {
	if rsum&f.extraSum == 0 {
		return false
	}
	for b := range reads {
		if _, ok := f.extraPathWrites.Get(b); ok {
			return true
		}
	}
	return false
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
		for b := range c.writes.All() {
			acc[b] = struct{}{}
		}
	}
	for _, c := range cs {
		for b, we := range c.writes.All() {
			target.writes.Put(b, we)
		}
		for b, obs := range c.reads.All() {
			if _, ok := target.reads.Get(b); !ok {
				target.reads.Put(b, obs)
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
	t.pathGen.Add(1) // the paths below target changed
}

// refVisible is the definition of the flow's visible-write index: for each
// box, the write of the nearest proper ancestor of cur that wrote it.
func refVisible(cur *vertex) map[*mvstm.VBox]writeEntry {
	out := map[*mvstm.VBox]writeEntry{}
	for v := cur.pred; v != nil; v = v.pred {
		for b, we := range v.writes.All() {
			if _, ok := out[b]; !ok {
				out[b] = we
			}
		}
	}
	return out
}

// --- generator ---------------------------------------------------------------

// equivGraph is one of the two copies of a generated graph: `fresh` runs the
// code under test, the other the reference. Both are driven by the same
// operation sequence on separate engines, so vertex ids, flow numbers and
// write ids line up; boxes are compared by name.
type equivGraph struct {
	fresh   bool
	top     *topTx
	boxes   []*mvstm.VBox
	flows   []*equivFlow // every flow ever opened, index-aligned across copies
	swapped int          // merges whose target took over a chain vertex's read set
	absorbs int          // boundaries that folded a vertex into a current index
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
	g.noteAbsorb(fl)
	f := fl.tx.spawnLocked(nil)
	g.top.unlockG()
	g.flows = append(g.flows, &equivFlow{tx: f.ftx, fut: f, parent: fl})
}

func (g *equivGraph) boundary(fl *equivFlow) {
	g.top.lockG()
	g.noteAbsorb(fl)
	fl.tx.boundaryLocked()
	g.top.unlockG()
}

// current reports whether fl's index counts as current: built at the
// attempt's present path generation.
func (g *equivGraph) current(fl *equivFlow) bool {
	return fl.tx.visGen == g.top.pathGen.Load()
}

// noteAbsorb counts a boundary of fl that folds the vertex it leaves into a
// current index (absorbWrites) rather than leaving it to a rebuild.
func (g *equivGraph) noteAbsorb(fl *equivFlow) {
	if g.current(fl) {
		g.absorbs++
	}
}

// indexFault compares the index of every live flow whose index counts as
// current with its definition (refVisible) and describes the first that
// differs, or returns "".
func (g *equivGraph) indexFault() string {
	for i, fl := range g.flows {
		if fl.done || fl.gone || !g.current(fl) {
			continue
		}
		want := refVisible(fl.tx.cur)
		got := map[*mvstm.VBox]writeEntry{}
		for b, we := range fl.tx.vis.All() {
			got[b] = we
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("flow %d's current index differs from its definition:\n  index      %v\n  definition %v",
				i, fmtVis(got), fmtVis(want))
		}
	}
	return ""
}

func fmtVis(m map[*mvstm.VBox]writeEntry) map[string]string {
	out := make(map[string]string, len(m))
	for b, we := range m {
		out[b.Name] = fmtWrite(we)
	}
	return out
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
			g.noteSwap(f.vertex, f.vertex.pred, func() { t.mergeChain(f.vertex, f.vertex.pred, nil) })
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
			g.noteSwap(f.vertex, cur, func() { t.mergeChain(f.vertex, cur, cur) })
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

// noteSwap runs merge, the merge of the chain rooted at head into target,
// and counts it in g.swapped if target's read set ends up in the dense
// storage one of the chain's vertices held.
func (g *equivGraph) noteSwap(head, target *vertex, merge func()) {
	chainStore := map[any]bool{}
	for c := head; c != nil; c = c.next {
		if id, held, _ := c.reads.Storage(); held > 0 {
			chainStore[id] = true
		}
	}
	merge()
	if id, held, _ := target.reads.Storage(); held > 0 && chainStore[id] {
		g.swapped++
	}
}

// --- comparison ---------------------------------------------------------------

type equivVertex struct {
	Status        vstatus
	Flow          int
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

func boxNames[V any](all iter.Seq2[*mvstm.VBox, V]) []string {
	var out []string
	for b := range all {
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
// form two graphs over different boxes can be compared in. A removed
// vertex's reads are not rendered: a merge may hand its read set to the
// target and leave it the target's former entries (mvstm.BoxSet.Absorb), and
// nothing reads the set of a removed vertex again.
func (g *equivGraph) snapshot(t testing.TB) map[string]any {
	out := make(map[string]any)
	for _, v := range g.top.verts[:g.top.nverts] {
		ev := equivVertex{Status: v.status, Flow: v.flow, Pred: vid(v.pred), Next: vid(v.next),
			Reads: map[string]string{}, Writes: map[string]string{}}
		for _, s := range v.succs {
			ev.Succs = append(ev.Succs, s.id)
		}
		var rsum, wsum uint64
		if !v.removed() {
			for b, obs := range v.reads.All() {
				ev.Reads[b.Name] = fmtRead(obs)
				rsum |= b.Summary()
			}
		}
		for b, we := range v.writes.All() {
			ev.Writes[b.Name] = fmtWrite(we)
			wsum |= b.Summary()
		}
		if (!v.removed() && v.reads.Size() != len(ev.Reads)) || v.writes.Size() != len(ev.Writes) {
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
				vid(f.cont), f.isInvalidated(), boxNames(f.extraPathWrites.All()))
		}
		if fl.done || fl.gone {
			continue
		}
		// What the flow's next read of each box would resolve to.
		g.refresh(fl)
		vis := map[string]string{}
		for b, we := range fl.tx.vis.All() {
			vis[b.Name] = fmtWrite(we)
		}
		out[fmt.Sprintf("vis%02d", i)] = vis
	}
	if e := g.indexFault(); e != "" {
		t.Fatalf("after the snapshot's refresh, %s", e)
	}
	return out
}

func TestValidationEquivalence(t *testing.T) { validationEquivalence(t) }

// validationEquivalence is TestValidationEquivalence's body; the mutation
// ledger also runs it on broken validators (mutants_test.go).
func validationEquivalence(t testing.TB) {
	const (
		seeds    = 600
		nboxes   = 10
		maxVerts = 12
	)
	var merges, evalMerges, conflicts, relocated, spilled, current, absorbs, swapped int
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
					for bx := 0; bx <= mvstm.BoxSetInline+1; bx++ {
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
			case r < 85: // build a flow's index, so a merge has one to invalidate
				i := open[rng.Intn(len(open))]
				both(func(g *equivGraph) { g.refresh(g.flows[i]) })
			case r < 92: // a future's body ends
				if len(open) > 1 {
					i := open[1+rng.Intn(len(open)-1)]
					both(func(g *equivGraph) { g.flows[i].done = true })
				}
			default: // a finished future settles
				if len(finished) == 0 {
					continue
				}
				i := finished[rng.Intn(len(finished))]
				for _, fl := range a.flows {
					if !fl.done && !fl.gone && a.current(fl) {
						current++
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
			// Boundaries fold into current indexes incrementally: check them
			// after every step, not only once a merge made them stale.
			for _, g := range [...]*equivGraph{a, b} {
				if e := g.indexFault(); e != "" {
					t.Fatalf("seed %d step %d: %s", seed, step, e)
				}
			}
		}
		for _, fl := range a.flows {
			if fl.fut != nil && fl.fut.extraPathWrites.Size() > 0 {
				relocated++
			}
		}
		swapped += a.swapped
		absorbs += a.absorbs
		for _, v := range a.top.verts[:a.top.nverts] {
			if v.reads.Size() > mvstm.BoxSetInline || v.writes.Size() > mvstm.BoxSetInline {
				spilled++
			}
		}
		if sa, sb := a.snapshot(t), b.snapshot(t); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("seed %d: final graphs differ", seed)
		}
	}
	t.Logf("%d seeds: %d submission merges, %d evaluation merges, %d conflicts; %d relocated children, %d spilled sets, %d current indexes at a merge, %d boundaries into a current index, %d merges that swapped read sets",
		seeds, merges, evalMerges, conflicts, relocated, spilled, current, absorbs, swapped)
	for name, n := range map[string]int{"submission merges": merges, "evaluation merges": evalMerges, "conflicts": conflicts,
		"relocated children": relocated, "spilled sets": spilled, "current indexes at a merge": current,
		"boundaries into a current index": absorbs, "merges that swapped read sets": swapped} {
		if n == 0 {
			t.Errorf("the generator never produced %s", name)
		}
	}
}

// TestDiscardReachesEveryPendingChild: discarding a chain cancels every
// pending future hanging off it, however many were re-rooted onto one vertex
// (the walk once edited the successor list it was ranging over and skipped a
// sibling, which then could still merge — into a removed vertex).
func TestDiscardReachesEveryPendingChild(t *testing.T) { discardReachesEveryPendingChild(t) }

func discardReachesEveryPendingChild(t testing.TB) {
	g := newEquivGraph(true, 2)
	g.submit(g.flows[0]) // F = flows[1]
	g.submit(g.flows[1]) // G = flows[2], nested in F
	for i := 0; i < 3; i++ {
		g.submit(g.flows[2]) // H1..H3 = flows[3..5], nested in G
	}
	// G's body ends and G serializes into F's vertex: its three pending
	// children are re-rooted there.
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

// TestMergeNotesHiddenRead: a merge into a main-flow vertex notes the
// snapshot reads the fold hides from commit. The main flow's vertex reads b
// through a sibling future's write; the merged chain read b at the
// snapshot. The fold keeps the target's entry (mvstm.BoxSet.Absorb), and commit
// notes only the snapshot reads on the main chain, so unless the merge
// noted b, a commit to b by another transaction after the snapshot would go
// unseen and the attempt would not retry. The validators keep such a fold
// from arising in the executions the other tests generate; the graph is
// built by hand and the merge called directly.
func TestMergeNotesHiddenRead(t *testing.T) { mergeNotesHiddenRead(t) }

func mergeNotesHiddenRead(t testing.TB) {
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: GAC})
	b := stm.NewBoxNamed("b", 0)
	g := &equivGraph{fresh: true, top: sys.newTop(), boxes: []*mvstm.VBox{b}}
	g.flows = []*equivFlow{{tx: g.top.mainTx}}
	main := g.flows[0]

	g.submit(main) // C = flows[1], off the root
	chain := g.flows[1]
	chain.tx.Read(b) // at the snapshot: nothing has written b yet
	g.submit(main)   // S = flows[2], off the main flow's continuation
	sib := g.flows[2]
	sib.tx.Write(b, 1)
	sib.done, chain.done = true, true
	if v := g.settle(sib); v[4] {
		t.Fatalf("the sibling did not merge at submission: %v", v)
	}
	if got := main.tx.Read(b); got != 1 {
		t.Fatalf("the main flow read %v, want the sibling's write 1", got)
	}
	target := main.tx.cur
	if obs, ok := target.reads.Get(b); !ok || obs.ver != nil {
		t.Fatalf("the target's read of b is %+v, want one that observed a sub-transaction write", obs)
	}

	g.top.lockG()
	target.status = vICommitted
	g.top.mergeChain(chain.fut.vertex, target, target)
	main.tx.absorbWrites(target)
	main.tx.cur = g.top.newVertex(target.flow, target)
	g.top.unlockG()

	other := stm.Begin()
	other.Write(b, 2)
	if err := other.Commit(); err != nil {
		t.Fatalf("the concurrent commit to b failed: %v", err)
	}
	other.Release()
	if err := g.top.commit(); !errors.Is(err, mvstm.ErrConflict) {
		t.Errorf("commit returned %v after a concurrent commit to b: the merged chain's snapshot read of b, hidden by the fold, was not validated", err)
	}
}

// TestEscapeValidatesHiddenRead: a foreign evaluation judges an escaped
// chain's hidden entry by the snapshot read the fold hid under it, not only
// by the kept read of the chain's own write. The escapee's first vertex is
// given such an entry by hand after it settled (the validators keep the
// fold from arising, see TestMergeNotesHiddenRead); another transaction then
// commits the box, so the evaluation must re-execute the body.
func TestEscapeValidatesHiddenRead(t *testing.T) { escapeValidatesHiddenRead(t) }

func escapeValidatesHiddenRead(t testing.TB) {
	sys, stm := newSys(WO, GAC)
	b := stm.NewBoxNamed("b", 0)
	committed := make(chan struct{})
	var f *Future
	if err := sys.Atomic(func(tx *Tx) error {
		f = tx.Submit(func(*Tx) (any, error) {
			<-committed // still running when the spawner commits: it escapes
			return nil, nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(committed)
	<-f.settled.wait()
	v := f.vertex
	slot, _ := v.reads.Slot(b)
	*v.addRead(slot, b) = readObs{val: 1, flow: int32(f.flow), wid: sys.nextWID(), hidden: true}

	commitBox(t, stm, b, 2)
	if err := sys.Atomic(func(tx *Tx) error {
		_, err := tx.Evaluate(f)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().EscapeReexecutions.Load(); n != 1 {
		t.Errorf("%d re-executions after a concurrent commit to b, want 1: the escapee's hidden read of b was not validated", n)
	}
}

// TestCommitValidatesMergedReads: the top-level commit validates the
// snapshot reads a merge folded into the main chain where they sit, in the
// vertex the main flow has already left. A future reads x at the snapshot
// and merges at its submission point, the root; another transaction then
// commits x, so the attempt must fail validation and retry once.
func TestCommitValidatesMergedReads(t *testing.T) { commitValidatesMergedReads(t) }

func commitValidatesMergedReads(t testing.TB) {
	sys, stm := newSys(WO, LAC)
	x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		f := tx.Submit(func(ftx *Tx) (any, error) { return ftx.Read(x), nil })
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		tx.Write(y, 1)
		if attempts > 1 {
			return nil
		}
		root := tx.top.root
		if obs, ok := root.reads.Get(x); root == tx.cur || !ok || obs.ver == nil {
			t.Fatalf("the future's snapshot read of x is not in the root the main flow left (read %v %+v)", ok, obs)
		}
		other := stm.Begin()
		other.Write(x, 7)
		if err := other.Commit(); err != nil {
			t.Fatalf("the concurrent commit to x failed: %v", err)
		}
		other.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("the transaction committed after %d attempts, want 2: the merged snapshot read of x was not validated", attempts)
	}
}

// TestCommitValidatesErrorReads: a future's error reaches its evaluator and
// can steer what the transaction commits, so the snapshot reads the error
// was computed from are validated at commit although the future's chain is
// discarded. f evaluates g, which reads x and merges into f's chain; f
// returns an error because x is 0, and the main flow writes y on that
// error. A commit to x before the main flow's commits must make it retry.
func TestCommitValidatesErrorReads(t *testing.T) { commitValidatesErrorReads(t) }

func commitValidatesErrorReads(t testing.TB) {
	sys, stm := newSys(WO, LAC)
	x, y := stm.NewBoxNamed("x", 0), stm.NewBoxNamed("y", 0)
	errZero := errors.New("x is 0")
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		f := tx.Submit(func(ftx *Tx) (any, error) {
			g := ftx.Submit(func(gtx *Tx) (any, error) { return gtx.Read(x), nil })
			v, err := ftx.Evaluate(g)
			if err != nil {
				return nil, err
			}
			if v.(int) == 0 {
				return nil, errZero
			}
			return v, nil
		})
		if _, err := tx.Evaluate(f); !errors.Is(err, errZero) {
			return nil
		}
		tx.Write(y, 1)
		if attempts == 1 {
			commitBox(t, stm, x, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("the transaction committed after %d attempts, want 2: the read of x behind f's error was not validated", attempts)
	}
}

// TestCommitValidatesInlineErrorReads is the same rule on the other path
// that discards a chain whose error reaches the evaluator: a re-execution
// at the evaluation point. f's first run reads a at the snapshot and writes
// w. After f's submission the main flow reads w and writes a, so f can
// serialize neither at its submission nor at its evaluation, which re-runs
// it inline. That run sees the write of a, reads z and returns an error
// because z is 0; a commit to z must make the transaction retry.
func TestCommitValidatesInlineErrorReads(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	a, w, z, y := stm.NewBoxNamed("a", 0), stm.NewBoxNamed("w", 0), stm.NewBoxNamed("z", 0), stm.NewBoxNamed("y", 0)
	errZero := errors.New("z is 0")
	attempts := 0
	err := sys.Atomic(func(tx *Tx) error {
		attempts++
		if attempts > 1 {
			return nil
		}
		started, proceed := make(chan struct{}), make(chan struct{})
		runs := 0
		f := tx.Submit(func(ftx *Tx) (any, error) {
			if runs++; runs == 1 {
				close(started)
				<-proceed
			}
			if ftx.Read(a).(int) == 0 {
				ftx.Write(w, 1)
				return nil, nil
			}
			if ftx.Read(z).(int) == 0 {
				return nil, errZero
			}
			return nil, nil
		})
		<-started
		tx.Read(w)
		tx.Write(a, 1)
		tx.Submit(func(*Tx) (any, error) { return nil, nil }) // the sub-transaction ends
		close(proceed)
		<-f.settled.wait()
		before := sys.stats.FutureReexecutions.Load()
		if _, err := tx.Evaluate(f); !errors.Is(err, errZero) {
			t.Fatalf("the evaluation returned %v, want the re-execution's error", err)
		}
		if sys.stats.FutureReexecutions.Load() != before+1 {
			t.Fatalf("f was not re-executed at its evaluation")
		}
		tx.Write(y, 1)
		commitBox(t, stm, z, 7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("the transaction committed after %d attempts, want 2: the re-execution's read of z was not validated", attempts)
	}
}

// commitBox commits b = v in a transaction of its own.
func commitBox(t testing.TB, stm *mvstm.STM, b *mvstm.VBox, v int) {
	other := stm.Begin()
	other.Write(b, v)
	if err := other.Commit(); err != nil {
		t.Fatalf("the concurrent commit to %s failed: %v", b.Name, err)
	}
	other.Release()
}
