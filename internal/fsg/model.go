package fsg

import (
	"fmt"
)

// Kind enumerates abstract history operations.
type Kind int

const (
	// Read of Var, with Obs naming what was observed.
	Read Kind = iota
	// Write of Var, with a unique WID.
	Write
	// Submit of the future agent named Future.
	Submit
	// Eval of the future agent named Future.
	Eval
)

// Op is one operation in an agent's totally ordered stream. The end of the
// stream is the agent's (implicit) commit.
type Op struct {
	Kind   Kind
	Var    string
	WID    string // Write: unique write id
	Obs    string // Read: WID of an uncommitted in-top write, "c:<id>" for a committed version, "" for the initial value
	Future string // Submit/Eval: the future's agent name
}

// CommitRec records, in global commit order, a top-level transaction's
// commit: its id (referenced by "c:<id>" observations) and the variables it
// installed.
type CommitRec struct {
	Top  string
	ID   string
	Vars []string
}

// History is the abstract input of the FSG construction: per-agent op
// streams, the inclusion of each agent in a top-level transaction, and the
// global commit order.
type History struct {
	// Agents maps an agent name (a top-level transaction's main flow, or a
	// future) to its op stream.
	Agents map[string][]Op
	// Top maps each agent to the top-level transaction it is included in
	// (§3.4, "inclusion of operations in transactions"). An escaping future
	// serialized by its evaluator belongs to the evaluator's transaction.
	Top map[string]string
	// Commits is the global commit order of top-level transactions.
	Commits []CommitRec
	// Order lists pairs (a, b) of agents whose top-level transactions must
	// serialize a before b whatever the data says: the session order of a
	// client that saw a answered before it issued b.
	Order [][2]string
}

// Semantics selects which ordering constraints Build encodes.
type Semantics int

const (
	// None adds no ordering constraint beyond submission/evaluation edges
	// (Figures 5a/5b).
	None Semantics = iota
	// WOsem adds, per evaluated future, the bipath of the two admissible
	// serialization points (Figure 5d).
	WOsem
	// SOsem adds, per future, the edge forcing serialization at submission
	// (Figure 5c).
	SOsem
)

// vinfo is the per-vertex data accumulated during segmentation.
type vinfo struct {
	agent  string
	reads  []Op
	writes []Op
}

// builder carries the intermediate construction state.
type builder struct {
	h     History
	p     *Polygraph
	info  map[string]*vinfo
	seq   map[string][]string // agent -> vertex names in order
	spawn map[string]string   // future -> vertex containing its submit
	cbeg  map[string]string   // future -> V_C-begin
	evals map[string][]string // future -> V_eval vertices (in discovery order)
	cend  map[string]string   // future -> vertex preceding its first eval
	wloc  map[string]string   // write id -> vertex
	tops  map[string][]string // top-level transaction -> its vertices
	evCnt int
}

// Build constructs the FSG polygraph of h under the given semantics. The
// resulting polygraph accepts (is acyclic) iff the history is serializable
// under those semantics.
func Build(h History, sem Semantics) (*Polygraph, error) {
	b := &builder{
		h:     h,
		p:     NewPolygraph(),
		info:  make(map[string]*vinfo),
		seq:   make(map[string][]string),
		spawn: make(map[string]string),
		cbeg:  make(map[string]string),
		evals: make(map[string][]string),
		cend:  make(map[string]string),
		wloc:  make(map[string]string),
		tops:  make(map[string][]string),
	}
	if err := b.segment(); err != nil {
		return nil, err
	}
	for vname, vi := range b.info {
		top := h.Top[vi.agent]
		b.tops[top] = append(b.tops[top], vname)
	}
	b.structural(sem)
	for _, o := range h.Order {
		ta, oka := h.Top[o[0]]
		tb, okb := h.Top[o[1]]
		if !oka || !okb || ta == tb {
			return nil, fmt.Errorf("fsg: order pair %q -> %q needs agents of two top-level transactions", o[0], o[1])
		}
		b.allPairs(ta, tb)
	}
	if err := b.conflicts(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// vertexOf registers (once) a vertex and its bookkeeping record.
func (b *builder) vertexOf(name, agent string) *vinfo {
	b.p.AddVertex(name)
	vi, ok := b.info[name]
	if !ok {
		vi = &vinfo{agent: agent}
		b.info[name] = vi
		b.seq[agent] = append(b.seq[agent], name)
	}
	return vi
}

// segment splits every agent's stream into FSG vertices per §3.4: a vertex
// covers the ops from the agent's begin (or the previous boundary) up to and
// including the next submit/commit boundary; an eval starts a dedicated
// V_eval vertex that contains it.
func (b *builder) segment() error {
	for agent, ops := range b.h.Agents {
		if _, ok := b.h.Top[agent]; !ok {
			return fmt.Errorf("fsg: agent %q has no top-level inclusion", agent)
		}
		cur := "B(" + agent + ")"
		vi := b.vertexOf(cur, agent)
		for _, op := range ops {
			switch op.Kind {
			case Read:
				vi.reads = append(vi.reads, op)
			case Write:
				if op.WID == "" {
					return fmt.Errorf("fsg: write of %q in %q lacks a WID", op.Var, agent)
				}
				if _, dup := b.wloc[op.WID]; dup {
					return fmt.Errorf("fsg: duplicate WID %q", op.WID)
				}
				b.wloc[op.WID] = cur
				vi.writes = append(vi.writes, op)
			case Submit:
				if _, dup := b.spawn[op.Future]; dup {
					return fmt.Errorf("fsg: future %q submitted twice", op.Future)
				}
				b.spawn[op.Future] = cur
				cur = "CB(" + op.Future + ")"
				b.cbeg[op.Future] = cur
				vi = b.vertexOf(cur, agent)
			case Eval:
				prev := cur
				b.evCnt++
				cur = fmt.Sprintf("EV(%s)#%d", op.Future, b.evCnt)
				if _, seen := b.cend[op.Future]; !seen {
					b.cend[op.Future] = prev
				}
				b.evals[op.Future] = append(b.evals[op.Future], cur)
				vi = b.vertexOf(cur, agent)
			default:
				return fmt.Errorf("fsg: unknown op kind %d in %q", op.Kind, agent)
			}
		}
	}
	// Every submitted future must have an agent stream (possibly empty).
	for fut := range b.spawn {
		if _, ok := b.h.Agents[fut]; !ok {
			return fmt.Errorf("fsg: future %q has no agent stream", fut)
		}
	}
	for fut := range b.evals {
		if _, ok := b.spawn[fut]; !ok {
			return fmt.Errorf("fsg: future %q evaluated but never submitted", fut)
		}
	}
	return nil
}

// vend returns the last vertex of an agent's stream (V_end for futures).
func (b *builder) vend(agent string) string {
	s := b.seq[agent]
	return s[len(s)-1]
}

// structural adds program-order, spawn, evaluation, and semantics edges.
func (b *builder) structural(sem Semantics) {
	for _, seq := range b.seq {
		for i := 1; i < len(seq); i++ {
			b.p.AddEdge(seq[i-1], seq[i])
		}
	}
	for fut, sv := range b.spawn {
		// Transactional futures cannot be serialized before their submission.
		b.p.AddEdge(sv, "B("+fut+")")
	}
	for fut, evs := range b.evals {
		// ...nor after their evaluation.
		for _, ev := range evs {
			b.p.AddEdge(b.vend(fut), ev)
		}
	}
	switch sem {
	case SOsem:
		for fut := range b.spawn {
			b.p.AddEdge(b.vend(fut), b.cbeg[fut])
		}
	case WOsem:
		for fut := range b.spawn {
			if _, evaluated := b.evals[fut]; !evaluated {
				continue
			}
			// Either the continuation precedes the future (serialization upon
			// evaluation) or the future precedes its continuation
			// (serialization upon submission).
			b.p.AddBipath(b.cend[fut], "B("+fut+")", b.vend(fut), b.cbeg[fut])
		}
	}
}

// conflicts adds the data-dependency constraints.
func (b *builder) conflicts() error {
	// Per-variable write inventories.
	inTop := make(map[string]map[string][]string) // var -> top -> write vertices
	widVar := make(map[string]string)
	for vname, vi := range b.info {
		top := b.h.Top[vi.agent]
		for _, w := range vi.writes {
			m := inTop[w.Var]
			if m == nil {
				m = make(map[string][]string)
				inTop[w.Var] = m
			}
			m[top] = append(m[top], vname)
			widVar[w.WID] = w.Var
		}
	}

	commitPos := make(map[string]int) // commit id -> global position
	commitTop := make(map[string]string)
	verOrder := make(map[string][]string) // var -> commit ids in order
	for i, c := range b.h.Commits {
		if _, dup := commitPos[c.ID]; dup {
			return fmt.Errorf("fsg: duplicate commit id %q", c.ID)
		}
		commitPos[c.ID] = i
		commitTop[c.ID] = c.Top
		for _, v := range c.Vars {
			verOrder[v] = append(verOrder[v], c.ID)
		}
	}

	// Version order between top-level transactions: successive committed
	// versions of a variable order their writers wholesale.
	for _, ids := range verOrder {
		for i := 1; i < len(ids); i++ {
			a, bb := commitTop[ids[i-1]], commitTop[ids[i]]
			if a != bb {
				b.allPairs(a, bb)
			}
		}
	}

	for vname, vi := range b.info {
		top := b.h.Top[vi.agent]
		for _, r := range vi.reads {
			if err := b.readConstraints(vname, top, r, inTop, commitTop, verOrder); err != nil {
				return err
			}
		}
	}
	return nil
}

// readConstraints encodes the constraints induced by one read.
func (b *builder) readConstraints(
	rv, rtop string, r Op,
	inTop map[string]map[string][]string,
	commitTop map[string]string,
	verOrder map[string][]string,
) error {
	sameTopWrites := inTop[r.Var][rtop]

	if r.Obs != "" && r.Obs[0] != 'c' {
		// Observed an uncommitted in-top write.
		wv, ok := b.wloc[r.Obs]
		if !ok {
			return fmt.Errorf("fsg: read of %q observed unknown write %q", r.Var, r.Obs)
		}
		if b.h.Top[b.info[wv].agent] != rtop {
			return fmt.Errorf("fsg: read of %q observed uncommitted write %q of another top-level transaction", r.Var, r.Obs)
		}
		if wv != rv {
			b.p.AddEdge(wv, rv)
		}
		for _, ov := range sameTopWrites {
			if ov == wv || ov == rv {
				continue
			}
			// The interfering write is either before the observed one or
			// after the read (Papadimitriou's construction).
			b.p.AddBipath(ov, wv, rv, ov)
		}
		return nil
	}

	// Observed a committed version (or the initial value).
	var obsID string
	if r.Obs != "" {
		obsID = r.Obs[2:] // strip "c:"
		if _, ok := commitTop[obsID]; !ok {
			return fmt.Errorf("fsg: read of %q observed unknown commit %q", r.Var, r.Obs)
		}
	}
	// Order the reader against the committed writers of this variable.
	pos := -1
	for i, id := range verOrder[r.Var] {
		if id == obsID {
			pos = i
			break
		}
	}
	if obsID != "" && pos < 0 {
		return fmt.Errorf("fsg: commit %q did not install %q", obsID, r.Var)
	}
	for i, id := range verOrder[r.Var] {
		wtop := commitTop[id]
		if wtop == rtop {
			continue
		}
		if i <= pos {
			b.allPairs(wtop, rtop)
		} else {
			b.allPairs(rtop, wtop)
		}
	}
	// Any same-top write to the variable must come after this read, since
	// the read observed pre-transaction state.
	for _, ov := range sameTopWrites {
		if ov == rv {
			continue
		}
		b.p.AddEdge(rv, ov)
	}
	return nil
}

// allPairs adds edges from every vertex of top-level transaction a to every
// vertex of top-level transaction b ("atomicity between different top-level
// transactions", §3.4).
func (b *builder) allPairs(a, bb string) {
	for _, vname := range b.tops[a] {
		for _, wname := range b.tops[bb] {
			b.p.AddEdge(vname, wname)
		}
	}
}
