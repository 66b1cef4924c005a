// Package fsg implements the Future Serialization Graph of §3.4 of the
// paper: a polygraph (Papadimitriou, JACM '79) over sub-transaction
// vertices. Plain edges encode mandatory ordering constraints (program
// order, spawn, evaluation, observed conflicts); bipaths encode exclusive
// alternatives (the two admissible serialization points of a weakly ordered
// future, and the two legal placements of a write relative to a read that
// did not observe it). A history is accepted iff at least one digraph
// encoded by the polygraph is acyclic.
package fsg

import (
	"fmt"
	"sort"
)

// Edge is a directed constraint between two vertices, by index.
type Edge struct {
	From, To int
}

// Bipath is an exclusive disjunction of two edges: at least one of A and B
// must hold in any serialization witness.
type Bipath struct {
	A, B Edge
}

// Polygraph is a set of vertices, mandatory edges and bipaths.
type Polygraph struct {
	names   []string
	index   map[string]int
	edges   []Edge
	edgeSet map[Edge]bool
	bipaths []Bipath
}

// NewPolygraph returns an empty polygraph.
func NewPolygraph() *Polygraph {
	return &Polygraph{index: make(map[string]int), edgeSet: make(map[Edge]bool)}
}

// AddVertex ensures a vertex named id exists and returns its index.
func (p *Polygraph) AddVertex(id string) int {
	if i, ok := p.index[id]; ok {
		return i
	}
	i := len(p.names)
	p.names = append(p.names, id)
	p.index[id] = i
	return i
}

// Vertex returns the index of id, or -1.
func (p *Polygraph) Vertex(id string) int {
	if i, ok := p.index[id]; ok {
		return i
	}
	return -1
}

// Vertices returns the vertex names in insertion order.
func (p *Polygraph) Vertices() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// AddEdge adds the mandatory constraint from → to (vertices are created as
// needed). Self-loops are rejected with a panic: they indicate a broken
// construction, not an unserializable history.
func (p *Polygraph) AddEdge(from, to string) {
	f, t := p.AddVertex(from), p.AddVertex(to)
	if f == t {
		panic(fmt.Sprintf("fsg: self-loop on %q", from))
	}
	e := Edge{From: f, To: t}
	if !p.edgeSet[e] {
		p.edgeSet[e] = true
		p.edges = append(p.edges, e)
	}
}

// HasEdge reports whether the mandatory edge from → to exists.
func (p *Polygraph) HasEdge(from, to string) bool {
	f, t := p.Vertex(from), p.Vertex(to)
	if f < 0 || t < 0 {
		return false
	}
	return p.edgeSet[Edge{From: f, To: t}]
}

// AddBipath adds the disjunction (aFrom→aTo) ∨ (bFrom→bTo). If either edge
// would be a self-loop it is dropped from the disjunction; if both are, the
// bipath is vacuous and ignored; if one is, the other becomes mandatory.
func (p *Polygraph) AddBipath(aFrom, aTo, bFrom, bTo string) {
	af, at := p.AddVertex(aFrom), p.AddVertex(aTo)
	bf, bt := p.AddVertex(bFrom), p.AddVertex(bTo)
	aOK, bOK := af != at, bf != bt
	switch {
	case aOK && bOK:
		p.bipaths = append(p.bipaths, Bipath{A: Edge{af, at}, B: Edge{bf, bt}})
	case aOK:
		p.AddEdge(aFrom, aTo)
	case bOK:
		p.AddEdge(bFrom, bTo)
	}
}

// NumBipaths returns the number of registered disjunctions.
func (p *Polygraph) NumBipaths() int { return len(p.bipaths) }

// NumEdges returns the number of mandatory edges.
func (p *Polygraph) NumEdges() int { return len(p.edges) }

// adjacency builds successor lists for the given extra edges on top of the
// mandatory ones.
func (p *Polygraph) adjacency(extra []Edge) [][]int {
	adj := make([][]int, len(p.names))
	add := func(e Edge) { adj[e.From] = append(adj[e.From], e.To) }
	for _, e := range p.edges {
		add(e)
	}
	for _, e := range extra {
		add(e)
	}
	return adj
}

// cycle returns the vertices of one cycle of the digraph with the given
// adjacency, in edge order, or nil if it has none.
func cycle(adj [][]int) []int {
	const (
		white  = 0
		onPath = 1
		done   = 2
	)
	color := make([]int8, len(adj))
	type frame struct{ v, next int }
	var path []frame
	for s := range adj {
		if color[s] != white {
			continue
		}
		color[s] = onPath
		path = append(path[:0], frame{v: s})
		for len(path) > 0 {
			f := &path[len(path)-1]
			if f.next == len(adj[f.v]) {
				color[f.v] = done
				path = path[:len(path)-1]
				continue
			}
			w := adj[f.v][f.next]
			f.next++
			switch color[w] {
			case white:
				color[w] = onPath
				path = append(path, frame{v: w})
			case onPath:
				i := len(path) - 1
				for path[i].v != w {
					i--
				}
				cyc := make([]int, 0, len(path)-i)
				for _, fr := range path[i:] {
					cyc = append(cyc, fr.v)
				}
				return cyc
			}
		}
	}
	return nil
}

// Acyclic reports whether some digraph encoded by the polygraph is acyclic,
// i.e. whether the history it models is (view-)serializable under the
// encoded semantics.
func (p *Polygraph) Acyclic() bool {
	_, ok := p.Witness()
	return ok
}

// Cycle returns the vertices of one cycle formed by the mandatory edges
// alone, in edge order, or nil if they form none. For a polygraph without
// bipaths that cycle is why Acyclic reports false.
func (p *Polygraph) Cycle() []string {
	var names []string
	for _, v := range cycle(p.adjacency(nil)) {
		names = append(names, p.names[v])
	}
	return names
}

// Witness returns a topological order of the vertices of some acyclic
// digraph encoded by the polygraph, or ok == false if every bipath
// selection is cyclic. The search backtracks over bipath selections with
// forced-choice propagation.
func (p *Polygraph) Witness() ([]string, bool) {
	if cycle(p.adjacency(nil)) != nil {
		return nil, false
	}
	chosen := make([]Edge, 0, len(p.bipaths))
	if !p.choose(0, &chosen) {
		return nil, false
	}
	order := p.topoOrder(chosen)
	return order, order != nil
}

func (p *Polygraph) choose(i int, chosen *[]Edge) bool {
	if i == len(p.bipaths) {
		return true
	}
	bp := p.bipaths[i]
	for _, e := range []Edge{bp.A, bp.B} {
		*chosen = append(*chosen, e)
		if cycle(p.adjacency(*chosen)) == nil && p.choose(i+1, chosen) {
			return true
		}
		*chosen = (*chosen)[:len(*chosen)-1]
	}
	return false
}

// topoOrder returns a stable topological order of the digraph formed by the
// mandatory edges plus the chosen bipath edges, or nil if it is cyclic.
func (p *Polygraph) topoOrder(extra []Edge) []string {
	n := len(p.names)
	indeg := make([]int, n)
	adj := p.adjacency(extra)
	for _, succ := range adj {
		for _, w := range succ {
			indeg[w]++
		}
	}
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	sort.Ints(ready)
	var order []string
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, p.names[v])
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
		sort.Ints(ready)
	}
	if len(order) != n {
		return nil
	}
	return order
}
