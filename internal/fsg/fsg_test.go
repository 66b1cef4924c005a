package fsg

import (
	"strings"
	"testing"
)

func TestPolygraphAcyclicPlain(t *testing.T) {
	p := NewPolygraph()
	p.AddEdge("a", "b")
	p.AddEdge("b", "c")
	if !p.Acyclic() {
		t.Fatal("chain reported cyclic")
	}
	order, ok := p.Witness()
	if !ok || len(order) != 3 {
		t.Fatalf("witness = %v, %v", order, ok)
	}
	if order[0] != "a" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if cyc := p.Cycle(); cyc != nil {
		t.Fatalf("chain has a cycle %v", cyc)
	}
}

func TestPolygraphCyclePlain(t *testing.T) {
	p := NewPolygraph()
	p.AddEdge("a", "b")
	p.AddEdge("b", "c")
	p.AddEdge("c", "a")
	if p.Acyclic() {
		t.Fatal("cycle not detected")
	}
	p.AddEdge("c", "d")
	if cyc := strings.Join(p.Cycle(), ","); cyc != "a,b,c" {
		t.Fatalf("cycle = %s, want a,b,c", cyc)
	}
}

func TestPolygraphBipathChoice(t *testing.T) {
	// a -> b mandatory; bipath (b->a | a->c): the first arm closes a cycle,
	// so the second must be chosen.
	p := NewPolygraph()
	p.AddEdge("a", "b")
	p.AddBipath("b", "a", "a", "c")
	order, ok := p.Witness()
	if !ok {
		t.Fatal("satisfiable polygraph rejected")
	}
	if order[0] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestPolygraphBipathBothCyclic(t *testing.T) {
	p := NewPolygraph()
	p.AddEdge("a", "b")
	p.AddEdge("c", "a")
	p.AddBipath("b", "a", "b", "c")
	if p.Acyclic() {
		t.Fatal("unsatisfiable polygraph accepted")
	}
}

func TestPolygraphManyBipaths(t *testing.T) {
	// n independent bipaths where only the second arm is consistent.
	p := NewPolygraph()
	p.AddEdge("x", "y")
	for i := 0; i < 12; i++ {
		a := string(rune('a' + i))
		p.AddEdge(a+"1", a+"2")
		p.AddBipath(a+"2", a+"1", a+"1", "x")
	}
	if !p.Acyclic() {
		t.Fatal("satisfiable polygraph rejected")
	}
}

func TestPolygraphDedupEdges(t *testing.T) {
	p := NewPolygraph()
	p.AddEdge("a", "b")
	p.AddEdge("a", "b")
	if p.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", p.NumEdges())
	}
}

// fig1aHistory builds the history of Figure 1a.
func fig1aHistory() History {
	return History{
		Agents: map[string][]Op{
			"T": {
				{Kind: Write, Var: "x", WID: "w1"},
				{Kind: Submit, Future: "TF"},
				{Kind: Read, Var: "x", Obs: "w1"},
				{Kind: Write, Var: "x", WID: "w2"},
				{Kind: Eval, Future: "TF"},
				{Kind: Read, Var: "x", Obs: "w3"},
				{Kind: Write, Var: "y", WID: "w4"},
			},
			"TF": {
				{Kind: Read, Var: "x", Obs: "w2"},
				{Kind: Write, Var: "x", WID: "w3"},
			},
		},
		Top:     map[string]string{"T": "T", "TF": "T"},
		Commits: []CommitRec{{Top: "T", ID: "c1", Vars: []string{"x", "y"}}},
	}
}

// TestFig5aStructure checks the vertex/edge structure of Figure 5a.
func TestFig5aStructure(t *testing.T) {
	p, err := Build(fig1aHistory(), None)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"B(T)", "B(TF)", "CB(TF)", "EV(TF)#1"} {
		if p.Vertex(v) < 0 {
			t.Fatalf("missing vertex %s; have %v", v, p.Vertices())
		}
	}
	// Program order, spawn and end edges.
	for _, e := range [][2]string{
		{"B(T)", "CB(TF)"}, {"CB(TF)", "EV(TF)#1"}, // thread order
		{"B(T)", "B(TF)"},     // spawn
		{"B(TF)", "EV(TF)#1"}, // end -> eval
	} {
		if !p.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %s -> %s", e[0], e[1])
		}
	}
	if !p.Acyclic() {
		t.Fatal("Fig 5a FSG must be acyclic")
	}
}

// TestFig5cSOEdge: the SO semantics add V_end(TF) -> V_C-begin(TF).
func TestFig5cSOEdge(t *testing.T) {
	// Under SO, the history where the future reads the continuation's write
	// (w2) is contradictory: the future must precede its continuation.
	p, err := Build(fig1aHistory(), SOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasEdge("B(TF)", "CB(TF)") {
		t.Fatal("missing SO edge V_end(TF) -> V_C-begin(TF)")
	}
	if p.Acyclic() {
		t.Fatal("future observed its continuation's write; SO must reject")
	}

	// The SO-consistent variant: the future reads the pre-submission write
	// and the continuation reads the future's write.
	h := fig1aHistory()
	h.Agents["TF"] = []Op{
		{Kind: Read, Var: "x", Obs: "w1"},
		{Kind: Write, Var: "x", WID: "w3"},
	}
	h.Agents["T"] = []Op{
		{Kind: Write, Var: "x", WID: "w1"},
		{Kind: Submit, Future: "TF"},
		{Kind: Read, Var: "x", Obs: "w3"},
		{Kind: Write, Var: "x", WID: "w2"},
		{Kind: Eval, Future: "TF"},
		{Kind: Read, Var: "x", Obs: "w2"},
		{Kind: Write, Var: "y", WID: "w4"},
	}
	p, err = Build(h, SOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("SO-consistent history rejected")
	}
}

// TestFig1aWOBothOrders: WO accepts the future serialized on either side of
// its continuation.
func TestFig1aWOBothOrders(t *testing.T) {
	// Future after continuation (serialized upon evaluation).
	p, err := Build(fig1aHistory(), WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("WO rejected serialization upon evaluation")
	}
	order, _ := p.Witness()
	idx := func(v string) int {
		for i, x := range order {
			if x == v {
				return i
			}
		}
		return -1
	}
	if idx("B(TF)") < idx("CB(TF)") {
		t.Fatalf("witness %v must place the future after its continuation", order)
	}
}

// TestFig2Semantics: the history of Figure 2 is WO-acceptable but
// SO-rejectable.
func TestFig2Semantics(t *testing.T) {
	h := History{
		Agents: map[string][]Op{
			"T": {
				{Kind: Submit, Future: "TF"},
				{Kind: Read, Var: "z", Obs: ""}, // r(z=0): missed the future's write
				{Kind: Write, Var: "y", WID: "w1"},
				{Kind: Eval, Future: "TF"},
			},
			"TF": {
				{Kind: Read, Var: "x", Obs: ""},
				{Kind: Write, Var: "z", WID: "w2"},
			},
		},
		Top:     map[string]string{"T": "T", "TF": "T"},
		Commits: []CommitRec{{Top: "T", ID: "c1", Vars: []string{"y", "z"}}},
	}
	pWO, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !pWO.Acyclic() {
		t.Fatal("Fig 2 history must be acceptable under WO")
	}
	pSO, err := Build(h, SOsem)
	if err != nil {
		t.Fatal(err)
	}
	if pSO.Acyclic() {
		t.Fatal("Fig 2 history must be rejected under SO (continuation aborts)")
	}
}

// TestFig5dEscapingBipath models Figure 1c/5d: an escaping future whose
// continuation spans two top-level transactions under GAC.
func TestFig5dEscapingBipath(t *testing.T) {
	h := History{
		Agents: map[string][]Op{
			"T1": {
				{Kind: Read, Var: "x", Obs: ""},
				{Kind: Write, Var: "z", WID: "w1"},
				{Kind: Submit, Future: "TF"},
				{Kind: Write, Var: "x", WID: "w2"},
				{Kind: Read, Var: "y", Obs: ""},
			},
			"T2": {
				{Kind: Read, Var: "x", Obs: "c:c1"},
				{Kind: Eval, Future: "TF"},
				{Kind: Write, Var: "z", WID: "w3"},
			},
			"TF": {
				{Kind: Read, Var: "z", Obs: "c:c1"},
				{Kind: Write, Var: "y", WID: "w4"},
			},
		},
		// The escaping future is included in its evaluating transaction.
		Top: map[string]string{"T1": "T1", "T2": "T2", "TF": "T2"},
		Commits: []CommitRec{
			{Top: "T1", ID: "c1", Vars: []string{"x", "z"}},
			{Top: "T2", ID: "c2", Vars: []string{"y", "z"}},
		},
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBipaths() == 0 {
		t.Fatal("expected a WO bipath for the escaping future")
	}
	if !p.Acyclic() {
		t.Fatal("Fig 1c GAC history must be acceptable under WO")
	}
}

// TestTornContinuationRejected: a future observing only one of two writes
// that belong to its continuation is not serializable under any semantics.
func TestTornContinuationRejected(t *testing.T) {
	h := History{
		Agents: map[string][]Op{
			"T": {
				{Kind: Submit, Future: "TF"},
				{Kind: Write, Var: "x", WID: "w1"},
				{Kind: Write, Var: "y", WID: "w2"},
				{Kind: Eval, Future: "TF"},
			},
			"TF": {
				{Kind: Read, Var: "x", Obs: "w1"}, // saw the continuation's x...
				{Kind: Read, Var: "y", Obs: ""},   // ...but not its y
			},
		},
		Top:     map[string]string{"T": "T", "TF": "T"},
		Commits: []CommitRec{{Top: "T", ID: "c1", Vars: []string{"x", "y"}}},
	}
	for _, sem := range []Semantics{None, WOsem, SOsem} {
		p, err := Build(h, sem)
		if err != nil {
			t.Fatal(err)
		}
		if p.Acyclic() {
			t.Fatalf("torn continuation accepted under semantics %d", sem)
		}
	}
}

// TestFig4BeyondForkJoin: the overlapping-continuation computation of Fig. 4
// is acceptable when each future sees a consistent prefix.
func TestFig4BeyondForkJoin(t *testing.T) {
	h := History{
		Agents: map[string][]Op{
			"T0": {
				{Kind: Submit, Future: "TF1"},
				{Kind: Write, Var: "x", WID: "w1"},
				{Kind: Submit, Future: "TF2"},
				{Kind: Write, Var: "y", WID: "w2"},
				{Kind: Write, Var: "z", WID: "w3"},
				{Kind: Eval, Future: "TF2"},
				{Kind: Eval, Future: "TF1"},
			},
			"TF1": {
				{Kind: Read, Var: "x", Obs: ""},
				{Kind: Read, Var: "y", Obs: ""},
			},
			"TF2": {
				{Kind: Read, Var: "y", Obs: "w2"},
				{Kind: Read, Var: "z", Obs: "w3"},
			},
		},
		Top:     map[string]string{"T0": "T0", "TF1": "T0", "TF2": "T0"},
		Commits: []CommitRec{{Top: "T0", ID: "c1", Vars: []string{"x", "y", "z"}}},
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("Fig 4 history must be acceptable under WO")
	}
	// TF2 seeing y but not z would be torn.
	h.Agents["TF2"] = []Op{
		{Kind: Read, Var: "y", Obs: "w2"},
		{Kind: Read, Var: "z", Obs: ""},
	}
	p, err = Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if p.Acyclic() {
		t.Fatal("torn Fig 4 history accepted")
	}
}

func TestInterTopAntiDependency(t *testing.T) {
	// T1 reads x's initial value and writes y; T2 overwrites x before T1
	// commits; the reader must be serializable before the writer.
	h := History{
		Agents: map[string][]Op{
			"T1": {
				{Kind: Read, Var: "x", Obs: ""},
				{Kind: Write, Var: "y", WID: "w1"},
			},
			"T2": {
				{Kind: Write, Var: "x", WID: "w2"},
			},
		},
		Top: map[string]string{"T1": "T1", "T2": "T2"},
		Commits: []CommitRec{
			{Top: "T2", ID: "c1", Vars: []string{"x"}},
			{Top: "T1", ID: "c2", Vars: []string{"y"}},
		},
	}
	p, err := Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Acyclic() {
		t.Fatal("snapshot-isolated readers must serialize before later writers")
	}
	if !p.HasEdge("B(T1)", "B(T2)") {
		t.Fatal("missing inter-top anti-dependency edge")
	}

	// A client that saw T2 answered before it issued T1 orders them the
	// other way: T1 then read a stale x.
	h.Order = [][2]string{{"T2", "T1"}}
	p, err = Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if p.Acyclic() {
		t.Fatal("stale read after the session's own earlier write accepted")
	}
	if cyc := p.Cycle(); len(cyc) != 2 {
		t.Fatalf("cycle = %v, want B(T1) and B(T2)", cyc)
	}
	h.Order = nil

	// If T1 had also observed T2's x, the orders contradict.
	h.Agents["T1"] = []Op{
		{Kind: Read, Var: "x", Obs: ""},
		{Kind: Read, Var: "x", Obs: "c:c1"}, // inconsistent snapshot
		{Kind: Write, Var: "y", WID: "w1"},
	}
	p, err = Build(h, WOsem)
	if err != nil {
		t.Fatal(err)
	}
	if p.Acyclic() {
		t.Fatal("inconsistent snapshot accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		h    History
		want string
	}{
		{
			name: "missing inclusion",
			h: History{
				Agents: map[string][]Op{"T": {{Kind: Read, Var: "x"}}},
				Top:    map[string]string{},
			},
			want: "no top-level inclusion",
		},
		{
			name: "unknown observed write",
			h: History{
				Agents: map[string][]Op{"T": {{Kind: Read, Var: "x", Obs: "w9"}}},
				Top:    map[string]string{"T": "T"},
			},
			want: "unknown write",
		},
		{
			name: "missing future agent",
			h: History{
				Agents: map[string][]Op{"T": {{Kind: Submit, Future: "F"}}},
				Top:    map[string]string{"T": "T"},
			},
			want: "no agent stream",
		},
		{
			name: "duplicate wid",
			h: History{
				Agents: map[string][]Op{"T": {
					{Kind: Write, Var: "x", WID: "w1"},
					{Kind: Write, Var: "y", WID: "w1"},
				}},
				Top: map[string]string{"T": "T"},
			},
			want: "duplicate WID",
		},
		{
			name: "order within one top",
			h: History{
				Agents: map[string][]Op{"T": {{Kind: Submit, Future: "F"}}, "F": nil},
				Top:    map[string]string{"T": "T", "F": "T"},
				Order:  [][2]string{{"T", "F"}},
			},
			want: "two top-level transactions",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.h, WOsem)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want contains %q", err, tc.want)
			}
		})
	}
}
