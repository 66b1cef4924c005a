//go:build mutants

package conform

import (
	"testing"

	"wtftm/internal/core"
	"wtftm/internal/mutant"
)

// TestMutantsCaught: with each of this package's ledger entries active, the
// DFS explorer finds an FSG cycle within the smoke budget, shrinking does
// not grow it, and the shrunk schedule replays it deterministically.
func TestMutantsCaught(t *testing.T) {
	sweeps := map[mutant.ID]core.Ordering{
		mutant.SkipBackwardValidation: core.WO,
		mutant.ClaimAtEvaluation:      core.SO,
	}
	for _, e := range mutant.Table {
		if e.Pkg != "conform" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			ord, ok := sweeps[e.ID]
			if !ok {
				t.Fatal("no detector for this entry")
			}
			mutant.Active = e.ID
			defer func() { mutant.Active = 0 }()
			var found *Violation
			for seed := int64(1); seed <= 8 && found == nil; seed++ {
				p := Params{
					Ordering: ord, Atomicity: core.LAC,
					Threads: 1, TxPerThread: 1, OpsPerTx: 6, Boxes: 2, MaxFutures: 2, Depth: 1,
					Seed: seed,
				}
				found, _ = ExploreDFS(p, 300, testTimeout)
			}
			if found == nil {
				t.Fatal("no violation within the smoke budget")
			}
			if found.Kind != "fsg-cycle" {
				t.Fatalf("unexpected violation kind %q: %s", found.Kind, found)
			}
			shrunk := Shrink(found, 200, testTimeout)
			if shrunk.Params.Threads > found.Params.Threads || shrunk.Params.OpsPerTx > found.Params.OpsPerTx {
				t.Fatalf("shrinking grew the repro: %s", shrunk)
			}
			reproduced, deterministic := Replay(shrunk, testTimeout)
			if !deterministic {
				t.Fatalf("shrunk schedule does not replay deterministically: %s", shrunk)
			}
			if !reproduced {
				t.Fatalf("shrunk schedule does not reproduce the violation: %s", shrunk)
			}
		})
	}
}

// TestMutantsSweep keeps the table's Sweep column true: for every engine
// site, the wtfconform DFS sweeps scripts/ci.sh runs on the clean engine
// report a violation exactly when the entry says they do.
func TestMutantsSweep(t *testing.T) {
	for _, e := range mutant.Table {
		if e.Pkg == "server" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			mutant.Active = e.ID
			defer func() { mutant.Active = 0 }()
			v := ciSweeps()
			if caught := v != nil; caught != e.Sweep {
				t.Fatalf("the sweeps report a violation: %v, the table says %v\n%v", caught, e.Sweep, v)
			}
			if v != nil {
				t.Logf("caught: %s", v)
			}
		})
	}
}

// ciSweeps runs scripts/ci.sh's wtfconform -mode dfs -budget 300 sweeps —
// the smoke sweep over seeds 1-8 and the nested one at depth 2 and 3 over
// seeds 1-16, each under every ordering and atomicity, and the sweep of two
// drivers running two top-level transactions each over seeds 1-16, under
// every ordering and LAC — and returns the first violation.
func ciSweeps() *Violation {
	both := []core.Atomicity{core.LAC, core.GAC}
	for _, sw := range []struct {
		ops, futures, depth, threads, txns int
		seeds                              int64
		atoms                              []core.Atomicity
	}{
		{6, 2, 1, 1, 1, 8, both},
		{8, 3, 2, 1, 1, 16, both},
		{8, 3, 3, 1, 1, 16, both},
		{6, 2, 1, 2, 2, 16, []core.Atomicity{core.LAC}},
	} {
		for _, ord := range []core.Ordering{core.WO, core.SO} {
			for _, atom := range sw.atoms {
				for seed := int64(1); seed <= sw.seeds; seed++ {
					p := Params{
						Ordering: ord, Atomicity: atom,
						Threads: sw.threads, TxPerThread: sw.txns, OpsPerTx: sw.ops, Boxes: 2, MaxFutures: sw.futures, Depth: sw.depth,
						Seed: seed,
					}
					if v, _ := ExploreDFS(p, 300, testTimeout); v != nil {
						return v
					}
				}
			}
		}
	}
	return nil
}
