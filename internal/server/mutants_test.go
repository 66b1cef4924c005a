//go:build mutants

package server

import (
	"fmt"
	"testing"

	"wtftm"
	"wtftm/internal/mutant"
)

// TestMutantsCaught: with each of this package's ledger entries active, the
// detector built for it reports it — a served-history violation from
// TestServedHistoryConformance's workload, or a resend answered before its
// original's barrier (TestAckRuleReplayWaitsForBarrier).
func TestMutantsCaught(t *testing.T) {
	served := func(t *testing.T) string {
		for _, ord := range []wtftm.Ordering{wtftm.WO, wtftm.SO} {
			if v := servedHistoryViolations(t, ord); len(v) > 0 {
				return fmt.Sprintf("%v: served history violation: %s", ord, v[0])
			}
		}
		return ""
	}
	detectors := map[mutant.ID]func(*testing.T) string{
		mutant.UnlockBeforeLog:         served,
		mutant.FastGetIgnoresWatermark: served,
		mutant.ReplayBeforeBarrier:     replayBeforeBarrier,
	}
	for _, e := range mutant.Table {
		if e.Pkg != "server" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			detect, ok := detectors[e.ID]
			if !ok {
				t.Fatal("no detector for this entry")
			}
			mutant.Active = e.ID
			defer func() { mutant.Active = 0 }()
			report := detect(t)
			if report == "" {
				t.Fatal("the detector made no report")
			}
			t.Logf("caught: %s", report)
		})
	}
}
