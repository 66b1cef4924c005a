//go:build mutants

package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wtftm/internal/mutant"
)

// report stands in for a detector's *testing.T and collects what it
// reports, so that a mutant counts as caught only by the report its
// detector exists to make.
type report struct {
	testing.TB
	msgs []string
}

func (r *report) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}
func (r *report) Fatalf(format string, args ...any) { r.Errorf(format, args...); r.FailNow() }
func (r *report) FailNow()                          { runtime.Goexit() }

// TestMutantsCaught: with each of this package's ledger entries active, its
// detector reports it.
func TestMutantsCaught(t *testing.T) {
	detectors := map[mutant.ID]struct {
		run  func(testing.TB)
		want string
	}{
		mutant.DiscardSkipsSibling:      {discardReachesEveryPendingChild, "survived the discard"},
		mutant.ForwardSkipsFutureChains: {validationEquivalence, "verdicts differ"},
		mutant.MergeDropsPathWrites:     {validationEquivalence, "differs"},
		mutant.AbsorbDropsTargetReads:   {validationEquivalence, "differs"},
		mutant.MergeNotesNoHiddenRead:   {mergeNotesHiddenRead, "was not validated"},
		mutant.CommitSkipsMergedReads:   {commitValidatesMergedReads, "was not validated"},
		mutant.ErrorDropsChainReads:     {commitValidatesErrorReads, "was not validated"},
		mutant.EscapeIgnoresHidden:      {escapeValidatesHiddenRead, "was not validated"},
		mutant.ForeignErrorUnchecked:    {foreignEvaluationRevalidatesError, "was not revalidated"},
		mutant.ReadUnpublished:          {fig2SOAbortsContinuation, "SO continuation conflict"},
		mutant.DecisionAnywhere: {func(t testing.TB) { foreignDecisionDiscardedWithItsChain(t, false) },
			"did not commit exactly once"},
		mutant.MergeKeepsGeneration: {validationEquivalence, "differs from its definition"},
	}
	for _, e := range mutant.Table {
		if e.Pkg != "core" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			d, ok := detectors[e.ID]
			if !ok {
				t.Fatal("no detector for this entry")
			}
			mutant.Active = e.ID
			defer func() { mutant.Active = 0 }()
			r := &report{TB: t}
			done := make(chan struct{})
			go func() {
				defer close(done)
				d.run(r)
			}()
			<-done
			for _, m := range r.msgs {
				if strings.Contains(m, d.want) {
					t.Logf("caught: %s", m)
					return
				}
			}
			t.Fatalf("the detector made no report containing %q: %q", d.want, r.msgs)
		})
	}
}
