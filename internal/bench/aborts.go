package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"wtftm/internal/bank"
	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// AbortsParams configures the abort-attribution sweep: the §5.3 bank
// workload (chunked transfer/getTotalAmount log replayed through a window of
// futures per top-level transaction) run once per ordering × atomicity mode.
// The mvstm conflict hook names the box that killed each backward
// validation, as the server's wtfd_aborts_total does per shard (DESIGN.md
// §14), and the engine counters split the forward directions. wtfd exports
// only the backward direction, because no served transaction submits a
// future; this sweep is where the forward ones are measured. It is not a
// paper figure — it answers "which semantics mode aborts where, and why" on
// the paper's benchmark shape.
type AbortsParams struct {
	// TopLevels is the number of concurrent top-level replayers.
	TopLevels int
	// Accounts is the bank size: small enough that concurrent transfers
	// collide in their read sets.
	Accounts int
	// Pairs is the number of account pairs per transfer.
	Pairs int
	// Window is the number of in-flight futures per top-level transaction.
	Window int
	// UpdatePct is the percent of transfer entries; the rest are
	// getTotalAmount scans, whose full-table read sets are the easiest
	// backward-validation victims.
	UpdatePct int
	// Iter is the emulated computation per account access — the work that
	// keeps transactions long enough to overlap.
	Iter int
}

// DefaultAborts returns the host-scaled parameter set.
func DefaultAborts(quick bool) AbortsParams {
	p := AbortsParams{TopLevels: 4, Accounts: 64, Pairs: 4, Window: 4, UpdatePct: 90, Iter: 1000}
	if quick {
		p.TopLevels = 2
	}
	return p
}

// AbortsPoint is one semantics mode's measurement.
type AbortsPoint struct {
	Mode   string // "WO/LAC" etc.
	Chunks int64  // completed top-level chunk replays
	// Backward is the MV-STM first-committer-wins abort count (read-set
	// validation at commit), attributed per account by the conflict hook;
	// HotAccount/HotCount name the box most often blamed.
	Backward   int64
	HotAccount string
	HotCount   int64
	// Forward directions, from the engine counters.
	SOContinuation int64
	FutureReexecs  int64
	EscapeReexecs  int64
}

// AbortsResult is the full sweep.
type AbortsResult struct {
	Params AbortsParams
	Points []AbortsPoint
}

// RunAborts measures every ordering × atomicity mode on the same bank
// replay, one fresh engine per mode.
func RunAborts(cfg Config, p AbortsParams) (*AbortsResult, error) {
	res := &AbortsResult{Params: p}
	for _, ord := range []core.Ordering{core.WO, core.SO} {
		for _, atom := range []core.Atomicity{core.LAC, core.GAC} {
			pt, err := runAbortsPoint(cfg, p, ord, atom)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
			cfg.progress("aborts %s done: %d chunks, %d backward", pt.Mode, pt.Chunks, pt.Backward)
		}
	}
	return res, nil
}

// runAbortsPoint drives one mode: concurrent top-level transactions each
// replaying a chunk of the operation log through an in-order future window
// (the fig8 WTF-InOrder shape). getTotalAmount scans read every account, so
// any transfer committing during one is exactly the first-committer-wins
// collision the backward counter attributes.
func runAbortsPoint(cfg Config, p AbortsParams, ord core.Ordering, atom core.Atomicity) (AbortsPoint, error) {
	stm := mvstm.New()
	// Per-account backward attribution, exactly as the server's conflict
	// hook does per shard (the trailing slot collects unparseable names).
	blame := make([]atomic.Int64, p.Accounts+1)
	stm.SetConflictHook(func(b *mvstm.VBox) {
		blame[acctIndex(b.Name, p.Accounts)].Add(1)
	})
	sys := core.New(stm, core.Options{Ordering: ord, Atomicity: atom})
	b := bank.New(stm, p.Accounts, 100)

	chunk := 3 * p.Window
	chunks, _, err := measure(p.TopLevels, cfg.Duration, func(_ int, rng *workload.RNG) (int, error) {
		entries := bank.GenerateLog(rng, chunk, p.UpdatePct, p.Pairs, p.Accounts)
		task, check := bankReplay(cfg, b, entries, p.Iter)
		err := sys.Atomic(func(tx *core.Tx) error {
			return windowInOrder(tx, len(entries), p.Window, task, check)
		})
		return 1, err
	})
	if err != nil {
		return AbortsPoint{}, err
	}

	pt := AbortsPoint{Mode: ord.String() + "/" + atom.String(), Chunks: chunks}
	hot, hotN := -1, int64(0)
	for i := range blame {
		n := blame[i].Load()
		pt.Backward += n
		if n > hotN {
			hot, hotN = i, n
		}
	}
	if hot >= 0 {
		pt.HotAccount, pt.HotCount = "acct"+strconv.Itoa(hot), hotN
		if hot == p.Accounts {
			pt.HotAccount = "other"
		}
	}
	s := sys.Stats().Snapshot()
	pt.SOContinuation = s.TopInternal
	pt.FutureReexecs = s.FutureReexecutions
	pt.EscapeReexecs = s.EscapeReexecs
	return pt, nil
}

// acctIndex recovers the account number from a bank box name ("acct17" →
// 17); anything else lands in the trailing "other" slot.
func acctIndex(name string, n int) int {
	num, ok := strings.CutPrefix(name, "acct")
	if !ok {
		return n
	}
	i, err := strconv.Atoi(num)
	if err != nil || i < 0 || i >= n {
		return n
	}
	return i
}

// Print renders the attribution table.
func (r *AbortsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "abort attribution on the bank workload (§5.3 shape: toplevels=%d accounts=%d pairs=%d window=%d update=%d%%)\n",
		r.Params.TopLevels, r.Params.Accounts, r.Params.Pairs, r.Params.Window, r.Params.UpdatePct)
	t := newTable("mode", "chunks", "stm-backward", "hot-account", "so-cont", "future-reexec", "escape-reexec")
	for _, pt := range r.Points {
		hot := "-"
		if pt.HotAccount != "" {
			hot = fmt.Sprintf("%s (%d)", pt.HotAccount, pt.HotCount)
		}
		t.add(pt.Mode, fmt.Sprint(pt.Chunks), fmt.Sprint(pt.Backward), hot,
			fmt.Sprint(pt.SOContinuation), fmt.Sprint(pt.FutureReexecs), fmt.Sprint(pt.EscapeReexecs))
	}
	t.print(w)
}
