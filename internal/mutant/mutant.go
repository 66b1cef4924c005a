// Package mutant is the mutation ledger: deliberately broken builds that the
// checks must reject. A site is one condition, `mutant.Active == mutant.X`
// (or !=). Without the mutants build tag Active is the constant 0 and every
// site folds away (off.go); with it, the detecting package's
// TestMutantsCaught sets Active (on.go), one subtest per entry:
// go test -tags mutants -run TestMutantsCaught/<Name> ./internal/<Pkg>/
package mutant

// ID names one entry of Table.
type ID uint8

const (
	SkipBackwardValidation ID = iota + 1
	ClaimAtEvaluation
	UnlockBeforeLog
	FastGetIgnoresWatermark
	DiscardSkipsSibling
	ForwardSkipsFutureChains
	MergeDropsPathWrites
	AbsorbDropsTargetReads
	MergeNotesNoHiddenRead
	ReplayBeforeBarrier
	CommitSkipsMergedReads
	ErrorDropsChainReads
	EscapeIgnoresHidden
	ForeignErrorUnchecked
	ReadUnpublished
	DecisionAnywhere
	MergeKeepsGeneration
)

// Entry is one mutant: Pkg's TestMutantsCaught/<Name> must report it. Sweep
// records whether scripts/ci.sh's wtfconform sweeps report it too (never for
// a server site; conform's TestMutantsSweep checks every engine site).
type Entry struct {
	ID                   ID
	Name, Site, Pkg, Bug string
	Sweep                bool
}

// Table is the ledger, in ID order.
var Table = []Entry{
	{SkipBackwardValidation, "SkipBackwardValidation", "core.(*Tx).evaluateLocal", "conform",
		"a parked future merges at its evaluation without backward validation", true},
	{ClaimAtEvaluation, "ClaimAtEvaluation", "core.(*Tx).evaluateLocal", "conform",
		"a body its evaluator claimed serializes at the evaluation even under SO", true},
	{UnlockBeforeLog, "UnlockBeforeLog", "server.(*Server).commit", "server",
		"commit unlocks its shards before the log step: log order can differ from commit order", false},
	{FastGetIgnoresWatermark, "FastGetIgnoresWatermark", "server.(*conn).fastGetInner", "server",
		"a fast GET overtakes its own session's queued write", false},
	{DiscardSkipsSibling, "DiscardSkipsSibling", "core.(*topTx).discardSubtree", "core",
		"discarding a chain skips a pending sibling, which can then still merge (arena rewrite)", false},
	{ForwardSkipsFutureChains, "ForwardSkipsFutureChains", "core.(*topTx).forwardConflicts", "core",
		"forward validation skips futures hanging off the continuation (map-free validators)", false},
	{MergeDropsPathWrites, "MergeDropsPathWrites", "core.(*topTx).mergeChain", "core",
		"a re-rooted child is not charged the writes before its new position (map-free merge)", false},
	{AbsorbDropsTargetReads, "AbsorbDropsTargetReads", "mvstm.(*BoxSet).Absorb", "core",
		"a merge that takes over the chain's larger read set loses the target's own reads", false},
	{MergeNotesNoHiddenRead, "MergeNotesNoHiddenRead", "core.keepRead", "core",
		"a merge does not mark the kept read under which it folded a snapshot read, so commit's walk misses it", false},
	{ReplayBeforeBarrier, "ReplayBeforeBarrier", "server.acksAfterBarrier", "server",
		"the executor acks an exactly-once replay before any barrier covers the original's record", false},
	{CommitSkipsMergedReads, "CommitSkipsMergedReads", "core.(*topTx).commitReads", "core",
		"the commit's validation set skips the main chain's root once the main flow has moved past it", true},
	{ErrorDropsChainReads, "ErrorDropsChainReads", "core.(*topTx).keepErrorReads", "core",
		"a future whose body returned an error is discarded without its chain's snapshot reads joining the commit's validation set", false},
	{EscapeIgnoresHidden, "EscapeIgnoresHidden", "core.(*topTx).readHolds", "core",
		"a foreign evaluation accepts an escaped chain's hidden read without checking the snapshot read the fold hid under it", false},
	{ForeignErrorUnchecked, "ForeignErrorUnchecked", "core.(*Tx).evaluateForeign", "core",
		"a foreign evaluation hands over an escapee's body error without checking the reads the error was computed from", false},
	{ReadUnpublished, "ReadUnpublished", "core.(*vertex).publish", "core",
		"a first read in an active vertex is not appended to its log, so a forward validation on another flow misses it", true},
	{DecisionAnywhere, "DecisionAnywhere", "core.(*Tx).evaluateForeign", "core",
		"a repeat evaluation returns its attempt's decision for an escapee wherever the decision lies, discarded or off the evaluator's path", false},
	{MergeKeepsGeneration, "MergeKeepsGeneration", "core.(*topTx).mergeChain", "core",
		"a merge leaves the path generation alone, so a flow below its target keeps an index without the merged writes", true},
}
