package fsg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wtftm/internal/history"
)

// FromLog converts a recorded engine log into an abstract History suitable
// for Build. Only committed top-level transaction attempts and the surviving
// execution of each future contribute operations: aborted attempts,
// discarded (re-executed) and cancelled future executions are elided, as the
// formal model only constrains the single execution of each (sub-)
// transaction that did commit.
func FromLog(ops []history.Op) (History, error) {
	h := History{
		Agents: make(map[string][]Op),
		Top:    make(map[string]string),
	}

	// Pass 0: reject future names the engine can never emit but a corrupted
	// log could carry — empty names and names shaped like top-level agent
	// names ("T<digits>"), which would conflate graph vertices downstream.
	for _, op := range ops {
		switch op.Kind {
		case history.Submit, history.FutureBegin, history.FutureAbort:
			if !validFutureName(op.Arg) {
				return h, fmt.Errorf("fsg: invalid future name %q in %v record", op.Arg, op.Kind)
			}
		case history.Evaluate:
			if name := strings.TrimSuffix(op.Arg, "/implicit"); !validFutureName(name) {
				return h, fmt.Errorf("fsg: invalid future name %q in %v record", name, op.Kind)
			}
		}
	}

	// Pass 1: committed tops, their commit timestamps, future executions.
	committed := make(map[int64]int64) // top id -> commit clock TS
	type exec struct {
		top  int64
		flow int
	}
	futExecs := make(map[string][]exec)
	futAborts := make(map[string]int)
	futEscapeTop := make(map[string]int64) // escaped future -> evaluating (including) top
	mergeFlows := make(map[exec]bool)      // (top, future flow) of local merges
	for _, op := range ops {
		switch op.Kind {
		case history.TopCommit:
			committed[op.Top] = op.WID
		case history.FutureBegin:
			futExecs[op.Arg] = append(futExecs[op.Arg], exec{top: op.Top, flow: op.Flow})
		case history.FutureAbort:
			futAborts[op.Arg]++
		case history.FutureMerge:
			if name, ok := strings.CutPrefix(op.Arg, "evaluation/escaped "); ok {
				futEscapeTop[name] = op.Top
			} else {
				mergeFlows[exec{top: op.Top, flow: op.Flow}] = true
			}
		}
	}

	// The surviving, serialized execution of each future, if any. A future
	// that never resolved — e.g. a GAC escapee no transaction ever evaluated —
	// constrains nothing: its effects never took place in any serialization
	// order, so its execution is excluded like a discarded one. Local merges
	// are matched through the future's original flow (re-executions run in a
	// fresh flow but the merge is recorded against the original); an execution
	// kept in a different top than the spawner is a detached re-execution
	// inside its evaluator, which serializes there by construction.
	kept := make(map[string]exec)    // future name -> surviving execution
	keptRev := make(map[exec]string) // surviving execution -> future name
	for name, execs := range futExecs {
		if len(execs) <= futAborts[name] {
			continue
		}
		e := execs[len(execs)-1]
		resolved := false
		if _, escaped := futEscapeTop[name]; escaped {
			resolved = true
		}
		spawnTop := execs[0].top
		if e.top != spawnTop {
			resolved = true
		}
		for i := 0; !resolved && i < len(execs); i++ {
			if x := execs[i]; x.top == spawnTop && mergeFlows[x] {
				resolved = true
			}
		}
		if !resolved {
			continue
		}
		kept[name] = e
		keptRev[e] = name
	}
	// A future submitted by an execution that did not survive — a discarded
	// run of a re-executed future, or a future that never resolved — was
	// never submitted in any serialization order, so it did not survive
	// either, whatever it recorded itself. A future's Submit is logged before
	// anything its executions submit, so one pass in log order drops whole
	// subtrees.
	for _, op := range ops {
		if op.Kind != history.Submit || op.Flow == 0 {
			continue
		}
		if _, ok := keptRev[exec{top: op.Top, flow: op.Flow}]; ok {
			continue
		}
		if e, ok := kept[op.Arg]; ok {
			delete(kept, op.Arg)
			delete(keptRev, e)
		}
	}

	agentOf := func(top int64, flow int) (string, bool) {
		if _, ok := committed[top]; !ok {
			return "", false
		}
		if flow == 0 {
			return fmt.Sprintf("T%d", top), true
		}
		name, ok := keptRev[exec{top: top, flow: flow}]
		return name, ok
	}

	// Pass 2: write-id inventory of surviving flows (to resolve Obs).
	widKnown := make(map[int64]bool)
	for _, op := range ops {
		if op.Kind != history.Write {
			continue
		}
		if _, ok := agentOf(op.Top, op.Flow); ok {
			widKnown[op.WID] = true
		}
	}

	// Pass 3: build agent streams.
	topVars := make(map[int64]map[string]bool)
	noteVar := func(top int64, v string) {
		m := topVars[top]
		if m == nil {
			m = make(map[string]bool)
			topVars[top] = m
		}
		m[v] = true
	}
	ensureAgent := func(name string, top int64) {
		if _, ok := h.Agents[name]; !ok {
			h.Agents[name] = nil
		}
		if _, ok := h.Top[name]; !ok {
			h.Top[name] = fmt.Sprintf("T%d", top)
		}
	}

	for _, op := range ops {
		agent, ok := agentOf(op.Top, op.Flow)
		if !ok {
			continue
		}
		switch op.Kind {
		case history.Read:
			obs, err := convertObs(op.Obs, committed, widKnown)
			if err != nil {
				return h, fmt.Errorf("%w (agent %s var %s)", err, agent, op.Var)
			}
			ensureAgent(agent, op.Top)
			h.Agents[agent] = append(h.Agents[agent], Op{Kind: Read, Var: op.Var, Obs: obs})
		case history.Write:
			ensureAgent(agent, op.Top)
			h.Agents[agent] = append(h.Agents[agent], Op{Kind: Write, Var: op.Var, WID: "w" + strconv.FormatInt(op.WID, 10)})
		case history.Submit:
			if op.Arg == agent {
				return h, fmt.Errorf("fsg: agent %s submits itself", agent)
			}
			ensureAgent(agent, op.Top)
			h.Agents[agent] = append(h.Agents[agent], Op{Kind: Submit, Future: op.Arg})
			// Guarantee the future has an agent stream even if its every
			// execution was discarded (it then constrains nothing).
			ensureAgent(op.Arg, op.Top)
		case history.Evaluate:
			name := strings.TrimSuffix(op.Arg, "/implicit")
			if name == agent {
				return h, fmt.Errorf("fsg: agent %s evaluates itself", agent)
			}
			ensureAgent(agent, op.Top)
			h.Agents[agent] = append(h.Agents[agent], Op{Kind: Eval, Future: name})
		case history.TopBegin:
			ensureAgent(agent, op.Top)
		}
	}

	// Inclusion of surviving future executions: by default the top-level
	// transaction whose flow ran them; escaped futures belong to their
	// evaluator.
	for name, e := range kept {
		if _, ok := committed[e.top]; !ok {
			continue
		}
		ensureAgent(name, e.top)
		if evalTop, escaped := futEscapeTop[name]; escaped {
			h.Top[name] = fmt.Sprintf("T%d", evalTop)
		}
	}

	// Vars per committing top-level transaction, attributed via inclusion.
	for agent, stream := range h.Agents {
		topName := h.Top[agent]
		id, err := strconv.ParseInt(strings.TrimPrefix(topName, "T"), 10, 64)
		if err != nil {
			return h, fmt.Errorf("fsg: bad top name %q", topName)
		}
		for _, op := range stream {
			if op.Kind == Write {
				noteVar(id, op.Var)
			}
		}
	}

	// Commit order by clock timestamp.
	type commitEntry struct {
		top int64
		ts  int64
	}
	var order []commitEntry
	for top, ts := range committed {
		if ts == 0 {
			continue // read-only commit: installed nothing observable
		}
		order = append(order, commitEntry{top: top, ts: ts})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].ts < order[j].ts })
	for _, c := range order {
		var vars []string
		for v := range topVars[c.top] {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		h.Commits = append(h.Commits, CommitRec{
			Top:  fmt.Sprintf("T%d", c.top),
			ID:   "c" + strconv.FormatInt(c.ts, 10),
			Vars: vars,
		})
	}
	return h, nil
}

// validFutureName rejects names that would conflate a future's graph
// vertices with a top-level agent's: empty strings and "T<digits>".
func validFutureName(name string) bool {
	if name == "" {
		return false
	}
	if name[0] != 'T' {
		return true
	}
	digits := name[1:]
	if digits == "" {
		return true
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return true
		}
	}
	return false
}

// convertObs rewrites an engine observation ("v<ts>" or "w<wid>") into the
// model's encoding ("", "c:<id>", or a write id).
func convertObs(obs string, committed map[int64]int64, widKnown map[int64]bool) (string, error) {
	switch {
	case strings.HasPrefix(obs, "v"):
		ts, err := strconv.ParseInt(obs[1:], 10, 64)
		if err != nil {
			return "", fmt.Errorf("fsg: bad observation %q", obs)
		}
		if ts == 0 {
			return "", nil // initial value
		}
		for _, cts := range committed {
			if cts == ts {
				return "c:c" + strconv.FormatInt(ts, 10), nil
			}
		}
		return "", fmt.Errorf("fsg: observation %q references a commit outside the log", obs)
	case strings.HasPrefix(obs, "w"):
		wid, err := strconv.ParseInt(obs[1:], 10, 64)
		if err != nil {
			return "", fmt.Errorf("fsg: bad observation %q", obs)
		}
		if !widKnown[wid] {
			return "", fmt.Errorf("fsg: observation %q references a discarded write", obs)
		}
		return obs, nil
	default:
		return "", fmt.Errorf("fsg: unparseable observation %q", obs)
	}
}
