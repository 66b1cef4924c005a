package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values gathers one gated metric of one workload over a file's untraced
// runs.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// judge compares a metric's base values a with the candidate's b under
// bound. It is worse when b's median is worse than a's by more than the
// bound; it is unresolved — neither ok nor worse — when either side's own
// run-to-run spread is wider than the bound, because then the medians
// cannot carry the decision.
func judge(a, b []float64, d metricDecl) (ma, mb, delta, sp float64, verdict string) {
	ma, mb = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	sp = max(spread(a), spread(b))
	worse := delta > d.Bound
	if d.Better == "higher" {
		worse = -delta > d.Bound
	}
	switch {
	case sp > d.Bound:
		verdict = verdictUnresolved
	case worse:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return
}

// compareFiles prints, per workload and gated metric, both medians, the
// relative change with its base, the bound and the verdict; it returns the
// process exit code: 1 if any metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
	return 2
}

func compareSets(w io.Writer, a, b *resultFile) int {
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		fmt.Fprintf(w, "warning: different hosts (%s ×%d vs %s ×%d): the comparison says little\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	fmt.Fprintf(w, "base %s (%d runs)  vs  candidate %s (%d runs)\n", a.Host.Commit, len(a.Runs), b.Host.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base median", "cand median", "change", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, d := range a.Bounds {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb, delta, sp, verdict := judge(va, vb, d)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %+8.1f%% %6.1f%% %6.1f%%  %s (n=%d/%d, change relative to base %.4f %s)\n",
				wl.name, d.Name, ma, mb, 100*delta, 100*sp, 100*d.Bound, verdict, len(va), len(vb), ma, d.Unit)
		}
	}
	return code
}
