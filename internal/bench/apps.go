package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/tstruct"
	"wtftm/internal/workload"
)

// newSystemOn builds a futures engine of the given kind over an existing
// STM (newSystem allocates its own).
func newSystemOn(stm *mvstm.STM, eng Engine) *core.System {
	switch eng {
	case WTF:
		return core.New(stm, core.Options{Ordering: core.WO, Atomicity: core.LAC})
	case JTF:
		return core.New(stm, core.Options{Ordering: core.SO, Atomicity: core.LAC})
	default:
		return nil
	}
}

// This file adds the "broader set of benchmarks directly inspired from real
// use cases" the paper's conclusion calls for (§6): two more applications
// whose transactions have a natural intra-transaction parallel structure.
//
//   - Intruder: STAMP-Intruder-inspired packet reassembly. Transactions
//     dequeue fragments and update shared assembly state; completed flows
//     are analyzed by CPU-heavy detector futures inside the same
//     transaction, so the verdict commits atomically with the reassembly.
//   - KMeans: STAMP-KMeans-inspired clustering. Each iteration's assignment
//     step fans out over futures that compute partial centroid sums; the
//     continuation reduces them and updates the shared centroids.

// IntruderParams configures the packet-reassembly benchmark.
type IntruderParams struct {
	// Flows is the number of flows preloaded into the fragment queue.
	Flows int
	// FragmentsPerFlow is the flow length.
	FragmentsPerFlow int
	// BatchSize is the number of fragments a transaction dequeues.
	BatchSize int
	// AnalysisIters is the emulated cost of analyzing one complete flow.
	AnalysisIters int
	// Workers is the number of concurrent reassembly transactions.
	Workers int
}

// DefaultIntruder returns a host-scaled configuration.
func DefaultIntruder(quick bool) IntruderParams {
	if quick {
		return IntruderParams{Flows: 48, FragmentsPerFlow: 4, BatchSize: 8, AnalysisIters: 4000, Workers: 4}
	}
	return IntruderParams{Flows: 2048, FragmentsPerFlow: 8, BatchSize: 16, AnalysisIters: 20000, Workers: 8}
}

// IntruderResult compares the three engines on the reassembly workload.
type IntruderResult struct {
	Params IntruderParams
	// FlowsPerSec per engine ("sequential" = no futures, 1 worker).
	FlowsPerSec map[Engine]float64
	SeqPerSec   float64
	// Suspicious is the number of flagged flows (identical across engines —
	// a determinism check).
	Suspicious int
}

// RunIntruder measures flow-analysis throughput with detector futures.
func RunIntruder(cfg Config, p IntruderParams) (*IntruderResult, error) {
	res := &IntruderResult{Params: p, FlowsPerSec: make(map[Engine]float64)}
	seq, susp, err := runIntruder(cfg, p, JVSTM, 1)
	if err != nil {
		return nil, err
	}
	res.SeqPerSec = seq
	res.Suspicious = susp
	for _, eng := range []Engine{WTF, JTF} {
		tput, susp, err := runIntruder(cfg, p, eng, p.Workers)
		if err != nil {
			return nil, err
		}
		if susp != res.Suspicious {
			return nil, fmt.Errorf("intruder: %s flagged %d flows, sequential flagged %d", eng, susp, res.Suspicious)
		}
		res.FlowsPerSec[eng] = tput
		cfg.progress("intruder %s: %.1f flows/s", eng, tput)
	}
	return res, nil
}

// intruderState is the shared state: the fragment queue, the per-flow
// assembly counters and the verdict set.
type intruderState struct {
	queue      *tstruct.Queue
	assembled  *tstruct.Map
	suspicious *tstruct.Set
	done       *mvstm.VBox // count of fully analyzed flows
}

type fragment struct {
	flow int
	last bool
}

func buildIntruderState(stm *mvstm.STM, p IntruderParams, rng *workload.RNG) *intruderState {
	st := &intruderState{
		queue:      tstruct.NewQueue(stm),
		assembled:  tstruct.NewMap(stm, 64),
		suspicious: tstruct.NewSet(stm, 64),
		done:       stm.NewBoxNamed("intruder.done", 0),
	}
	// Interleave the flows' fragments (round-robin with random skips) so
	// reassembly state genuinely accumulates across transactions.
	frags := make([][]fragment, p.Flows)
	for f := range frags {
		for i := 0; i < p.FragmentsPerFlow; i++ {
			frags[f] = append(frags[f], fragment{flow: f, last: i == p.FragmentsPerFlow-1})
		}
	}
	txn := stm.Begin()
	remaining := p.Flows
	for remaining > 0 {
		f := rng.Intn(p.Flows)
		if len(frags[f]) == 0 {
			continue
		}
		st.queue.Enqueue(txn, frags[f][0])
		frags[f] = frags[f][1:]
		if len(frags[f]) == 0 {
			remaining--
		}
	}
	if err := txn.Commit(); err != nil {
		panic(err)
	}
	return st
}

// suspiciousFlow is the deterministic "signature match" stand-in.
func suspiciousFlow(flow int) bool { return flow%5 == 0 }

func runIntruder(cfg Config, p IntruderParams, eng Engine, workers int) (float64, int, error) {
	stm := mvstm.New()
	st := buildIntruderState(stm, p, workload.NewRNG(3))
	sys := newSystemOn(stm, eng)

	analyze := func(tx mvstm.ReadWriter, flow int) {
		m := cfg.Worker.Meter()
		m.Do(p.AnalysisIters)
		m.Flush()
		if suspiciousFlow(flow) {
			st.suspicious.Add(tx, fmt.Sprint(flow))
		}
		tx.Write(st.done, tx.Read(st.done).(int)+1)
	}

	processBatch := func() (bool, error) {
		drained := false
		body := func(tx *core.Tx, plain *mvstm.Txn) error {
			drained = false // reset on retry: an aborted attempt's view is void
			var rw mvstm.ReadWriter
			if tx != nil {
				rw = tx
			} else {
				rw = plain
			}
			var completed []int
			for i := 0; i < p.BatchSize; i++ {
				v, ok := st.queue.Dequeue(rw)
				if !ok {
					drained = true
					break
				}
				fr := v.(fragment)
				key := fmt.Sprint(fr.flow)
				cur, _ := st.assembled.Get(rw, key)
				if cur == nil {
					cur = 0
				}
				n := cur.(int) + 1
				st.assembled.Put(rw, key, n)
				if fr.last {
					completed = append(completed, fr.flow)
				}
			}
			if tx != nil {
				// Analyze completed flows in parallel, atomically with the
				// reassembly step that completed them.
				var futs []*core.Future
				for _, flow := range completed {
					flow := flow
					futs = append(futs, tx.Submit(func(ftx *core.Tx) (any, error) {
						analyze(ftx, flow)
						return nil, nil
					}))
				}
				for _, f := range futs {
					if _, err := tx.Evaluate(f); err != nil {
						return err
					}
				}
			} else {
				for _, flow := range completed {
					analyze(plain, flow)
				}
			}
			return nil
		}
		var err error
		if sys != nil {
			err = sys.Atomic(func(tx *core.Tx) error { return body(tx, nil) })
		} else {
			err = stm.Atomic(func(txn *mvstm.Txn) error { return body(nil, txn) })
		}
		return drained, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				drained, err := processBatch()
				if err != nil {
					errs <- err
					return
				}
				if drained {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)

	txn := stm.Begin()
	defer txn.Discard()
	doneFlows := txn.Read(st.done).(int)
	if doneFlows != p.Flows {
		return 0, 0, fmt.Errorf("intruder: analyzed %d flows, want %d", doneFlows, p.Flows)
	}
	return Throughput(int64(p.Flows), elapsed), st.suspicious.Len(txn), nil
}

// Print renders the intruder comparison.
func (r *IntruderResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Intruder (extra benchmark): packet reassembly with detector futures")
	fmt.Fprintf(w, "(%d flows x %d fragments, batch %d, %d workers)\n",
		r.Params.Flows, r.Params.FragmentsPerFlow, r.Params.BatchSize, r.Params.Workers)
	t := newTable("engine", "flows/s", "speedup vs sequential")
	t.add("sequential", f(r.SeqPerSec), "1.00")
	for _, eng := range []Engine{WTF, JTF} {
		t.add(string(eng), f(r.FlowsPerSec[eng]), f(Speedup(r.FlowsPerSec[eng], r.SeqPerSec)))
	}
	t.print(w)
	fmt.Fprintf(w, "flagged flows: %d (identical across engines)\n", r.Suspicious)
}

// KMeansParams configures the clustering benchmark.
type KMeansParams struct {
	// Points is the dataset size; Dims the dimensionality; K the clusters.
	Points, Dims, K int
	// Iterations is the number of update steps measured.
	Iterations int
	// Futures is the fan-out of the assignment step.
	Futures int
	// DistIters is the emulated cost of one point-centroid distance.
	DistIters int
}

// DefaultKMeans returns a host-scaled configuration.
func DefaultKMeans(quick bool) KMeansParams {
	if quick {
		return KMeansParams{Points: 96, Dims: 4, K: 4, Iterations: 3, Futures: 4, DistIters: 250}
	}
	return KMeansParams{Points: 4096, Dims: 16, K: 8, Iterations: 10, Futures: 8, DistIters: 1000}
}

// KMeansResult compares future-parallelized iterations against sequential.
type KMeansResult struct {
	Params KMeansParams
	// ItersPerSec per engine; Sequential as baseline.
	ItersPerSec map[Engine]float64
	SeqPerSec   float64
	// FinalInertia is the converged objective (identical across engines —
	// a determinism check).
	FinalInertia float64
}

// RunKMeans measures clustering-iteration throughput.
func RunKMeans(cfg Config, p KMeansParams) (*KMeansResult, error) {
	res := &KMeansResult{Params: p, ItersPerSec: make(map[Engine]float64)}
	seq, inertia, err := runKMeans(cfg, p, JVSTM)
	if err != nil {
		return nil, err
	}
	res.SeqPerSec, res.FinalInertia = seq, inertia
	for _, eng := range []Engine{WTF, JTF} {
		tput, in, err := runKMeans(cfg, p, eng)
		if err != nil {
			return nil, err
		}
		if diff := in - res.FinalInertia; diff > 1e-6 || diff < -1e-6 {
			return nil, fmt.Errorf("kmeans: %s inertia %f, sequential %f", eng, in, res.FinalInertia)
		}
		res.ItersPerSec[eng] = tput
		cfg.progress("kmeans %s: %.2f iters/s", eng, tput)
	}
	return res, nil
}

func runKMeans(cfg Config, p KMeansParams, eng Engine) (float64, float64, error) {
	stm := mvstm.New()
	rng := workload.NewRNG(11)
	points := make([][]float64, p.Points)
	for i := range points {
		points[i] = make([]float64, p.Dims)
		for d := range points[i] {
			points[i][d] = rng.Float64() * 100
		}
	}
	centroids := make([]*mvstm.VBox, p.K)
	for k := range centroids {
		init := append([]float64(nil), points[k*p.Points/p.K]...)
		centroids[k] = stm.NewBoxNamed(fmt.Sprintf("centroid%d", k), init)
	}
	sys := newSystemOn(stm, eng)

	type partial struct {
		sums   [][]float64
		counts []int
		inert  float64
	}
	assignChunk := func(rw mvstm.ReadWriter, lo, hi int) partial {
		m := cfg.Worker.Meter()
		cs := make([][]float64, p.K)
		for k := range cs {
			cs[k] = rw.Read(centroids[k]).([]float64)
		}
		out := partial{sums: make([][]float64, p.K), counts: make([]int, p.K)}
		for k := range out.sums {
			out.sums[k] = make([]float64, p.Dims)
		}
		for i := lo; i < hi; i++ {
			best, bestD := 0, 0.0
			for k := range cs {
				m.Do(p.DistIters)
				d := 0.0
				for dim := 0; dim < p.Dims; dim++ {
					diff := points[i][dim] - cs[k][dim]
					d += diff * diff
				}
				if k == 0 || d < bestD {
					best, bestD = k, d
				}
			}
			out.counts[best]++
			out.inert += bestD
			for dim := 0; dim < p.Dims; dim++ {
				out.sums[best][dim] += points[i][dim]
			}
		}
		m.Flush()
		return out
	}
	reduce := func(rw mvstm.ReadWriter, parts []partial) float64 {
		inert := 0.0
		for k := 0; k < p.K; k++ {
			sum := make([]float64, p.Dims)
			count := 0
			for _, pt := range parts {
				count += pt.counts[k]
				for d := 0; d < p.Dims; d++ {
					sum[d] += pt.sums[k][d]
				}
			}
			if count > 0 {
				for d := range sum {
					sum[d] /= float64(count)
				}
				rw.Write(centroids[k], sum)
			}
		}
		for _, pt := range parts {
			inert += pt.inert
		}
		return inert
	}

	chunk := (p.Points + p.Futures - 1) / p.Futures
	var inertia float64
	start := time.Now()
	for it := 0; it < p.Iterations; it++ {
		var err error
		if sys != nil {
			err = sys.Atomic(func(tx *core.Tx) error {
				futs := make([]*core.Future, 0, p.Futures)
				for lo := 0; lo < p.Points; lo += chunk {
					lo, hi := lo, min(lo+chunk, p.Points)
					futs = append(futs, tx.Submit(func(ftx *core.Tx) (any, error) {
						return assignChunk(ftx, lo, hi), nil
					}))
				}
				parts := make([]partial, 0, len(futs))
				for _, f := range futs {
					v, err := tx.Evaluate(f)
					if err != nil {
						return err
					}
					parts = append(parts, v.(partial))
				}
				inertia = reduce(tx, parts)
				return nil
			})
		} else {
			err = stm.Atomic(func(txn *mvstm.Txn) error {
				parts := []partial{assignChunk(txn, 0, p.Points)}
				inertia = reduce(txn, parts)
				return nil
			})
		}
		if err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	return Throughput(int64(p.Iterations), elapsed), inertia, nil
}

// Print renders the kmeans comparison.
func (r *KMeansResult) Print(w io.Writer) {
	fmt.Fprintln(w, "KMeans (extra benchmark): assignment step fanned out over futures")
	fmt.Fprintf(w, "(%d points, %d dims, k=%d, %d futures)\n", r.Params.Points, r.Params.Dims, r.Params.K, r.Params.Futures)
	t := newTable("engine", "iters/s", "speedup vs sequential")
	t.add("sequential", f(r.SeqPerSec), "1.00")
	for _, eng := range []Engine{WTF, JTF} {
		t.add(string(eng), f(r.ItersPerSec[eng]), f(Speedup(r.ItersPerSec[eng], r.SeqPerSec)))
	}
	t.print(w)
	fmt.Fprintf(w, "final inertia: %.2f (identical across engines)\n", r.FinalInertia)
}
