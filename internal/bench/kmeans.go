package bench

import (
	"fmt"
	"io"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// KMeans is a STAMP-KMeans-inspired clustering benchmark, one of the
// "broader set of benchmarks directly inspired from real use cases" the
// paper's conclusion calls for (§6). Each iteration is one top-level
// transaction: its assignment step fans out over futures that compute
// partial centroid sums, and the continuation reduces them and updates the
// shared centroids. The futures never conflict and are compute-bound, so
// with busy work they spread over real cores.

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
	sys, stm := newSystem(eng)
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
