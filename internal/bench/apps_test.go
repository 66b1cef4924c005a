package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunIntruder(t *testing.T) {
	cfg := tiny()
	p := IntruderParams{Flows: 20, FragmentsPerFlow: 3, BatchSize: 5, AnalysisIters: 500, Workers: 3}
	res, err := RunIntruder(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspicious != 4 { // flows 0,5,10,15
		t.Fatalf("suspicious = %d, want 4", res.Suspicious)
	}
	for _, eng := range []Engine{WTF, JTF} {
		if res.FlowsPerSec[eng] <= 0 {
			t.Fatalf("%s throughput = %v", eng, res.FlowsPerSec[eng])
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Intruder") {
		t.Fatal("missing header")
	}
}

func TestRunKMeans(t *testing.T) {
	cfg := tiny()
	p := KMeansParams{Points: 40, Dims: 3, K: 3, Iterations: 2, Futures: 3, DistIters: 10}
	res, err := RunKMeans(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInertia <= 0 {
		t.Fatalf("inertia = %v", res.FinalInertia)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "KMeans") {
		t.Fatal("missing header")
	}
}

func TestIntruderDeterministicAcrossEngines(t *testing.T) {
	cfg := tiny()
	cfg.Duration = 10 * time.Millisecond
	p := IntruderParams{Flows: 15, FragmentsPerFlow: 2, BatchSize: 4, AnalysisIters: 100, Workers: 2}
	// RunIntruder itself errors if the flagged sets diverge.
	if _, err := RunIntruder(cfg, p); err != nil {
		t.Fatal(err)
	}
}
