package bench

import (
	"bytes"
	"strings"
	"testing"
)

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
