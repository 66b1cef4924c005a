package bench

import "testing"

// TestProbeNTvsWTF runs the three Fig 6-left variants on one long-transaction
// cell directly, and checks that each completes without error at a positive
// rate.
func TestProbeNTvsWTF(t *testing.T) {
	cfg := tiny()
	p := Fig6LeftParams{TxnLens: []int{64}, Iters: []int{4}, TopLevels: 2, Futures: 8}
	runs := []struct {
		name string
		run  func(Config, Fig6LeftParams, int, int) (float64, error)
	}{
		{"NT", fig6LeftNT},
		{"WTF", fig6LeftWTF},
		{"baseline", fig6LeftBaseline},
	}
	for _, r := range runs {
		rate, err := r.run(cfg, p, 64, 4)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if rate <= 0 {
			t.Fatalf("%s: rate = %v", r.name, rate)
		}
	}
}
