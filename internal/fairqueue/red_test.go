package fairqueue

import (
	"testing"
)

func TestREDValidation(t *testing.T) {
	cases := []struct{ min, max, p, wq float64 }{
		{0, 10, 0.1, 0.002},
		{10, 10, 0.1, 0.002},
		{5, 10, 0, 0.002},
		{5, 10, 1.5, 0.002},
		{5, 10, 0.1, 0},
		{5, 10, 0.1, 2},
	}
	for _, c := range cases {
		if _, err := NewRED(c.min, c.max, c.p, c.wq, 1); err == nil {
			t.Errorf("NewRED(%v) accepted", c)
		}
	}
	if _, err := NewRED(5, 15, 0.1, 0.002, 1); err != nil {
		t.Fatal(err)
	}
}

func TestREDNeverDropsBelowMinTh(t *testing.T) {
	r, _ := NewRED(10, 30, 0.1, 0.25, 1)
	for i := 0; i < 1000; i++ {
		if r.OnArrival(5) {
			t.Fatalf("dropped at avg %v below MinTh", r.avg)
		}
	}
}

func TestREDAlwaysDropsAtHardLimit(t *testing.T) {
	r, _ := NewRED(10, 30, 0.1, 1, 1) // wq=1: avg == instantaneous
	if !r.OnArrival(100) {
		t.Fatal("no drop with avg at 100 ≥ 2*MaxTh")
	}
}

func TestREDProbabilityRamps(t *testing.T) {
	// Hold the instantaneous queue at fixed levels (wq=1 so avg tracks)
	// and compare empirical drop rates: deeper queue -> more drops.
	rate := func(q int) float64 {
		r, _ := NewRED(10, 50, 0.2, 1, 42)
		drops := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if r.OnArrival(q) {
				drops++
			}
		}
		return float64(drops) / n
	}
	low, mid, high := rate(15), rate(30), rate(45)
	if !(low < mid && mid < high) {
		t.Fatalf("drop rates not monotone: %v %v %v", low, mid, high)
	}
	if low == 0 || high > 0.9 {
		t.Fatalf("rates out of expected band: %v %v", low, high)
	}
}

func TestREDEWMASmoothsBursts(t *testing.T) {
	// With a small wq, one instantaneous spike must not push the average
	// past MinTh.
	r, _ := NewRED(10, 30, 0.1, 0.002, 1)
	for i := 0; i < 100; i++ {
		r.OnArrival(0)
	}
	if r.OnArrival(1000) {
		t.Fatal("single burst dropped despite smoothed average")
	}
	if r.avg >= 10 {
		t.Fatalf("avg %v jumped past MinTh after one sample", r.avg)
	}
}

func TestREDDeterministicWithSeed(t *testing.T) {
	run := func() []bool {
		r, _ := NewRED(5, 20, 0.3, 0.5, 7)
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.OnArrival(15)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RED not reproducible with fixed seed")
		}
	}
}

// TestREDSeedDrivesDrops is the flip side of the reproducibility test: the
// drop coin must actually consume the constructor's seed, so two
// controllers seeded differently but fed the identical congested queue
// trace diverge somewhere in the random-drop region.
func TestREDSeedDrivesDrops(t *testing.T) {
	run := func(seed int64) []bool {
		r, err := NewRED(5, 20, 0.3, 0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 400)
		for i := range out {
			out[i] = r.OnArrival(15)
		}
		return out
	}
	a, b := run(3), run(4)
	for i := range a {
		if a[i] != b[i] {
			return
		}
	}
	t.Fatal("seeds 3 and 4 produced identical drop traces: seed is not reaching the coin")
}
