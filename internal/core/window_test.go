package core

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/traffic"
)

// windowViolation is one window of consecutive packets that lost more than
// its tolerance allows.
type windowViolation struct {
	start  int // index of the window's first packet
	losses int
}

// windowViolations audits a stream's per-packet outcomes (true = lost:
// dropped or transmitted late) against the DWCS x-of-y tolerance of §2: at
// most x losses in every window of y consecutive packets. It returns every
// violating window, by starting index, from one sliding count.
func windowViolations(lost []bool, x, y int) []windowViolation {
	var out []windowViolation
	losses := 0
	for i, l := range lost {
		if l {
			losses++
		}
		if i >= y && lost[i-y] {
			losses--
		}
		if i >= y-1 && losses > x {
			out = append(out, windowViolation{start: i - y + 1, losses: losses})
		}
	}
	return out
}

// TestWindowViolationsMatchesBruteForce property-tests the sliding-window
// count against a quadratic reference.
func TestWindowViolationsMatchesBruteForce(t *testing.T) {
	f := func(lost []bool, xr, yr uint8) bool {
		if len(lost) > 200 {
			lost = lost[:200]
		}
		y := int(yr%8) + 1
		x := int(xr) % (y + 1)
		got := windowViolations(lost, x, y)
		var want []windowViolation
		for s := 0; s+y <= len(lost); s++ {
			n := 0
			for k := s; k < s+y; k++ {
				if lost[k] {
					n++
				}
			}
			if n > x {
				want = append(want, windowViolation{start: s, losses: n})
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFeasibleScheduleHonorsWindows is the end-to-end audit: a feasible
// window-constrained stream set (admission-checked demand ≤ 1) scheduled by
// the cycle-accurate model must not violate any stream's tolerance.
func TestFeasibleScheduleHonorsWindows(t *testing.T) {
	// Three WC streams, each demanding (1 - x/y)/T:
	//   A: T=2, W=1/2 -> 0.25   B: T=4, W=1/4 -> 0.1875   C: T=2, W=0/4 -> 0.5
	// Total 0.9375 ≤ 1: feasible.
	specs := []attr.Spec{
		{Class: attr.WindowConstrained, Period: 2, Constraint: attr.Constraint{Num: 1, Den: 2}},
		{Class: attr.WindowConstrained, Period: 4, Constraint: attr.Constraint{Num: 1, Den: 4}},
		{Class: attr.WindowConstrained, Period: 2, Constraint: attr.Constraint{Num: 0, Den: 4}},
	}
	sched, err := New(Config{Slots: 4, Routing: WinnerOnly})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		src := &traffic.Periodic{Gap: uint64(spec.Period), Phase: uint64(i)}
		if err := sched.Admit(i, spec, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Start(); err != nil {
		t.Fatal(err)
	}
	// Track per-stream outcomes from the cycle results: a transmission is
	// met or lost by its Late flag; expiry drops are lost (observed via the
	// Drops counter delta).
	lost := make([][]bool, len(specs))
	prevDrops := make([]uint64, len(specs))
	for c := 0; c < 20000; c++ {
		cr := sched.RunCycle()
		for _, tx := range cr.Transmissions {
			if int(tx.Slot) < len(specs) {
				lost[tx.Slot] = append(lost[tx.Slot], tx.Late)
			}
		}
		for i := range specs {
			d := sched.SlotCounters(i).Drops
			for ; prevDrops[i] < d; prevDrops[i]++ {
				lost[i] = append(lost[i], true)
			}
		}
	}
	for i, spec := range specs {
		if len(lost[i]) < 1000 {
			t.Fatalf("stream %d audited only %d packets", i, len(lost[i]))
		}
		if v := windowViolations(lost[i], int(spec.Constraint.Num), int(spec.Constraint.Den)); len(v) != 0 {
			t.Errorf("stream %d (W=%v): %d window violations, first %+v",
				i, spec.Constraint, len(v), v[0])
		}
	}
}
