package core

import (
	"testing"

	"repro/internal/decision"
)

// hitRateEpsilon is the allowed drop below a pinned hit rate, absolute in
// hit-rate units. The rates are counter-derived over a deterministic load,
// so they are exact run to run; the epsilon only leaves room for a change
// that shifts where a key-refresh epoch lands inside the window.
const hitRateEpsilon = 0.005

// TestFastPathHitRates guards each rank program's decision fast path. The
// rank program is the discipline (Sivaraman et al.), so each one gets its
// own row: every registered program × {WR, BA} × N ∈ {4, 16, 64, 256, 1024}
// runs backlogged, and over a fixed window its shuffle network's counters
// must give
//
//   - a fast-path hit rate 1 − fallbacks/compares, and
//   - a prefix rate 1 − (fallbacks+ties)/compares — the rate without the
//     equal-key slot tie-break, which also catches a change that
//     reclassifies fallbacks as ties,
//
// no lower than the values pinned below minus hitRateEpsilon. The window is
// 250000/N cycles (at least 500) after a quarter-window warmup, short enough
// for every PR, and the pins are measured at this window: a window of
// another length ends at a different point of the key-refresh cycle, so
// these are not the 2000000/N-cycle rates EXPERIMENTS.md records.
func TestFastPathHitRates(t *testing.T) {
	// pinned[n][program] = {WR hit, WR prefix, BA hit, BA prefix}.
	pinned := map[int]map[decision.Program][4]float64{
		4: {
			decision.ProgramDWCS:           {0.99166, 0.99166, 0.98462, 0.98462},
			decision.ProgramTagOnly:        {1, 1, 1, 1},
			decision.ProgramSTFQ:           {1, 1, 1, 1},
			decision.ProgramEDF:            {0.96972, 0.96972, 0.98462, 0.98462},
			decision.ProgramStrictPriority: {1, 1, 1, 1},
		},
		16: {
			decision.ProgramDWCS:           {1, 1, 0.70680, 0.70680},
			decision.ProgramTagOnly:        {1, 1, 1, 1},
			decision.ProgramSTFQ:           {1, 1, 1, 1},
			decision.ProgramEDF:            {1, 1, 0.70680, 0.70680},
			decision.ProgramStrictPriority: {1, 1, 1, 1},
		},
		64: {
			decision.ProgramDWCS:           {1, 1, 0.93790, 0.93790},
			decision.ProgramTagOnly:        {1, 1, 1, 1},
			decision.ProgramSTFQ:           {1, 1, 1, 1},
			decision.ProgramEDF:            {1, 1, 0.93790, 0.93790},
			decision.ProgramStrictPriority: {1, 1, 1, 1},
		},
		256: {
			decision.ProgramDWCS:           {1, 0.98963, 1, 0.99219},
			decision.ProgramTagOnly:        {1, 0.56476, 1, 0.80762},
			decision.ProgramSTFQ:           {1, 0.56476, 1, 0.80762},
			decision.ProgramEDF:            {1, 0.97650, 1, 0.99219},
			decision.ProgramStrictPriority: {1, 0.56476, 1, 0.96289},
		},
		1024: {
			decision.ProgramDWCS:           {1, 0.96174, 1, 0.85938},
			decision.ProgramTagOnly:        {1, 0.66561, 1, 0.52832},
			decision.ProgramSTFQ:           {1, 0.66561, 1, 0.52832},
			decision.ProgramEDF:            {1, 0.95666, 1, 0.85938},
			decision.ProgramStrictPriority: {1, 0.66697, 1, 0.78145},
		},
	}
	for _, n := range []int{4, 16, 64, 256, 1024} {
		cycles := max(250_000/n, 500)
		for _, p := range decision.Programs() {
			want, ok := pinned[n][p]
			if !ok {
				t.Errorf("N=%d %v: no pinned hit rates (a new program needs its row)", n, p)
				continue
			}
			for i, routing := range []Routing{WinnerOnly, BlockRouting} {
				s := programScheduler(t, n, p, routing, cycles/4+16)
				nw := s.Network()
				c0, t0, f0 := nw.Compares(), nw.TieHits(), nw.CascadeFallbacks()
				s.RunCycles(cycles, nil)
				compares := nw.Compares() - c0
				ties := nw.TieHits() - t0
				fallbacks := nw.CascadeFallbacks() - f0
				if compares == 0 {
					t.Fatalf("N=%d %v %v: no compares in %d cycles", n, p, routing, cycles)
				}
				hit := 1 - float64(fallbacks)/float64(compares)
				prefix := 1 - float64(fallbacks+ties)/float64(compares)
				if pin := want[2*i]; hit < pin-hitRateEpsilon {
					t.Errorf("N=%d %v %v: fast-path hit rate %.5f, pinned %.5f (fallbacks %d of %d compares)",
						n, p, routing, hit, pin, fallbacks, compares)
				}
				if pin := want[2*i+1]; prefix < pin-hitRateEpsilon {
					t.Errorf("N=%d %v %v: prefix hit rate %.5f, pinned %.5f (fallbacks %d + ties %d of %d compares)",
						n, p, routing, prefix, pin, fallbacks, ties, compares)
				}
			}
		}
	}
}
