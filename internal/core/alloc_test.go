package core

// PR-2 regression guards for the zero-allocation decision hot path and the
// hoisted cycles-per-decision accounting. These are tests, not benchmarks,
// so `go test ./internal/core/` fails the moment a steady-state decision
// cycle allocates or the HWCycles bookkeeping drifts from the Table-1 model.

import (
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/traffic"
)

// backloggedScheduler builds an n-slot scheduler with every slot holding a
// backlogged EDF stream (staggered periods), started and warmed past the
// first key-refresh epoch so only steady-state work remains.
func backloggedScheduler(t *testing.T, n int, mode decision.Mode, routing Routing) *Scheduler {
	t.Helper()
	s, err := New(Config{Slots: n, Mode: mode, Routing: routing})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i % 7), Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: uint16(1 + i%16)}, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunCycles(keyRefreshPeriod+64, nil)
	return s
}

// TestZeroAllocSteadyState asserts the tentpole contract: a steady-state
// decision cycle performs no heap allocations, for both routing disciplines
// and both decision modes, at the paper's prototype size, at N=32, and at
// N=256 — past the 7-bit key slot field's saturation, where equal masked
// keys resolve through the slot tie-break.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		mode    decision.Mode
		routing Routing
	}{
		{"WR4", 4, decision.DWCS, WinnerOnly},
		{"BA4", 4, decision.DWCS, BlockRouting},
		{"WR32", 32, decision.DWCS, WinnerOnly},
		{"BA32", 32, decision.DWCS, BlockRouting},
		{"TagOnlyWR32", 32, decision.TagOnly, WinnerOnly},
		{"TagOnlyBA32", 32, decision.TagOnly, BlockRouting},
		{"WR256", 256, decision.DWCS, WinnerOnly},
		{"BA256", 256, decision.DWCS, BlockRouting},
		{"TagOnlyWR256", 256, decision.TagOnly, WinnerOnly},
		{"TagOnlyBA256", 256, decision.TagOnly, BlockRouting},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := backloggedScheduler(t, tc.n, tc.mode, tc.routing)
			// Batch per probe so a key-refresh epoch landing inside the
			// window is averaged in rather than dodged: refresh must also
			// be allocation-free.
			const batch = 128
			allocs := testing.AllocsPerRun(50, func() {
				s.RunCycles(batch, nil)
			})
			if allocs != 0 {
				t.Fatalf("steady-state RunCycles(%d) allocated %.2f times (want 0)", batch, allocs)
			}
			// RunCycle's copy-out path must stay clean too.
			allocs = testing.AllocsPerRun(50, func() {
				for i := 0; i < batch; i++ {
					s.RunCycle()
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state RunCycle allocated %.2f times (want 0)", allocs)
			}
		})
	}
}

// TestZeroAllocVisited holds the zero-allocation contract on the path every
// driver takes: RunCycles with a visitor reading the transmissions.
func TestZeroAllocVisited(t *testing.T) {
	for _, n := range []int{4, 32, 256} {
		for _, routing := range []Routing{WinnerOnly, BlockRouting} {
			t.Run(fmt.Sprintf("%v%d", routing, n), func(t *testing.T) {
				s := backloggedScheduler(t, n, decision.DWCS, routing)
				sent := 0
				visit := func(cr *CycleResult) bool {
					sent += len(cr.Transmissions)
					return true
				}
				const batch = 128
				allocs := testing.AllocsPerRun(50, func() {
					s.RunCycles(batch, visit)
				})
				if allocs != 0 {
					t.Fatalf("visited RunCycles(%d) allocated %.2f times (want 0)", batch, allocs)
				}
				if sent == 0 {
					t.Fatal("backlogged scheduler transmitted nothing")
				}
			})
		}
	}
}

// programScheduler builds an n-slot scheduler running rank program p, every
// slot backlogged with a stream of p's attribute class, warmed for warm
// cycles (keyRefreshPeriod+64 clears the first key-refresh epoch).
func programScheduler(t *testing.T, n int, p decision.Program, routing Routing, warm int) *Scheduler {
	t.Helper()
	s, err := New(ProgramConfig(n, p, routing))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i % 7), Backlogged: true}
		var spec attr.Spec
		switch p.Class() {
		case attr.EDF:
			spec = attr.Spec{Class: attr.EDF, Period: uint16(1 + i%16)}
		case attr.StaticPriority:
			spec = attr.Spec{Class: attr.StaticPriority, Priority: uint16(i % 8), Guard: 32}
		case attr.FairTag:
			spec = attr.Spec{Class: attr.FairTag, Weight: uint16(1 + i%4)}
		default: // WindowConstrained
			spec = attr.Spec{Class: attr.WindowConstrained, Period: uint16(1 + i%16),
				Constraint: attr.Constraint{Num: 1, Den: 2}}
		}
		if err := s.Admit(i, spec, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunCycles(warm, nil)
	return s
}

// TestZeroAllocPrograms extends the zero-allocation contract to the new
// rank programs: EDF, strict-priority-with-starvation-guard (the per-cycle
// guard check must be allocation-free, boosts included) and STFQ all run
// the steady-state decision cycle without a single heap allocation.
func TestZeroAllocPrograms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       decision.Program
		routing Routing
	}{
		{"EDF-WR32", decision.ProgramEDF, WinnerOnly},
		{"EDF-BA32", decision.ProgramEDF, BlockRouting},
		{"StrictGuard-WR32", decision.ProgramStrictPriority, WinnerOnly},
		{"StrictGuard-BA32", decision.ProgramStrictPriority, BlockRouting},
		{"STFQ-WR32", decision.ProgramSTFQ, WinnerOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := programScheduler(t, 32, tc.p, tc.routing, keyRefreshPeriod+64)
			const batch = 128
			allocs := testing.AllocsPerRun(50, func() {
				s.RunCycles(batch, nil)
			})
			if allocs != 0 {
				t.Fatalf("program %v: steady-state RunCycles(%d) allocated %.2f times (want 0)", tc.p, batch, allocs)
			}
		})
	}
}

// TestHWCyclesAccounting asserts that hoisting cyclesPerDecision into New
// left the Table-1 accounting untouched: every decision cycle costs exactly
// CyclesPerDecision() hardware clocks, however it is driven.
func TestHWCyclesAccounting(t *testing.T) {
	for _, routing := range []Routing{WinnerOnly, BlockRouting} {
		s, err := New(Config{Slots: 8, Routing: routing})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			src := &traffic.Periodic{Gap: 2, Phase: uint64(i), Backlogged: i%2 == 0}
			if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 4}, src); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		cpd := uint64(s.CyclesPerDecision())
		if cpd == 0 {
			t.Fatalf("routing %v: CyclesPerDecision() = 0", routing)
		}

		// Mix the drivers: singles, a batch, an early-exited batch, RunFor.
		var fromResults uint64
		for i := 0; i < 10; i++ {
			cr := s.RunCycle()
			fromResults += uint64(cr.HWCycles)
		}
		s.RunCycles(100, func(cr *CycleResult) bool {
			fromResults += uint64(cr.HWCycles)
			return true
		})
		stopAt := 0
		s.RunCycles(50, func(cr *CycleResult) bool {
			fromResults += uint64(cr.HWCycles)
			stopAt++
			return stopAt < 25
		})
		before := s.HWCycles()
		s.RunFor(40)
		fromResults += s.HWCycles() - before

		wantDecisions := uint64(10 + 100 + 25 + 40)
		if got := s.Decisions(); got != wantDecisions {
			t.Fatalf("routing %v: Decisions() = %d, want %d", routing, got, wantDecisions)
		}
		// Start charges one LOAD clock per slot before the first decision
		// (seed behavior, unchanged by the batch driver).
		if got, want := s.HWCycles(), 8+wantDecisions*cpd; got != want {
			t.Fatalf("routing %v: HWCycles() = %d, want %d (= 8 loads + %d decisions × %d)", routing, got, want, wantDecisions, cpd)
		}
		if fromResults != wantDecisions*cpd {
			t.Fatalf("routing %v: per-result HWCycles sum = %d, want %d", routing, fromResults, wantDecisions*cpd)
		}
	}
}
