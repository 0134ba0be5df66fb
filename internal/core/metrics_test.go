package core

// Observability-layer guards: attaching the full obs bundle (counters,
// histograms, cycle tracer) must keep the steady-state decision cycle at
// zero allocations and bounded overhead, and the recorded telemetry must
// agree with the scheduler's own hardware counters.

import (
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// instrument attaches a fresh full bundle (tracer depth 256) and returns it
// with its registry.
func instrument(t *testing.T, s *Scheduler) (*Metrics, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m, err := NewMetrics(reg, "core", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Instrument(m); err != nil {
		t.Fatal(err)
	}
	return m, reg
}

// TestZeroAllocInstrumented is the tentpole guard: with metrics and the
// cycle tracer enabled, a steady-state decision cycle still performs no heap
// allocations — observability is free of garbage, at N=32 for both routing
// disciplines and both decision modes.
func TestZeroAllocInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		mode    decision.Mode
		routing Routing
	}{
		{"WR32", 32, decision.DWCS, WinnerOnly},
		{"BA32", 32, decision.DWCS, BlockRouting},
		{"TagOnlyWR32", 32, decision.TagOnly, WinnerOnly},
		{"TagOnlyBA32", 32, decision.TagOnly, BlockRouting},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := backloggedScheduler(t, tc.n, tc.mode, tc.routing)
			instrument(t, s)
			const batch = 128
			allocs := testing.AllocsPerRun(50, func() {
				s.RunCycles(batch, nil)
			})
			if allocs != 0 {
				t.Fatalf("instrumented RunCycles(%d) allocated %.2f times (want 0)", batch, allocs)
			}
			sent := 0
			visit := func(cr *CycleResult) bool {
				sent += len(cr.Transmissions)
				return true
			}
			allocs = testing.AllocsPerRun(50, func() {
				s.RunCycles(batch, visit)
			})
			if allocs != 0 {
				t.Fatalf("instrumented visited RunCycles(%d) allocated %.2f times (want 0)", batch, allocs)
			}
		})
	}
}

// TestInstrumentedOverheadBounded measures the wall cost of the bundle: the
// instrumented steady state must stay within a generous constant factor of
// the uninstrumented one. The bound is deliberately loose (CI machines
// jitter); the point is to catch an accidental O(N) or allocating slip into
// the recording path, not to benchmark.
func TestInstrumentedOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	const cycles = 200_000
	run := func(instrumented bool) time.Duration {
		s := backloggedScheduler(t, 32, decision.DWCS, WinnerOnly)
		if instrumented {
			instrument(t, s)
		}
		s.RunCycles(cycles/4, nil) // warm
		start := time.Now()
		s.RunCycles(cycles, nil)
		return time.Since(start)
	}
	base := run(false)
	inst := run(true)
	perCycle := (inst - base) / cycles
	// Budget: 4× the uninstrumented cycle plus 2µs of absolute slack per
	// cycle — an order of magnitude above the real cost of a handful of
	// atomics and a mutexed ring store.
	budget := 4*base + cycles*2000
	if inst > budget {
		t.Fatalf("instrumented run %v exceeds budget %v (base %v, overhead/cycle %v)", inst, budget, base, perCycle)
	}
	t.Logf("base %v, instrumented %v, overhead/cycle ≈ %v", base, inst, perCycle)
}

// TestMetricsAgreeWithCounters cross-checks the obs view against the
// scheduler's own accounting for both routing disciplines.
func TestMetricsAgreeWithCounters(t *testing.T) {
	for _, routing := range []Routing{WinnerOnly, BlockRouting} {
		s, err := New(Config{Slots: 8, Routing: routing})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			// Half the slots gated, so idle cycles occur too.
			src := &traffic.Periodic{Gap: 3, Phase: uint64(i), Backlogged: i%2 == 0, Limit: 500}
			if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 4}, src); err != nil {
				t.Fatal(err)
			}
		}
		m, _ := instrument(t, s)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		const n = 2000
		var wantTx, wantLate, wantIdle uint64
		s.RunCycles(n, func(cr *CycleResult) bool {
			if cr.Idle {
				wantIdle++
			}
			wantTx += uint64(len(cr.Transmissions))
			for _, tx := range cr.Transmissions {
				if tx.Late {
					wantLate++
				}
			}
			return true
		})

		if got := m.Decisions.Load(); got != n {
			t.Fatalf("%v: decisions = %d, want %d", routing, got, n)
		}
		if got := m.Idle.Load(); got != wantIdle {
			t.Fatalf("%v: idle = %d, want %d", routing, got, wantIdle)
		}
		if got := m.Transmissions.Load(); got != wantTx {
			t.Fatalf("%v: transmissions = %d, want %d", routing, got, wantTx)
		}
		// Services can lag transmissions: a head that went invalid between
		// the shuffle snapshot and service time still occupies a block rank
		// but is a Service() no-op.
		if tot := s.Totals(); m.Transmissions.Load() < tot.Services {
			t.Fatalf("%v: transmissions %d < Services %d", routing, m.Transmissions.Load(), tot.Services)
		}
		if got := m.Late.Load(); got != wantLate {
			t.Fatalf("%v: late = %d, want %d", routing, got, wantLate)
		}
		if got := m.HW.Load(); got != n*uint64(s.CyclesPerDecision()) {
			t.Fatalf("%v: hw cycles = %d, want %d", routing, got, n*uint64(s.CyclesPerDecision()))
		}
		if got := m.Occupancy.Count(); got != n-wantIdle {
			t.Fatalf("%v: occupancy samples = %d, want %d non-idle cycles", routing, got, n-wantIdle)
		}
		if m.Occupancy.Sum() != wantTx {
			t.Fatalf("%v: occupancy sum = %d, want %d", routing, m.Occupancy.Sum(), wantTx)
		}
		if routing == WinnerOnly {
			// WR charges loser expiries; the obs counter must match the
			// Missed accounting net of late transmissions.
			if got, want := m.Expiries.Load(), s.Totals().Missed-wantLate; got != want {
				t.Fatalf("WR: expiries = %d, want %d (Missed %d − late %d)", got, want, s.Totals().Missed, wantLate)
			}
		}
	}
}

// TestTracerRecordsMatchCycles replays the tracer dump against retained
// cycle results: the last K records must mirror the last K cycles exactly.
func TestTracerRecordsMatchCycles(t *testing.T) {
	s := backloggedScheduler(t, 4, decision.DWCS, BlockRouting)
	m, _ := instrument(t, s)
	type kept struct {
		decision, time uint64
		winner         attr.SlotID
		occ            int
	}
	var log []kept
	s.RunCycles(1000, func(cr *CycleResult) bool {
		log = append(log, kept{cr.Decision, cr.Time, cr.Winner, len(cr.Transmissions)})
		return true
	})
	dump := m.Tracer.Dump()
	if len(dump) != m.Tracer.Cap() {
		t.Fatalf("dump len %d, want full ring %d", len(dump), m.Tracer.Cap())
	}
	tail := log[len(log)-len(dump):]
	for i, rec := range dump {
		want := tail[i]
		if rec.Decision != want.decision || rec.Time != want.time ||
			rec.Winner != uint32(want.winner) || int(rec.Occupancy) != want.occ {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
		if !rec.Idle && rec.WinnerKey == 0 {
			t.Fatalf("record %d: non-idle cycle with zero winner key", i)
		}
	}
}

// TestInstrumentValidation rejects partial bundles and accepts detach.
func TestInstrumentValidation(t *testing.T) {
	s := backloggedScheduler(t, 4, decision.DWCS, WinnerOnly)
	if err := s.Instrument(&Metrics{}); err == nil {
		t.Fatal("partial bundle must be rejected")
	}
	m, _ := instrument(t, s)
	s.RunCycles(10, nil)
	if m.Decisions.Load() != 10 {
		t.Fatalf("decisions = %d, want 10", m.Decisions.Load())
	}
	if err := s.Instrument(nil); err != nil {
		t.Fatal(err)
	}
	s.RunCycles(10, nil)
	if m.Decisions.Load() != 10 {
		t.Fatalf("detached bundle still recorded: %d", m.Decisions.Load())
	}
}
