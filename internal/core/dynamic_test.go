package core

import (
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/traffic"
)

func TestTraceRecordsFSM(t *testing.T) {
	s, err := New(Config{Slots: 4, Routing: WinnerOnly, TraceDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(3)
	tr := s.Trace()
	if tr == nil {
		t.Fatal("trace not enabled")
	}
	dump := tr.Dump("")
	for _, want := range []string{"ctl.state=SCHEDULE", "ctl.state=PRIORITY_UPDATE", "ctl.winner=0", "tx=slot=0 rank=0 late=false"} {
		if !strings.Contains(dump, want) {
			t.Errorf("trace missing %q:\n%s", want, dump)
		}
	}
}

func TestTraceIdleState(t *testing.T) {
	s, _ := New(Config{Slots: 2, TraceDepth: 8})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunCycle()
	if !strings.Contains(s.Trace().Dump(""), "ctl.state=IDLE") {
		t.Fatal("idle cycle not traced")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	s, _ := New(Config{Slots: 2})
	if s.Trace() != nil {
		t.Fatal("trace enabled without TraceDepth")
	}
}

// TestAdmitDynamicReplacesStream admits a stream after Start — dynamic
// admission — over an occupied slot.
func TestAdmitDynamicReplacesStream(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	s.RunFor(20)
	// A new stream arrives and takes over slot 2 mid-operation. Its
	// deadline anchors at arrival+period, so under EDF it first waits for
	// the established backlog's earlier deadlines to be worked off — then
	// joins the rotation.
	src := &traffic.Periodic{Gap: 1, Phase: s.Now(), Backlogged: true}
	if err := s.Admit(2, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
		t.Fatal(err)
	}
	if got := s.SlotCounters(2); got.Services != 0 {
		t.Fatalf("new stream inherited old counters: %+v", got)
	}
	s.RunFor(300)
	if got := s.SlotCounters(2).Services; got == 0 {
		t.Fatal("dynamically admitted stream never served")
	}
	// Scheduling must remain conservative: one service per WR cycle.
	if tot := s.Totals().Services; tot > 320 {
		t.Fatalf("services = %d across 320 cycles", tot)
	}
}

// TestAdmitDynamicValidation: Admit after Start rejects what it rejects
// before Start.
func TestAdmitDynamicValidation(t *testing.T) {
	s, _ := New(Config{Slots: 2, Mode: decision.TagOnly})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	src := &traffic.Periodic{Gap: 1, Backlogged: true}
	if err := s.Admit(5, attr.Spec{Class: attr.EDF, Period: 1}, src); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF}, src); err == nil {
		t.Error("invalid spec accepted")
	}
	wc := attr.Spec{Class: attr.WindowConstrained, Period: 1, Constraint: attr.Constraint{Num: 1, Den: 2}}
	if err := s.Admit(0, wc, src); err == nil {
		t.Error("tag-only datapath accepted a window-constrained stream")
	}
}

// TestAdmitDynamicCostsOneLoadClock: Admit after Start loads one slot in
// a single hardware clock.
func TestAdmitDynamicCostsOneLoadClock(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	before := s.HWCycles()
	src := &traffic.Periodic{Gap: 1, Backlogged: true}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 2}, src); err != nil {
		t.Fatal(err)
	}
	if got := s.HWCycles() - before; got != 1 {
		t.Fatalf("dynamic admission cost %d clocks, want 1 (single-slot LOAD)", got)
	}
}

func TestLongRunWrapSafety(t *testing.T) {
	// Run well past the 16-bit wrap (65536) and verify the counters stay
	// coherent: the datapath compares wrapped fields, the instrumentation
	// uses the 64-bit shadows.
	if testing.Short() {
		t.Skip("200k-cycle run")
	}
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	const cycles = 200000
	s.RunFor(cycles)
	tot := s.Totals()
	if tot.Services != cycles {
		t.Fatalf("services = %d, want %d (one per WR cycle)", tot.Services, cycles)
	}
	// Round-robin must persist across wraps: every slot within 2% of a
	// quarter share.
	for i := 0; i < 4; i++ {
		w := s.SlotCounters(i).Wins
		if w < cycles/4-cycles/50 || w > cycles/4+cycles/50 {
			t.Errorf("slot %d wins = %d, want ≈%d", i, w, cycles/4)
		}
	}
	// Overload accounting: met + missed bookkeeping must not wrap
	// negative or explode. In 4x overload, misses ≈ 4/cycle.
	if tot.Missed < 4*cycles*95/100 || tot.Missed > 4*cycles {
		t.Errorf("missed = %d, want ≈%d", tot.Missed, 4*cycles)
	}
}
