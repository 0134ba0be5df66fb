package core

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/regblock"
	"repro/internal/traffic"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"4 slots ok", Config{Slots: 4}, true},
		{"32 slots ok", Config{Slots: 32}, true},
		{"1024 ok", Config{Slots: 1024}, true},
		{"too small", Config{Slots: 1}, false},
		{"not pow2", Config{Slots: 12}, false},
		{"too big", Config{Slots: 2048}, false},
		{"wr exact sort", Config{Slots: 4, Routing: WinnerOnly, ExactSort: true}, false},
		{"ba exact sort ok", Config{Slots: 4, ExactSort: true}, true},
		{"bad routing", Config{Slots: 4, Routing: Routing(7)}, false},
		{"bad circulate", Config{Slots: 4, Circulate: Circulate(7)}, false},
		{"bad mode", Config{Slots: 4, Mode: decision.Mode(7)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestStrings(t *testing.T) {
	if BlockRouting.String() != "BA" || WinnerOnly.String() != "WR" || Routing(9).String() != "routing(9)" {
		t.Error("Routing.String misbehaved")
	}
	if MaxFirst.String() != "max-first" || MinFirst.String() != "min-first" || Circulate(9).String() != "circulate(9)" {
		t.Error("Circulate.String misbehaved")
	}
}

// edfScheduler builds an n-slot scheduler with backlogged EDF streams whose
// deadlines start one time unit apart (the Table 3 workload shape).
func edfScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Slots; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdmitErrors(t *testing.T) {
	s, err := New(Config{Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := &traffic.Periodic{Gap: 1, Backlogged: true}
	if err := s.Admit(-1, attr.Spec{Class: attr.EDF, Period: 1}, src); err == nil {
		t.Error("negative slot accepted")
	}
	if err := s.Admit(4, attr.Spec{Class: attr.EDF, Period: 1}, src); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF}, src); err == nil {
		t.Error("invalid spec accepted")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	before := s.HWCycles()
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
		t.Fatalf("Admit after Start: %v", err)
	}
	if got := s.HWCycles() - before; got != 1 {
		t.Errorf("Admit after Start cost %d clocks, want 1 (single-slot LOAD)", got)
	}
	if err := s.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestTagOnlyRejectsWindowConstrained(t *testing.T) {
	s, _ := New(Config{Slots: 4, Mode: decision.TagOnly})
	spec := attr.Spec{Class: attr.WindowConstrained, Period: 1, Constraint: attr.Constraint{Num: 1, Den: 2}}
	if err := s.Admit(0, spec, &traffic.Periodic{Gap: 1, Backlogged: true}); err == nil {
		t.Error("tag-only datapath accepted a window-constrained stream")
	}
}

func TestRunCycleBeforeStartPanics(t *testing.T) {
	s, _ := New(Config{Slots: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("RunCycle before Start did not panic")
		}
	}()
	s.RunCycle()
}

func TestWinnerOnlyBasicEDF(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	cr := s.RunCycle()
	if cr.Idle {
		t.Fatal("cycle idle with backlogged streams")
	}
	if cr.Winner != 0 {
		t.Fatalf("first winner = slot %d, want 0 (earliest deadline)", cr.Winner)
	}
	if len(cr.Transmissions) != 1 {
		t.Fatalf("WR transmitted %d frames, want 1", len(cr.Transmissions))
	}
	tx := cr.Transmissions[0]
	if tx.Late {
		t.Fatal("first transmission late (deadline 1 at time 0)")
	}
	if tx.Rank != 0 {
		t.Fatalf("WR rank = %d, want 0", tx.Rank)
	}
}

func TestBlockTransmitsWholeBacklog(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: BlockRouting, Circulate: MaxFirst})
	cr := s.RunCycle()
	if len(cr.Transmissions) != 4 {
		t.Fatalf("BA transmitted %d frames, want 4", len(cr.Transmissions))
	}
	// Max-first transmits head-first: slots in deadline order 0,1,2,3.
	for r, tx := range cr.Transmissions {
		if int(tx.Slot) != r || tx.Rank != r {
			t.Fatalf("rank %d: slot %d rank %d", r, tx.Slot, tx.Rank)
		}
		if tx.Late {
			t.Fatalf("rank %d late (deadline %d at time 0)", r, tx.Deadline)
		}
	}
	if cr.Winner != 0 {
		t.Fatalf("max-first circulated slot %d, want 0", cr.Winner)
	}
}

func TestBlockMinFirstTailCirculationAndOrder(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: BlockRouting, Circulate: MinFirst})
	cr := s.RunCycle()
	if cr.Winner != 3 {
		t.Fatalf("min-first circulated slot %d, want 3 (latest deadline)", cr.Winner)
	}
	// Tail-first transmission: 3,2,1,0.
	wantOrder := []attr.SlotID{3, 2, 1, 0}
	for r, tx := range cr.Transmissions {
		if tx.Slot != wantOrder[r] {
			t.Fatalf("rank %d: slot %d, want %d", r, tx.Slot, wantOrder[r])
		}
	}
	// Slot 0 (deadline 1) goes out at rank 3 => time 3 > deadline 1: late.
	last := cr.Transmissions[3]
	if !last.Late {
		t.Fatal("min-first tail-first order must violate slot 0's deadline")
	}
}

func TestIdleWhenNoTraffic(t *testing.T) {
	s, _ := New(Config{Slots: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cr := s.RunCycle()
	if !cr.Idle || len(cr.Transmissions) != 0 {
		t.Fatalf("expected idle cycle, got %+v", cr)
	}
	if s.IdleCycles() != 1 {
		t.Fatalf("IdleCycles = %d, want 1", s.IdleCycles())
	}
}

func TestPartialBacklogSkipsInvalidSlots(t *testing.T) {
	s, _ := New(Config{Slots: 4, Routing: BlockRouting})
	// Only slots 1 and 2 admitted.
	for _, i := range []int{1, 2} {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cr := s.RunCycle()
	if len(cr.Transmissions) != 2 {
		t.Fatalf("transmitted %d frames, want 2 (invalid slots excluded)", len(cr.Transmissions))
	}
	for _, tx := range cr.Transmissions {
		if tx.Slot != 1 && tx.Slot != 2 {
			t.Fatalf("transmitted un-admitted slot %d", tx.Slot)
		}
	}
}

func TestTimeGatedArrivalRefill(t *testing.T) {
	// A stream whose first packet arrives at t=3: the slot idles, then
	// refills.
	s, _ := New(Config{Slots: 2, Routing: WinnerOnly})
	src := &traffic.Periodic{Gap: 10, Phase: 3}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 10}, src); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if cr := s.RunCycle(); !cr.Idle {
			t.Fatalf("cycle %d not idle before first arrival", i)
		}
	}
	cr := s.RunCycle() // t=3: packet released
	if cr.Idle || cr.Winner != 0 {
		t.Fatalf("t=3 cycle: %+v, want slot 0 transmission", cr)
	}
	if got := s.SlotCounters(0); got.Services != 1 || got.Met != 1 {
		t.Fatalf("slot counters = %+v", got)
	}
}

func TestHWCycleAccounting(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int // per decision cycle
	}{
		// log2(4)=2 passes + 1 circulate + 1 update + 4 ingest = 8
		{Config{Slots: 4}, 8},
		// WR same timeline at N=4
		{Config{Slots: 4, Routing: WinnerOnly}, 8},
		// 32 slots: 5 + 1 + 1 + 32 = 39
		{Config{Slots: 32}, 39},
		// tag-only bypasses PRIORITY_UPDATE: 2 + 1 + 0 + 4 = 7
		{Config{Slots: 4, Mode: decision.TagOnly}, 7},
		// compute-ahead folds the update cycle: 7
		{Config{Slots: 4, ComputeAhead: true}, 7},
		// exact sort: 3 passes + 1 + 1 + 4 = 9
		{Config{Slots: 4, ExactSort: true}, 9},
	}
	for _, c := range cases {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CyclesPerDecision(); got != c.want {
			t.Errorf("%+v: CyclesPerDecision = %d, want %d", c.cfg, got, c.want)
		}
	}
	// Cumulative accounting: LOAD(N) + n cycles * per-cycle.
	s := edfScheduler(t, Config{Slots: 4})
	s.RunFor(10)
	if got, want := s.HWCycles(), uint64(4+10*8); got != want {
		t.Errorf("HWCycles = %d, want %d", got, want)
	}
	if s.Decisions() != 10 || s.Now() != 10 {
		t.Errorf("Decisions/Now = %d/%d, want 10/10", s.Decisions(), s.Now())
	}
}

func TestBlockMaxFirstMeetsAllDeadlines(t *testing.T) {
	// The Table 3 headline at small scale: staggered EDF backlogged
	// streams, block max-first, zero misses.
	s := edfScheduler(t, Config{Slots: 4, Routing: BlockRouting, Circulate: MaxFirst})
	s.RunFor(1000)
	tot := s.Totals()
	if tot.Missed != 0 {
		t.Fatalf("block max-first missed %d deadlines, want 0", tot.Missed)
	}
	if tot.Services != 4000 {
		t.Fatalf("services = %d, want 4000", tot.Services)
	}
}

func TestBlockMinFirstViolatesDeadlines(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: BlockRouting, Circulate: MinFirst})
	s.RunFor(1000)
	tot := s.Totals()
	if tot.Missed == 0 {
		t.Fatal("block min-first missed no deadlines; expected violations")
	}
	// The earliest-deadline stream (slot 0) bears the misses.
	if c := s.SlotCounters(0); c.Missed == 0 {
		t.Fatalf("slot 0 counters = %+v, expected misses", c)
	}
}

func TestMaxFindingOverloadMissesNearlyAll(t *testing.T) {
	// 4x overload in WR: per-stream missed ≈ cycles - met, met small.
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	const cycles = 1000
	s.RunFor(cycles)
	tot := s.Totals()
	if tot.Services != cycles {
		t.Fatalf("WR transmitted %d frames in %d cycles", tot.Services, cycles)
	}
	missRate := float64(tot.Missed) / float64(4*cycles)
	if missRate < 0.95 {
		t.Fatalf("miss rate = %.3f, want ≈1 under 4x overload", missRate)
	}
}

func TestComputeAheadPreservesSchedule(t *testing.T) {
	// Compute-ahead is a timing optimization; the decision sequence must
	// be identical.
	run := func(ca bool) []attr.SlotID {
		s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly, ComputeAhead: ca})
		var winners []attr.SlotID
		for i := 0; i < 200; i++ {
			cr := s.RunCycle()
			winners = append(winners, cr.Winner)
		}
		return winners
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: winner %d vs %d with compute-ahead", i, a[i], b[i])
		}
	}
}

func TestExactSortBlockOrderSorted(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 8, Routing: BlockRouting, ExactSort: true})
	for i := 0; i < 100; i++ {
		cr := s.RunCycle()
		for r := 1; r < len(cr.Transmissions); r++ {
			a, b := cr.Transmissions[r-1], cr.Transmissions[r]
			if b.Deadline.Before(a.Deadline) {
				t.Fatalf("cycle %d: exact-sort block out of order at rank %d", i, r)
			}
		}
	}
}

func TestWindowConstrainedMixedStreams(t *testing.T) {
	// A DWCS scheduler serving a mix: one EDF, one window-constrained,
	// one static-priority, one fair-tag stream — the paper's headline
	// "mix of EDF, static-priority and fair-share streams" claim.
	s, err := New(Config{Slots: 4, Routing: WinnerOnly})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(i int, spec attr.Spec, src regblock.HeadSource) {
		t.Helper()
		if err := s.Admit(i, spec, src); err != nil {
			t.Fatal(err)
		}
	}
	admit(0, attr.Spec{Class: attr.EDF, Period: 4}, &traffic.Periodic{Gap: 4, Backlogged: true})
	admit(1, attr.Spec{Class: attr.WindowConstrained, Period: 4, Constraint: attr.Constraint{Num: 1, Den: 2}},
		&traffic.Periodic{Gap: 4, Backlogged: true})
	// Background classes use large-but-wrap-safe tag values: the 16-bit
	// comparator is only valid within half the wrap window of the
	// real-time deadlines (which stay small here).
	admit(2, attr.Spec{Class: attr.StaticPriority, Priority: 30000}, &traffic.Periodic{Gap: 1, Backlogged: true})
	tags := make([]uint64, 100)
	arrs := make([]uint64, 100)
	for i := range tags {
		arrs[i] = uint64(i)
		tags[i] = uint64(20000 + i*10)
	}
	tagged, err := traffic.NewTagged(arrs, tags)
	if err != nil {
		t.Fatal(err)
	}
	admit(3, attr.Spec{Class: attr.FairTag, Weight: 1}, tagged)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(100)
	// Real-time streams (earlier deadlines) must dominate service; the
	// static-priority (60000) and fair-tag (≥50000) streams only fill
	// gaps, and the scheduler must not wedge.
	c0, c1 := s.SlotCounters(0), s.SlotCounters(1)
	if c0.Services == 0 || c1.Services == 0 {
		t.Fatalf("real-time streams starved: %+v %+v", c0, c1)
	}
	if s.Totals().Services != 100 {
		t.Fatalf("total services = %d, want 100 (one per WR cycle)", s.Totals().Services)
	}
}

func TestTotalsAggregation(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: WinnerOnly})
	s.RunFor(50)
	tot := s.Totals()
	var sum regblock.Counters
	for i := 0; i < 4; i++ {
		c := s.SlotCounters(i)
		sum.Wins += c.Wins
		sum.Services += c.Services
		sum.Met += c.Met
		sum.Missed += c.Missed
		sum.Drops += c.Drops
		sum.Violations += c.Violations
	}
	if tot != sum {
		t.Fatalf("Totals %+v != per-slot sum %+v", tot, sum)
	}
	if tot.Wins != 50 {
		t.Fatalf("wins = %d, want 50", tot.Wins)
	}
}

func TestTransmissionsBufferReused(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4, Routing: BlockRouting})
	cr1 := s.RunCycle()
	first := cr1.Transmissions[0].Slot
	_ = first
	ptr1 := &cr1.Transmissions[0]
	cr2 := s.RunCycle()
	ptr2 := &cr2.Transmissions[0]
	if ptr1 != ptr2 {
		t.Log("buffer not reused; acceptable but unexpected")
	}
	// Documented contract: results must be copied to be retained. This
	// test just pins that the buffer has stable capacity (no growth).
	if cap(cr2.Transmissions) != 4 {
		t.Fatalf("transmission buffer capacity = %d, want 4", cap(cr2.Transmissions))
	}
}

func TestSlotAttributesExposed(t *testing.T) {
	s := edfScheduler(t, Config{Slots: 4})
	a := s.SlotAttributes(2)
	if !a.Valid || a.Slot != 2 {
		t.Fatalf("SlotAttributes(2) = %+v", a)
	}
	if s.Network() == nil || s.Network().Slots() != 4 {
		t.Fatal("Network accessor broken")
	}
	if s.Config().Slots != 4 {
		t.Fatal("Config accessor broken")
	}
}

// TestSlotAccessorsOutOfRange: the diagnostic accessors validate their slot
// index like Admit does, returning zero values instead of panicking on bad
// input.
func TestSlotAccessorsOutOfRange(t *testing.T) {
	s, err := New(Config{Slots: 4, Routing: WinnerOnly})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 2},
		&traffic.Periodic{Gap: 1, Backlogged: true}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 4, 1000} {
		if c := s.SlotCounters(i); c != (regblock.Counters{}) {
			t.Errorf("SlotCounters(%d) = %+v, want zero", i, c)
		}
		if a := s.SlotAttributes(i); a != (attr.Attributes{}) {
			t.Errorf("SlotAttributes(%d) = %+v, want zero", i, a)
		}
		if sp := s.SlotSpec(i); sp != (attr.Spec{}) {
			t.Errorf("SlotSpec(%d) = %+v, want zero", i, sp)
		}
	}
	// In-range accessors still report the admitted stream.
	if sp := s.SlotSpec(0); sp.Class != attr.EDF || sp.Period != 2 {
		t.Errorf("SlotSpec(0) = %+v", sp)
	}
}
