package dwcs

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/regblock"
	"repro/internal/traffic"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("accepted zero streams")
	}
	s, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(5, attr.Spec{Class: attr.EDF, Period: 1}, &traffic.Periodic{Backlogged: true}); err == nil {
		t.Error("accepted out-of-range index")
	}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF}, &traffic.Periodic{Backlogged: true}); err == nil {
		t.Error("accepted invalid spec")
	}
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 1}, nil); err == nil {
		t.Error("accepted nil source")
	}
	if len(s.streams) != 2 {
		t.Errorf("%d streams", len(s.streams))
	}
}

func TestPickIdle(t *testing.T) {
	s, _ := New(4)
	s.Start()
	if w := s.Pick(); w != -1 {
		t.Fatalf("Pick on empty scheduler = %d, want -1", w)
	}
	r := s.RunCycle()
	if r.Winner != -1 {
		t.Fatalf("RunCycle winner = %d, want -1", r.Winner)
	}
	if s.now != 1 || s.Decisions != 1 {
		t.Fatalf("clock did not advance on idle cycle")
	}
}

func TestEDFPickAndRotation(t *testing.T) {
	s, _ := New(4)
	for i := 0; i < 4; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	for i := 0; i < 4000; i++ {
		s.RunCycle()
	}
	for i := 0; i < 4; i++ {
		w := s.streams[i].Counters.Wins
		if w < 900 || w > 1100 {
			t.Errorf("stream %d wins = %d, want ≈1000 (round-robin under backlog)", i, w)
		}
	}
}

func TestWindowAdjustmentsMatchHardware(t *testing.T) {
	// Drive one WC stream through wins and misses in both implementations
	// and compare the register trajectories.
	spec := attr.Spec{Class: attr.WindowConstrained, Period: 2, Constraint: attr.Constraint{Num: 2, Den: 5}}

	hw, err := regblock.New(0, spec, &traffic.Periodic{Gap: 2, Backlogged: true})
	if err != nil {
		t.Fatal(err)
	}
	hw.Load(0)

	sw, _ := New(1)
	if err := sw.Admit(0, spec, &traffic.Periodic{Gap: 2, Backlogged: true}); err != nil {
		t.Fatal(err)
	}
	sw.Start()
	st := sw.streams[0]

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		if rng.Intn(2) == 0 {
			hw.Service(false, true)
			st.service(false)
		} else {
			now := hw.Deadline64() + 1
			hw.ExpireCheck(now)
			st.expire(now)
		}
		h := hw.Out()
		if h.LossNum != st.x || h.LossDen != st.y {
			t.Fatalf("step %d: hw %d/%d vs sw %d/%d", step, h.LossNum, h.LossDen, st.x, st.y)
		}
		if hw.Deadline64() != st.Deadline() {
			t.Fatalf("step %d: hw deadline %d vs sw %d", step, hw.Deadline64(), st.Deadline())
		}
	}
}

// TestLessMatchesDecisionBlock pins the independent software rule cascade
// against the hardware Decision block on random attribute pairs.
func TestLessMatchesDecisionBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		mk := func(idx int) (*Stream, attr.Attributes) {
			d := uint64(rng.Intn(1 << 14))
			x := uint8(rng.Intn(5))
			y := uint8(rng.Intn(5))
			arr := uint64(rng.Intn(1 << 14))
			valid := rng.Intn(8) != 0
			st := &Stream{valid: valid, deadline: d, arrival: arr, x: x, y: y}
			a := attr.Attributes{
				Deadline: attr.WrapTime(d),
				LossNum:  x,
				LossDen:  y,
				Arrival:  attr.WrapTime(arr),
				Slot:     attr.SlotID(idx),
				Valid:    valid,
			}
			return st, a
		}
		s0, a0 := mk(0)
		s1, a1 := mk(1)
		swFirst := Less(s0, s1, 0, 1)
		hwFirst := decision.Less(decision.DWCS, a0, a1)
		if swFirst != hwFirst {
			t.Fatalf("trial %d: sw=%v hw=%v for\n%+v (x/y=%d/%d)\n%+v (x/y=%d/%d)",
				trial, swFirst, hwFirst, a0, s0.x, s0.y, a1, s1.x, s1.y)
		}
	}
}

// TestCrossValidateAgainstHardwareEDF runs the software scheduler and the
// hardware model (winner-only configuration) over identical EDF workloads
// and requires the same winner every decision cycle and identical counters.
func TestCrossValidateAgainstHardwareEDF(t *testing.T) {
	const n, cycles = 4, 5000
	hw, err := core.New(core.Config{Slots: n, Routing: core.WinnerOnly})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := New(n)
	for i := 0; i < n; i++ {
		spec := attr.Spec{Class: attr.EDF, Period: uint16(1 + i%2)}
		if err := hw.Admit(i, spec, &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Admit(i, spec, &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Start(); err != nil {
		t.Fatal(err)
	}
	sw.Start()
	for c := 0; c < cycles; c++ {
		hr := hw.RunCycle()
		sr := sw.RunCycle()
		if int(hr.Winner) != sr.Winner {
			t.Fatalf("cycle %d: hardware winner %d vs software %d", c, hr.Winner, sr.Winner)
		}
		if len(hr.Transmissions) > 0 && hr.Transmissions[0].Late != sr.Late {
			t.Fatalf("cycle %d: lateness diverged (hw %v sw %v)", c, hr.Transmissions[0].Late, sr.Late)
		}
	}
	for i := 0; i < n; i++ {
		if hw.SlotCounters(i) != sw.streams[i].Counters {
			t.Fatalf("stream %d counters diverged:\nhw %+v\nsw %+v", i, hw.SlotCounters(i), sw.streams[i].Counters)
		}
	}
}

// TestCrossValidateMixedClasses extends the oracle run to a mixed workload
// (EDF + window-constrained + static-priority).
func TestCrossValidateMixedClasses(t *testing.T) {
	const n, cycles = 4, 3000
	specs := []attr.Spec{
		{Class: attr.EDF, Period: 3},
		{Class: attr.WindowConstrained, Period: 2, Constraint: attr.Constraint{Num: 1, Den: 3}},
		{Class: attr.WindowConstrained, Period: 4, Constraint: attr.Constraint{Num: 2, Den: 4}},
		{Class: attr.StaticPriority, Priority: 20000},
	}
	hw, err := core.New(core.Config{Slots: n, Routing: core.WinnerOnly})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := New(n)
	for i, spec := range specs {
		if err := hw.Admit(i, spec, &traffic.Periodic{Gap: 2, Phase: uint64(i), Backlogged: true}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Admit(i, spec, &traffic.Periodic{Gap: 2, Phase: uint64(i), Backlogged: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Start(); err != nil {
		t.Fatal(err)
	}
	sw.Start()
	for c := 0; c < cycles; c++ {
		hr := hw.RunCycle()
		sr := sw.RunCycle()
		if int(hr.Winner) != sr.Winner {
			t.Fatalf("cycle %d: hardware winner %d vs software %d", c, hr.Winner, sr.Winner)
		}
	}
	for i := 0; i < n; i++ {
		if hw.SlotCounters(i) != sw.streams[i].Counters {
			t.Fatalf("stream %d counters diverged:\nhw %+v\nsw %+v", i, hw.SlotCounters(i), sw.streams[i].Counters)
		}
	}
}

func TestGatedTrafficIdleThenServe(t *testing.T) {
	s, _ := New(2)
	if err := s.Admit(0, attr.Spec{Class: attr.EDF, Period: 5}, &traffic.Periodic{Gap: 5, Phase: 3}); err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 3; i++ {
		s.Advance()
		if r := s.RunCycle(); r.Winner != -1 {
			t.Fatalf("cycle %d: winner %d before first arrival", i, r.Winner)
		}
	}
	s.Advance()
	if r := s.RunCycle(); r.Winner != 0 {
		t.Fatal("stream not served after arrival")
	}
}

// BenchmarkPick measures the O(N) software decision — the §4.1
// processor-resident scheduler latency, to set against the paper's ≈50 µs
// (300 MHz UltraSPARC) and ≈67 µs (66 MHz i960RD) numbers.
func BenchmarkPick(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 128, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			s, _ := New(n)
			for i := 0; i < n; i++ {
				spec := attr.Spec{Class: attr.WindowConstrained, Period: uint16(1 + i%7),
					Constraint: attr.Constraint{Num: uint8(i % 3), Den: uint8(3 + i%5)}}
				if err := s.Admit(i, spec, &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}); err != nil {
					b.Fatal(err)
				}
			}
			s.Start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunCycle()
			}
		})
	}
}

func sizeName(n int) string {
	return "N" + string(rune('0'+n/1000%10)) + string(rune('0'+n/100%10)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}
