package dwcs

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/traffic"
)

// crossValidateBlock runs the hardware model in BA configuration against
// the software block oracle over an identical workload and compares the
// full transmission order, lateness flags, circulated winner and counters
// every cycle.
func crossValidateBlock(t *testing.T, circ core.Circulate, cycles int) {
	t.Helper()
	const n = 4
	hw, err := core.New(core.Config{Slots: n, Routing: core.BlockRouting, Circulate: circ})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := New(n)
	for i := 0; i < n; i++ {
		spec := attr.Spec{Class: attr.EDF, Period: uint16(1 + i%3)}
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
	maxFirst := circ == core.MaxFirst
	for c := 0; c < cycles; c++ {
		hr := hw.RunCycle()
		sr := sw.RunBlockCycle(maxFirst)
		if int(hr.Winner) != sr.Circulated {
			t.Fatalf("cycle %d: circulated hw=%d sw=%d", c, hr.Winner, sr.Circulated)
		}
		if len(hr.Transmissions) != len(sr.Order) {
			t.Fatalf("cycle %d: block sizes %d vs %d", c, len(hr.Transmissions), len(sr.Order))
		}
		for r, tx := range hr.Transmissions {
			if int(tx.Slot) != sr.Order[r] || tx.Late != sr.Late[r] {
				t.Fatalf("cycle %d rank %d: hw slot %d late %v vs sw slot %d late %v",
					c, r, tx.Slot, tx.Late, sr.Order[r], sr.Late[r])
			}
		}
	}
	for i := 0; i < n; i++ {
		if hw.SlotCounters(i) != sw.streams[i].Counters {
			t.Fatalf("stream %d counters diverged:\nhw %+v\nsw %+v",
				i, hw.SlotCounters(i), sw.streams[i].Counters)
		}
	}
}

func TestCrossValidateBlockMaxFirst(t *testing.T) {
	crossValidateBlock(t, core.MaxFirst, 3000)
}

func TestCrossValidateBlockMinFirst(t *testing.T) {
	crossValidateBlock(t, core.MinFirst, 3000)
}

func TestBlockCycleIdle(t *testing.T) {
	s, _ := New(2)
	s.Start()
	res := s.RunBlockCycle(true)
	if res.Circulated != -1 || len(res.Order) != 0 {
		t.Fatalf("idle block cycle: %+v", res)
	}
	if s.Decisions != 1 {
		t.Fatal("idle cycle not counted")
	}
}

// TestBlockOracleTable3 re-derives Table 3's block columns from the
// independent software oracle: max-first meets every deadline; min-first
// misses one per cycle on the earliest-deadline stream.
func TestBlockOracleTable3(t *testing.T) {
	run := func(maxFirst bool) *Scheduler {
		s, _ := New(4)
		for i := 0; i < 4; i++ {
			src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
			if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src); err != nil {
				t.Fatal(err)
			}
		}
		s.Start()
		for c := 0; c < 4000; c++ {
			s.RunBlockCycle(maxFirst)
		}
		return s
	}
	maxF := run(true)
	var missed uint64
	for i := 0; i < 4; i++ {
		missed += maxF.streams[i].Counters.Missed
	}
	if missed != 0 {
		t.Fatalf("oracle max-first missed %d", missed)
	}
	minF := run(false)
	if got := minF.streams[0].Counters.Missed; got != 4000 {
		t.Fatalf("oracle min-first stream-1 missed %d, want 4000", got)
	}
}
