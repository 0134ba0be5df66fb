package core_test

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/traffic"
)

// Example builds the Table 3 workload on the block (BA) configuration and
// shows one sorted block transaction.
func Example() {
	sched, _ := core.New(core.Config{Slots: 4, Routing: core.BlockRouting})
	for i := 0; i < 4; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		_ = sched.Admit(i, attr.Spec{Class: attr.EDF, Period: 1}, src)
	}
	_ = sched.Start()
	cr := sched.RunCycle()
	fmt.Printf("circulated winner: slot %d\n", cr.Winner)
	fmt.Printf("block size: %d, hardware clocks: %d\n", len(cr.Transmissions), cr.HWCycles)
	// Output:
	// circulated winner: slot 0
	// block size: 4, hardware clocks: 8
}

// ExampleScheduler_Admit replaces a stream while the scheduler runs — the
// paper's operational model of streams arriving at the card.
func ExampleScheduler_Admit() {
	sched, _ := core.New(core.Config{Slots: 2, Routing: core.WinnerOnly})
	_ = sched.Admit(0, attr.Spec{Class: attr.EDF, Period: 2},
		&traffic.Periodic{Gap: 2, Backlogged: true})
	_ = sched.Start()
	sched.RunFor(10)
	// A new stream takes over slot 1 mid-operation.
	err := sched.Admit(1, attr.Spec{Class: attr.EDF, Period: 4},
		&traffic.Periodic{Gap: 4, Phase: sched.Now(), Backlogged: true})
	fmt.Println("admitted:", err == nil)
	sched.RunFor(40)
	fmt.Println("slot 1 served:", sched.SlotCounters(1).Services > 0)
	// Output:
	// admitted: true
	// slot 1 served: true
}

// ExampleScheduler_Trace captures the control unit's FSM activity.
func ExampleScheduler_Trace() {
	sched, _ := core.New(core.Config{Slots: 2, Routing: core.WinnerOnly, TraceDepth: 16})
	_ = sched.Admit(0, attr.Spec{Class: attr.EDF, Period: 1},
		&traffic.Periodic{Gap: 1, Backlogged: true})
	_ = sched.Start()
	sched.RunCycle()
	for _, e := range sched.Trace().Events() {
		if e.Signal == "ctl.state" {
			fmt.Println(e.Value)
		}
	}
	// Output:
	// SCHEDULE
	// PRIORITY_UPDATE
}
