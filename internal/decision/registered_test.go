package decision

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/hwsim"
)

// TestRegisteredMatchesBehavioral pins the structural (rule-unit + mux +
// output register) model against the behavioral Compare over a large random
// sample — the reproduction's RTL-vs-reference check.
func TestRegisteredMatchesBehavioral(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mode := range []Mode{DWCS, TagOnly} {
		blk := &RegisteredBlock{Mode: mode}
		clk := hwsim.NewClock()
		clk.Attach(blk)
		for trial := 0; trial < 50000; trial++ {
			mk := func(slot attr.SlotID) attr.Attributes {
				return attr.Attributes{
					Deadline: attr.Time16(rng.Intn(1 << 16)),
					LossNum:  uint8(rng.Intn(5)),
					LossDen:  uint8(rng.Intn(5)),
					Arrival:  attr.Time16(rng.Intn(1 << 16)),
					Slot:     slot,
					Valid:    rng.Intn(5) != 0,
				}
			}
			a, b := mk(0), mk(1)
			blk.Drive(a, b)
			clk.Step()
			got := blk.Out()
			want := compare(mode, a, b)
			if got.Winner.Slot != want.Winner.Slot || got.Rule != want.Rule || got.Swapped != want.Swapped {
				t.Fatalf("mode %v trial %d:\nstructural %+v rule %v\nbehavioral %+v rule %v\nfor a=%+v b=%+v",
					mode, trial, got.Winner, got.Rule, want.Winner, want.Rule, a, b)
			}
		}
	}
}

// TestRegisteredOutputIsRegistered verifies the pipeline property: the
// verdict visible during a cycle is the one driven in the PREVIOUS cycle.
func TestRegisteredOutputIsRegistered(t *testing.T) {
	blk := &RegisteredBlock{Mode: DWCS}
	clk := hwsim.NewClock()
	clk.Attach(blk)
	a := attr.Attributes{Deadline: 1, Slot: 0, Valid: true}
	b := attr.Attributes{Deadline: 2, Slot: 1, Valid: true}
	blk.Drive(a, b)
	// Before any clock edge the output register holds the zero verdict.
	if blk.Out().Winner.Valid {
		t.Fatal("output visible before the clock edge")
	}
	clk.Step()
	if blk.Out().Winner.Slot != 0 {
		t.Fatalf("after edge: winner %d", blk.Out().Winner.Slot)
	}
	// Reverse the inputs; the old verdict must persist until the edge.
	blk.Drive(b, a)
	if blk.Out().Winner.Slot != 0 {
		t.Fatal("output changed before the edge")
	}
	clk.Step()
	if blk.Out().Winner.Slot != 0 || !blk.Out().Swapped {
		t.Fatalf("after second edge: %+v", blk.Out())
	}
}

// TestRegisteredHoldsWithoutDrive pins that an undriven cycle leaves the
// registered verdict unchanged (the bus idles, the register holds).
func TestRegisteredHoldsWithoutDrive(t *testing.T) {
	blk := &RegisteredBlock{Mode: DWCS}
	clk := hwsim.NewClock()
	clk.Attach(blk)
	blk.Drive(
		attr.Attributes{Deadline: 5, Slot: 0, Valid: true},
		attr.Attributes{Deadline: 9, Slot: 1, Valid: true},
	)
	clk.Step()
	want := blk.Out()
	for i := 0; i < 3; i++ { // idle cycles
		clk.Step()
	}
	if blk.Out() != want {
		t.Fatalf("verdict drifted across idle cycles: %+v vs %+v", blk.Out(), want)
	}
}
