package hwsim

import (
	"fmt"
	"strings"
	"testing"
)

// counter is a toy component: next = cur + in, where in is sampled from
// another counter's *current* output, proving two-phase ordering.
type counter struct {
	reg Reg[int]
	in  func() int
}

func (c *counter) Evaluate() { c.reg.Set(c.reg.Get() + c.in()) }
func (c *counter) Commit()   { c.reg.Commit() }

func TestTwoPhaseOrdering(t *testing.T) {
	// b samples a's current value; a increments by 1 each cycle. If commit
	// leaked into the same cycle, b would see a's *next* value.
	a := &counter{in: func() int { return 1 }}
	var b *counter
	b = &counter{in: func() int { return a.reg.Get() }}
	clk := NewClock()
	clk.Attach(a, b)

	// cycle 1: a: 0->1, b: 0+a.cur(0)=0
	clk.Step()
	if a.reg.Get() != 1 || b.reg.Get() != 0 {
		t.Fatalf("after cycle 1: a=%d b=%d, want 1 0", a.reg.Get(), b.reg.Get())
	}
	// cycle 2: a: 1->2, b: 0+a.cur(1)=1
	clk.Step()
	if a.reg.Get() != 2 || b.reg.Get() != 1 {
		t.Fatalf("after cycle 2: a=%d b=%d, want 2 1", a.reg.Get(), b.reg.Get())
	}
}

func TestTwoPhaseOrderIndependent(t *testing.T) {
	// Attaching components in the opposite order must give identical
	// behaviour — that's the point of two-phase simulation.
	run := func(swap bool) (int, int) {
		a := &counter{in: func() int { return 1 }}
		b := &counter{}
		b.in = func() int { return a.reg.Get() }
		clk := NewClock()
		if swap {
			clk.Attach(b, a)
		} else {
			clk.Attach(a, b)
		}
		for i := 0; i < 10; i++ {
			clk.Step()
		}
		return a.reg.Get(), b.reg.Get()
	}
	a1, b1 := run(false)
	a2, b2 := run(true)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("attachment order changed results: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestRegSetWithoutCommitInvisible(t *testing.T) {
	var r Reg[string]
	r.Set("staged")
	if r.Get() != "" {
		t.Fatalf("staged value visible before commit: %q", r.Get())
	}
	r.Commit()
	if r.Get() != "staged" {
		t.Fatalf("value not visible after commit: %q", r.Get())
	}
}

func TestRegCommitWithoutSetKeepsValue(t *testing.T) {
	var r Reg[int]
	r.Set(7)
	r.Commit()
	r.Commit() // no Set in between: must hold
	if r.Get() != 7 {
		t.Fatalf("register lost value on idle commit: %d", r.Get())
	}
}

func TestRegReset(t *testing.T) {
	var r Reg[int]
	r.Set(3)
	r.Reset(42)
	r.Commit() // a pending Set must not survive Reset
	if r.Get() != 42 {
		t.Fatalf("Reset did not clear pending Set: %d", r.Get())
	}
}

func TestClockCycleCount(t *testing.T) {
	clk := NewClock()
	for i := 0; i < 17; i++ {
		clk.Step()
	}
	if clk.Cycle() != 17 {
		t.Fatalf("Cycle() = %d, want 17", clk.Cycle())
	}
}

func TestTraceBoundedAndOrdered(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Add(Event{Cycle: uint64(i), Signal: "sig", Value: fmt.Sprint(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("trace retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := fmt.Sprint(6 + i); e.Value != want {
			t.Errorf("event %d value = %s, want %s", i, e.Value, want)
		}
		if e.Cycle != uint64(6+i) {
			t.Errorf("event %d cycle = %d, want %d", i, e.Cycle, 6+i)
		}
	}
	if tr.Len() != 4 {
		t.Errorf("Len() = %d, want 4", tr.Len())
	}
}

func TestTraceUnfilled(t *testing.T) {
	tr := NewTrace(100)
	tr.Add(Event{Cycle: 0, Signal: "a", Value: "1"})
	tr.Add(Event{Cycle: 1, Signal: "b", Value: "2"})
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	ev := tr.Events()
	if ev[0].Signal != "a" || ev[1].Signal != "b" {
		t.Fatalf("events out of order: %v", ev)
	}
	if ev[1].Cycle != 1 {
		t.Fatalf("second event cycle = %d, want 1", ev[1].Cycle)
	}
}

func TestTraceDumpFilter(t *testing.T) {
	tr := NewTrace(10)
	tr.Add(Event{Signal: "ctl.state", Value: "LOAD"})
	tr.Add(Event{Signal: "slot0.deadline", Value: "5"})
	tr.Add(Event{Signal: "ctl.state", Value: "SCHEDULE"})
	dump := tr.Dump("ctl")
	if strings.Contains(dump, "slot0") {
		t.Errorf("filter leaked unrelated signal:\n%s", dump)
	}
	if n := strings.Count(dump, "ctl.state"); n != 2 {
		t.Errorf("filtered dump has %d ctl.state lines, want 2:\n%s", n, dump)
	}
}
