// Package hwsim is a minimal synchronous-logic simulation kernel used by the
// ShareStreams hardware model.
//
// The kernel models a single clock domain with two-phase semantics: on every
// cycle each registered Component first Evaluates (computes its next state
// purely from current-cycle outputs — combinational logic settling), then all
// components Commit (flip-flops latch on the clock edge). This ordering is
// what makes statements like "the winner ID is circulated to every Register
// Base block so that per-stream updates can be applied" behave like hardware:
// a value produced this cycle is not visible in stored state until the next
// edge.
//
// The package also provides a bounded trace buffer so the datapath can be
// inspected cycle-by-cycle in tests and in the sssim tool, loosely in the
// spirit of a VCD dump.
package hwsim

import (
	"fmt"
	"strings"
)

// Component is a clocked element in the design. Evaluate must read only
// current-cycle state (its own and other components') and stage next state
// internally; Commit makes the staged state current. The kernel guarantees
// every Evaluate in a cycle happens before any Commit in that cycle.
type Component interface {
	Evaluate()
	Commit()
}

// Clock drives a set of components through cycles and counts them.
type Clock struct {
	components []Component
	cycle      uint64
}

// NewClock returns a clock with no attached components.
func NewClock() *Clock { return &Clock{} }

// Attach registers components with the clock, in evaluation order. Order is
// irrelevant for correctness (two-phase); a deterministic order keeps
// every run identical.
func (c *Clock) Attach(comps ...Component) { c.components = append(c.components, comps...) }

// Cycle returns the number of completed cycles.
func (c *Clock) Cycle() uint64 { return c.cycle }

// Step advances the design by one clock cycle: all Evaluates, then all
// Commits, then the cycle counter increments.
func (c *Clock) Step() {
	for _, comp := range c.components {
		comp.Evaluate()
	}
	for _, comp := range c.components {
		comp.Commit()
	}
	c.cycle++
}

// Event is one traced signal change.
type Event struct {
	Cycle  uint64
	Signal string
	Value  string
}

// String formats the event as "@cycle signal=value".
func (e Event) String() string { return fmt.Sprintf("@%d %s=%s", e.Cycle, e.Signal, e.Value) }

// Trace is a bounded ring of trace events.
type Trace struct {
	events []Event
	next   int
	full   bool
}

// NewTrace builds a bounded trace buffer keeping the latest limit events
// (at least one), for components that count their own cycles (e.g. the
// scheduler control unit).
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = 1
	}
	return &Trace{events: make([]Event, limit)}
}

// Add records an event; once the buffer is full it overwrites the oldest.
func (t *Trace) Add(e Event) {
	t.events[t.next] = e
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.full = true
	}
}

// Events returns the retained events in chronological order.
func (t *Trace) Events() []Event {
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.events[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t.full {
		return len(t.events)
	}
	return t.next
}

// Dump renders the retained events one per line, optionally filtered to
// signals containing the substring filter (empty keeps everything).
func (t *Trace) Dump(filter string) string {
	var b strings.Builder
	for _, e := range t.Events() {
		if filter == "" || strings.Contains(e.Signal, filter) {
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Reg is a generic clocked register: Set stages a next value during
// Evaluate; the value becomes visible through Get after Commit. The zero
// value holds the zero value of T.
type Reg[T any] struct {
	cur, next T
	loaded    bool
}

// Get returns the current (committed) value.
func (r *Reg[T]) Get() T { return r.cur }

// Set stages v as the next value; it takes effect at the next Commit.
func (r *Reg[T]) Set(v T) { r.next, r.loaded = v, true }

// Reset immediately forces both current and staged value (out-of-band
// initialization, like a global reset line).
func (r *Reg[T]) Reset(v T) { r.cur, r.next, r.loaded = v, v, false }

// Evaluate is a no-op: registers stage through Set calls made by the logic
// that owns them.
func (r *Reg[T]) Evaluate() {}

// Commit latches the staged value if one was set this cycle.
func (r *Reg[T]) Commit() {
	if r.loaded {
		r.cur = r.next
		r.loaded = false
	}
}
