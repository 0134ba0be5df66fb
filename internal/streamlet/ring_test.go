package streamlet

import "testing"

// TestRingWrapAndGrow runs push/pop scripts against a slice model. A
// positive step pushes that many fresh providers, a negative one pops that
// many; wantCap is the buffer the script must end on.
func TestRingWrapAndGrow(t *testing.T) {
	cases := []struct {
		name    string
		script  []int
		wantCap int
	}{
		{"fill without wrap", []int{4, -4}, 4},
		{"wrap without grow", []int{3, -3, 3, -2, 3, -4, 4, -4}, 4},
		{"successor before charge never grows", []int{1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1}, 4},
		{"grow from empty buffer", []int{1, -1}, 4},
		{"grow while contiguous", []int{5, -5}, 8},
		{"grow while wrapped", []int{3, -2, 3, 1, -5}, 8},
		{"grow twice while wrapped", []int{4, -3, 3, 4, -1, 9, -16}, 16},
		{"drain and refill after grow", []int{9, -9, 16, -16}, 16},
	}
	for _, c := range cases {
		var r ring
		var model []provider
		next := 0
		for _, step := range c.script {
			for ; step > 0; step-- {
				p := provider{set: next, streamlet: -next}
				next++
				r.push(p)
				model = append(model, p)
			}
			for ; step < 0; step++ {
				if got := r.pop(); got != model[0] {
					t.Fatalf("%s: popped %+v, want %+v", c.name, got, model[0])
				}
				model = model[1:]
			}
			if r.n != len(model) {
				t.Fatalf("%s: ring holds %d, model %d", c.name, r.n, len(model))
			}
		}
		if len(r.buf) != c.wantCap {
			t.Errorf("%s: buffer of %d, want %d", c.name, len(r.buf), c.wantCap)
		}
	}
}

// TestDiscardPendingAcrossWrap wraps the provenance queue and then discards
// it: the undo callbacks must still arrive in dequeue order.
func TestDiscardPendingAcrossWrap(t *testing.T) {
	set, _ := NewSet(1, backlogged(5))
	agg, _ := New(set)
	// Three dequeue/charge rounds move the ring's head off zero; four more
	// dequeues then fill the four-entry buffer across its end.
	for i := 0; i < 3; i++ {
		agg.NextHead()
		if _, _, err := agg.OnTransmit(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		agg.NextHead()
	}
	if agg.pending.head == 0 || len(agg.pending.buf) != 4 {
		t.Fatalf("queue not wrapped: head %d of %d", agg.pending.head, len(agg.pending.buf))
	}
	var undone []int
	if n := agg.DiscardPending(func(_, sl int) { undone = append(undone, sl) }); n != 4 {
		t.Fatalf("discarded %d, want 4", n)
	}
	// Round robin over five streamlets: dequeues 3..6 came from 3, 4, 0, 1.
	want := []int{3, 4, 0, 1}
	for i := range want {
		if undone[i] != want[i] {
			t.Fatalf("undo order %v, want %v", undone, want)
		}
	}
	if agg.Pending() != 0 || agg.Served != 3 {
		t.Fatalf("after discard: pending %d served %d, want 0/3", agg.Pending(), agg.Served)
	}
}

// TestPendingStaysBoundedInService reproduces a served slot's call order —
// the successor is dequeued before the transmit is charged, so the queue is
// never empty — and requires the buffer to stay at its first size.
func TestPendingStaysBoundedInService(t *testing.T) {
	s1, _ := NewSet(2, backlogged(50))
	s2, _ := NewSet(1, backlogged(50))
	agg, _ := New(s1, s2)
	agg.NextHead()
	for i := 0; i < 100_000; i++ {
		agg.NextHead()
		if _, _, err := agg.OnTransmit(1000); err != nil {
			t.Fatal(err)
		}
		if agg.Pending() != 1 {
			t.Fatalf("cycle %d: %d heads outstanding, want 1", i, agg.Pending())
		}
	}
	if len(agg.pending.buf) != 4 {
		t.Fatalf("provenance buffer grew to %d entries", len(agg.pending.buf))
	}
}
