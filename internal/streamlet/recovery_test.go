package streamlet

import (
	"testing"

	"repro/internal/regblock"
)

func TestBacklogServesInOrder(t *testing.T) {
	b := NewBacklog([]regblock.Head{{Arrival: 1}, {Arrival: 2}})
	b.Push(regblock.Head{Arrival: 3})
	if n := len(b.heads) - b.next; n != 3 {
		t.Fatalf("remaining %d, want 3", n)
	}
	for want := uint64(1); want <= 3; want++ {
		h, ok := b.NextHead()
		if !ok || h.Arrival != want {
			t.Fatalf("head %v/%v, want arrival %d", h, ok, want)
		}
	}
	if _, ok := b.NextHead(); ok {
		t.Fatal("exhausted backlog still served")
	}
	if n := len(b.heads) - b.next; n != 0 {
		t.Fatalf("remaining %d after drain", n)
	}
}

func TestDiscardPendingRollsBackService(t *testing.T) {
	set, err := NewSet(1, []regblock.HeadSource{
		NewBacklog([]regblock.Head{{Arrival: 1}, {Arrival: 3}}),
		NewBacklog([]regblock.Head{{Arrival: 2}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := a.NextHead(); !ok {
			t.Fatalf("head %d missing", i)
		}
	}
	if _, _, err := a.OnTransmit(64); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 2 {
		t.Fatalf("pending %d, want 2", a.Pending())
	}
	var undone []int
	n := a.DiscardPending(func(set, sl int) { undone = append(undone, sl) })
	if n != 2 || a.Pending() != 0 {
		t.Fatalf("discarded %d (pending %d), want 2/0", n, a.Pending())
	}
	// Heads were dequeued RR: streamlet 0 (arr 1), 1 (arr 2), 0 (arr 3); the
	// first was transmitted, so the abandoned ones came from 1 then 0.
	if len(undone) != 2 || undone[0] != 1 || undone[1] != 0 {
		t.Fatalf("undo providers %v, want [1 0]", undone)
	}
	if a.Served != 1 {
		t.Fatalf("aggregate Served %d after rollback, want 1", a.Served)
	}
	if s0, s1 := set.Streamlet(0).Served, set.Streamlet(1).Served; s0 != 1 || s1 != 0 {
		t.Fatalf("streamlet Served %d/%d after rollback, want 1/0", s0, s1)
	}
	// A transmit after the discard has no outstanding head to charge.
	if _, _, err := a.OnTransmit(64); err == nil {
		t.Fatal("transmit after discard must fail")
	}
}
