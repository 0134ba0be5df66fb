package decision

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
)

func at(deadline uint16, num, den uint8, arrival uint16, slot attr.SlotID) attr.Attributes {
	return attr.Attributes{
		Deadline: attr.Time16(deadline),
		LossNum:  num,
		LossDen:  den,
		Arrival:  attr.Time16(arrival),
		Slot:     slot,
		Valid:    true,
	}
}

func TestRule1EarliestDeadlineFirst(t *testing.T) {
	a := at(10, 1, 2, 0, 0)
	b := at(11, 0, 9, 0, 1)
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 0 || v.Rule != RuleEDF {
		t.Fatalf("winner=%d rule=%v, want slot 0 via edf", v.Winner.Slot, v.Rule)
	}
	// Deadline dominates everything else, including a "better" constraint.
	v = compare(DWCS, b, a)
	if v.Winner.Slot != 0 || !v.Swapped {
		t.Fatalf("winner=%d swapped=%v, want slot 0 swapped", v.Winner.Slot, v.Swapped)
	}
}

func TestRule1WrapAwareDeadline(t *testing.T) {
	// 0xFFFE is earlier than 0x0002 across the wrap.
	a := at(0xFFFE, 0, 0, 0, 0)
	b := at(0x0002, 0, 0, 0, 1)
	if v := compare(DWCS, a, b); v.Winner.Slot != 0 {
		t.Fatalf("wrap-aware EDF picked slot %d, want 0", v.Winner.Slot)
	}
}

func TestRule2LowestConstraintFirst(t *testing.T) {
	a := at(5, 1, 4, 9, 0) // W = 0.25
	b := at(5, 1, 2, 0, 1) // W = 0.5
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 0 || v.Rule != RuleLowestConstraint {
		t.Fatalf("winner=%d rule=%v, want slot 0 via lowest-constraint", v.Winner.Slot, v.Rule)
	}
}

func TestRule3ZeroConstraintsHighestDenominator(t *testing.T) {
	a := at(5, 0, 3, 0, 0)
	b := at(5, 0, 9, 1, 1)
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 1 || v.Rule != RuleHighestDenominator {
		t.Fatalf("winner=%d rule=%v, want slot 1 via highest-denominator", v.Winner.Slot, v.Rule)
	}
}

func TestRule4EqualNonZeroLowestNumerator(t *testing.T) {
	a := at(5, 2, 4, 9, 0) // W = 0.5
	b := at(5, 1, 2, 0, 1) // W = 0.5, lower numerator
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 1 || v.Rule != RuleLowestNumerator {
		t.Fatalf("winner=%d rule=%v, want slot 1 via lowest-numerator", v.Winner.Slot, v.Rule)
	}
}

func TestRule5FCFS(t *testing.T) {
	a := at(5, 1, 2, 7, 0)
	b := at(5, 1, 2, 3, 1) // identical constraints, earlier arrival
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 1 || v.Rule != RuleFCFS {
		t.Fatalf("winner=%d rule=%v, want slot 1 via fcfs", v.Winner.Slot, v.Rule)
	}
}

func TestSlotIDFinalTieBreak(t *testing.T) {
	a := at(5, 1, 2, 3, 4)
	b := at(5, 1, 2, 3, 2)
	v := compare(DWCS, a, b)
	if v.Winner.Slot != 2 || v.Rule != RuleSlotID {
		t.Fatalf("winner=%d rule=%v, want slot 2 via slot-id", v.Winner.Slot, v.Rule)
	}
}

func TestValidityDominates(t *testing.T) {
	invalid := attr.Attributes{Deadline: 0, Slot: 0, Valid: false} // "best" attributes but empty
	backlogged := at(0xFFF0, 9, 9, 9, 1)
	v := compare(DWCS, invalid, backlogged)
	if v.Winner.Slot != 1 || v.Rule != RuleValidity {
		t.Fatalf("winner=%d rule=%v, want slot 1 via validity", v.Winner.Slot, v.Rule)
	}
	// Both invalid: deterministic by slot.
	u := attr.Attributes{Slot: 3}
	w := attr.Attributes{Slot: 1}
	v = compare(DWCS, u, w)
	if v.Winner.Slot != 1 || v.Rule != RuleSlotID {
		t.Fatalf("two empty slots: winner=%d rule=%v, want slot 1 via slot-id", v.Winner.Slot, v.Rule)
	}
}

func TestTagOnlyIgnoresConstraints(t *testing.T) {
	a := at(5, 0, 9, 7, 0) // zero W, huge denominator — would win rule 3
	b := at(5, 1, 2, 3, 1) // earlier arrival
	v := compare(TagOnly, a, b)
	if v.Winner.Slot != 1 || v.Rule != RuleFCFS {
		t.Fatalf("tag-only winner=%d rule=%v, want slot 1 via fcfs", v.Winner.Slot, v.Rule)
	}
	// Tag (deadline field) still dominates.
	c := at(4, 9, 9, 99, 2)
	if v := compare(TagOnly, a, c); v.Winner.Slot != 2 || v.Rule != RuleEDF {
		t.Fatalf("tag-only winner=%d rule=%v, want slot 2 via edf", v.Winner.Slot, v.Rule)
	}
}

func arb(deadline uint16, num, den uint8, arrival uint16, slot uint8, valid bool) attr.Attributes {
	return attr.Attributes{
		Deadline: attr.Time16(deadline),
		LossNum:  num,
		LossDen:  den,
		Arrival:  attr.Time16(arrival),
		Slot:     attr.SlotID(slot),
		Valid:    valid,
	}
}

func TestCompareTotalAndAntisymmetric(t *testing.T) {
	for _, mode := range []Mode{DWCS, TagOnly} {
		f := func(d1 uint16, n1, y1 uint8, a1 uint16, s1 uint8, v1 bool,
			d2 uint16, n2, y2 uint8, a2 uint16, s2 uint8, v2 bool) bool {
			a := arb(d1, n1, y1, a1, s1, v1)
			b := arb(d2, n2, y2, a2, s2, v2)
			if a.Slot == b.Slot {
				return true // same slot never meets itself in the network
			}
			va := compare(mode, a, b)
			vb := compare(mode, b, a)
			// Same winner regardless of port order.
			if va.Winner.Slot != vb.Winner.Slot || va.Loser.Slot != vb.Loser.Slot {
				return false
			}
			// Winner/loser partition the inputs.
			if va.Winner.Slot != a.Slot && va.Winner.Slot != b.Slot {
				return false
			}
			return va.Winner.Slot != va.Loser.Slot
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestLessMatchesCompare(t *testing.T) {
	f := func(d1 uint16, n1, y1 uint8, a1 uint16, s1 uint8,
		d2 uint16, n2, y2 uint8, a2 uint16, s2 uint8) bool {
		a := arb(d1, n1, y1, a1, s1, true)
		b := arb(d2, n2, y2, a2, s2, true)
		if a.Slot == b.Slot {
			return true
		}
		v := compare(DWCS, a, b)
		return Less(DWCS, a, b) == (v.Winner.Slot == a.Slot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLessStrictWeakOrder checks transitivity-style sanity on random triples:
// if a<b and b<c then a<c must hold for the comparator to be usable in a
// sorting network.
func TestLessStrictWeakOrder(t *testing.T) {
	f := func(d [3]uint16, n, y [3]uint8, ar [3]uint16) bool {
		var x [3]attr.Attributes
		for i := range x {
			// Constrain deadlines/arrivals to a quarter of the wrap
			// window so serial-number order is a total order.
			x[i] = arb(d[i]%0x4000, n[i], y[i], ar[i]%0x4000, uint8(i), true)
		}
		less := func(i, j int) bool { return Less(DWCS, x[i], x[j]) }
		if less(0, 1) && less(1, 2) && !less(0, 2) {
			return false
		}
		if less(2, 1) && less(1, 0) && !less(2, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBlockCounters(t *testing.T) {
	var b Block // zero value is DWCS mode
	if b.Mode != DWCS {
		t.Fatal("zero Block should be DWCS mode")
	}
	b.Compare(at(1, 0, 0, 0, 0), at(2, 0, 0, 0, 1))
	b.Compare(at(5, 1, 4, 0, 0), at(5, 1, 2, 0, 1))
	b.Compare(at(5, 1, 2, 3, 0), at(5, 1, 2, 3, 1))
	if b.Compares != 3 {
		t.Errorf("Compares = %d, want 3", b.Compares)
	}
	if b.RuleHits[RuleEDF] != 1 || b.RuleHits[RuleLowestConstraint] != 1 || b.RuleHits[RuleSlotID] != 1 {
		t.Errorf("rule hits = %v", b.RuleHits)
	}
}

func TestRuleStrings(t *testing.T) {
	if RuleEDF.String() != "edf" || Rule(200).String() != "rule(200)" {
		t.Error("Rule.String misbehaved")
	}
	if DWCS.String() != "dwcs" || TagOnly.String() != "tag-only" || Mode(9).String() != "mode(9)" {
		t.Error("Mode.String misbehaved")
	}
}
