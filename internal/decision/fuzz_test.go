package decision

import (
	"testing"

	"repro/internal/attr"
)

// FuzzCompareConsistency drives the Decision block with arbitrary attribute
// words and checks the hardware-correctness invariants: the verdict
// partitions the inputs, is port-order independent, and agrees with the
// Less predicate.
func FuzzCompareConsistency(f *testing.F) {
	f.Add(uint16(1), uint8(0), uint8(0), uint16(0), uint16(2), uint8(1), uint8(2), uint16(3), true, true)
	f.Add(uint16(5), uint8(1), uint8(4), uint16(9), uint16(5), uint8(1), uint8(2), uint16(0), true, false)
	f.Add(uint16(0xFFFE), uint8(0), uint8(9), uint16(7), uint16(2), uint8(0), uint8(3), uint16(7), false, true)
	f.Fuzz(func(t *testing.T, d1 uint16, n1, y1 uint8, a1 uint16,
		d2 uint16, n2, y2 uint8, a2 uint16, v1, v2 bool) {
		a := attr.Attributes{Deadline: attr.Time16(d1), LossNum: n1, LossDen: y1,
			Arrival: attr.Time16(a1), Slot: 0, Valid: v1}
		b := attr.Attributes{Deadline: attr.Time16(d2), LossNum: n2, LossDen: y2,
			Arrival: attr.Time16(a2), Slot: 1, Valid: v2}
		for _, mode := range []Mode{DWCS, TagOnly} {
			vab := compare(mode, a, b)
			vba := compare(mode, b, a)
			if vab.Winner.Slot == vab.Loser.Slot {
				t.Fatalf("mode %v: winner == loser", mode)
			}
			if vab.Winner.Slot != vba.Winner.Slot {
				t.Fatalf("mode %v: port order changed the winner", mode)
			}
			if got := Less(mode, a, b); got != (vab.Winner.Slot == a.Slot) {
				t.Fatalf("mode %v: Less inconsistent with Compare", mode)
			}
			// Validity rule: a backlogged slot never loses to an empty one.
			if a.Valid && !b.Valid && vab.Winner.Slot != a.Slot {
				t.Fatalf("mode %v: empty slot beat a backlogged one", mode)
			}
		}
	})
}

func BenchmarkCompareDWCS(b *testing.B) {
	x := attr.Attributes{Deadline: 100, LossNum: 1, LossDen: 4, Arrival: 5, Slot: 0, Valid: true}
	y := attr.Attributes{Deadline: 100, LossNum: 1, LossDen: 2, Arrival: 7, Slot: 1, Valid: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compare(DWCS, x, y)
	}
}

func BenchmarkCompareTagOnly(b *testing.B) {
	x := attr.Attributes{Deadline: 100, Arrival: 5, Slot: 0, Valid: true}
	y := attr.Attributes{Deadline: 101, Arrival: 7, Slot: 1, Valid: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compare(TagOnly, x, y)
	}
}
