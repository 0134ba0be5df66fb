package regblock

import (
	"testing"
	"testing/quick"

	"repro/internal/attr"
)

// sliceSource feeds a fixed sequence of heads.
type sliceSource struct {
	heads []Head
	next  int
}

func (s *sliceSource) NextHead() (Head, bool) {
	if s.next >= len(s.heads) {
		return Head{}, false
	}
	h := s.heads[s.next]
	s.next++
	return h, true
}

// periodicSource generates arrivals 0, step, 2*step, ... endlessly.
type periodicSource struct {
	step uint64
	k    uint64
}

func (s *periodicSource) NextHead() (Head, bool) {
	h := Head{Arrival: s.k}
	s.k += s.step
	return h, true
}

func edfSpec(period uint16) attr.Spec { return attr.Spec{Class: attr.EDF, Period: period} }

func wcSpec(period uint16, x, y uint8) attr.Spec {
	return attr.Spec{Class: attr.WindowConstrained, Period: period, Constraint: attr.Constraint{Num: x, Den: y}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, attr.Spec{Class: attr.EDF}, &periodicSource{step: 1}); err == nil {
		t.Error("New accepted an invalid spec (zero period)")
	}
	if _, err := New(0, edfSpec(1), nil); err == nil {
		t.Error("New accepted a nil source")
	}
}

func TestLoadAnchorsDeadline(t *testing.T) {
	src := &sliceSource{heads: []Head{{Arrival: 10}}}
	b, err := New(3, edfSpec(5), src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Valid() {
		t.Fatal("slot valid before Load")
	}
	b.Load(10)
	out := b.Out()
	if !out.Valid || out.Deadline != 15 || out.Arrival != 10 || out.Slot != 3 {
		t.Fatalf("after Load: %+v, want valid deadline=15 arrival=10 slot=3", out)
	}
}

func TestLoadEmptySourceStaysInvalid(t *testing.T) {
	b, _ := New(0, edfSpec(1), &sliceSource{})
	b.Load(0)
	if b.Valid() {
		t.Fatal("empty source must leave slot invalid")
	}
}

func TestServiceAdvancesDeadlineByPeriod(t *testing.T) {
	b, _ := New(0, edfSpec(4), &periodicSource{step: 4})
	b.Load(0)
	d0 := b.Out().Deadline // 0+4 = 4
	b.Service(false, true)
	if got := b.Out().Deadline; got != d0.Add(4) {
		t.Fatalf("deadline after service = %d, want %d", got, d0.Add(4))
	}
	if c := b.Counters; c.Services != 1 || c.Met != 1 || c.Missed != 0 || c.Wins != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestServiceLateCountsMissed(t *testing.T) {
	b, _ := New(0, edfSpec(1), &periodicSource{step: 1})
	b.Load(0)
	b.Service(true, true)
	if c := b.Counters; c.Missed != 1 || c.Met != 0 || c.Services != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestServiceNotCirculatedNoWin(t *testing.T) {
	// In block mode non-circulated members transmit without the win credit.
	b, _ := New(0, edfSpec(1), &periodicSource{step: 1})
	b.Load(0)
	b.Service(false, false)
	if c := b.Counters; c.Wins != 0 || c.Services != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDeadlineReanchorsAfterIdle(t *testing.T) {
	// Packet 0 arrives at 0 (deadline 2); packet 1 arrives at 100 — way
	// past the old deadline — so the new deadline must re-anchor to 102,
	// not 4.
	src := &sliceSource{heads: []Head{{Arrival: 0}, {Arrival: 100}}}
	b, _ := New(0, edfSpec(2), src)
	b.Load(0)
	b.Service(false, true)
	if got := b.Out().Deadline; got != 102 {
		t.Fatalf("re-anchored deadline = %d, want 102", got)
	}
}

func TestDeadlineSynthesisUnderBacklog(t *testing.T) {
	// All packets already arrived (backlog): deadlines must step by
	// exactly the period regardless of arrival times.
	src := &sliceSource{heads: []Head{{Arrival: 0}, {Arrival: 0}, {Arrival: 1}, {Arrival: 1}}}
	b, _ := New(0, edfSpec(3), src)
	b.Load(0)
	want := []attr.Time16{3, 6, 9, 12}
	for i, w := range want {
		if got := b.Out().Deadline; got != w {
			t.Fatalf("packet %d deadline = %d, want %d", i, got, w)
		}
		b.Service(false, true)
	}
}

func TestSourceExhaustionInvalidatesAndRefill(t *testing.T) {
	src := &sliceSource{heads: []Head{{Arrival: 0}}}
	b, _ := New(0, edfSpec(1), src)
	b.Load(0)
	b.Service(false, true)
	if b.Valid() {
		t.Fatal("slot should be invalid after source exhaustion")
	}
	// Queue refills later.
	src.heads = append(src.heads, Head{Arrival: 50})
	b.Refill(50)
	if !b.Valid() || b.Out().Deadline != 51 {
		t.Fatalf("after Refill: %+v, want valid deadline=51", b.Out())
	}
	// Refill on a valid slot is a no-op.
	d := b.Out().Deadline
	b.Refill(60)
	if b.Out().Deadline != d {
		t.Fatal("Refill mutated a valid slot")
	}
}

func TestExpireCheckEDFTicksWithoutDrop(t *testing.T) {
	// EDF losers charge one miss per decision cycle while due, but keep
	// their head queued (it will be transmitted late) — the Table 3
	// accounting.
	b, _ := New(0, edfSpec(2), &periodicSource{step: 2})
	b.Load(0) // deadline 2
	if b.ExpireCheck(2) {
		t.Fatal("deadline == now must not expire (still schedulable at now)")
	}
	if !b.ExpireCheck(3) {
		t.Fatal("deadline 2 at now=3 must expire")
	}
	if !b.ExpireCheck(4) {
		t.Fatal("same stale head must tick again next cycle")
	}
	if c := b.Counters; c.Drops != 0 || c.Missed != 2 || c.Services != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if got := b.Out().Deadline; got != 2 {
		t.Fatalf("EDF head must stay queued; deadline = %d, want 2", got)
	}
	if b.Deadline64() != 2 || b.Arrival64() != 0 {
		t.Fatalf("shadow times = %d/%d, want 2/0", b.Deadline64(), b.Arrival64())
	}
}

func TestExpireCheckWCDropsAndAdvances(t *testing.T) {
	// Window-constrained losers drop the expired head (the tolerated
	// loss) and advance to the successor.
	b, _ := New(0, wcSpec(2, 1, 4), &periodicSource{step: 2})
	b.Load(0) // deadline 2
	if !b.ExpireCheck(3) {
		t.Fatal("deadline 2 at now=3 must expire")
	}
	if c := b.Counters; c.Drops != 1 || c.Missed != 1 || c.Services != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if got := b.Out().Deadline; got != 4 {
		t.Fatalf("deadline after drop = %d, want 4", got)
	}
}

func TestExpireCheckSkipsNonDeadlineClasses(t *testing.T) {
	for _, spec := range []attr.Spec{
		{Class: attr.StaticPriority, Priority: 3},
		{Class: attr.FairTag, Weight: 1},
	} {
		b, _ := New(0, spec, &sliceSource{heads: []Head{{Arrival: 0, Tag: 0}}})
		b.Load(0)
		if b.ExpireCheck(1000) {
			t.Errorf("class %v expired", spec.Class)
		}
		if b.Counters.Missed != 0 {
			t.Errorf("class %v charged a miss", spec.Class)
		}
	}
}

func TestStaticPriorityInvariant(t *testing.T) {
	b, _ := New(0, attr.Spec{Class: attr.StaticPriority, Priority: 7}, &periodicSource{step: 1})
	b.Load(0)
	for i := 0; i < 5; i++ {
		if got := b.Out().Deadline; got != 7 {
			t.Fatalf("static priority drifted to %d", got)
		}
		b.Service(false, true)
	}
}

func TestFairTagLoadsFromSource(t *testing.T) {
	src := &sliceSource{heads: []Head{{Arrival: 0, Tag: 10}, {Arrival: 1, Tag: 25}}}
	b, _ := New(0, attr.Spec{Class: attr.FairTag, Weight: 2}, src)
	b.Load(0)
	if b.Out().Deadline != 10 {
		t.Fatalf("first tag = %d, want 10", b.Out().Deadline)
	}
	b.Service(false, true)
	if b.Out().Deadline != 25 {
		t.Fatalf("second tag = %d, want 25", b.Out().Deadline)
	}
}

func TestWindowWinnerAdjustSequence(t *testing.T) {
	// W = 1/3. Service repeatedly (all on time):
	// (1,3) -> y>x: (1,2) -> y>x: (1,1) -> x==y>0: (0,0) -> reset (1,3).
	b, _ := New(0, wcSpec(1, 1, 3), &periodicSource{step: 1})
	b.Load(0)
	want := [][2]uint8{{1, 2}, {1, 1}, {1, 3}}
	for i, w := range want {
		b.Service(false, true)
		out := b.Out()
		if out.LossNum != w[0] || out.LossDen != w[1] {
			t.Fatalf("after service %d: x/y = %d/%d, want %d/%d", i+1, out.LossNum, out.LossDen, w[0], w[1])
		}
	}
}

func TestWindowLoserAdjustAndViolation(t *testing.T) {
	// W = 1/2, period 1. Let deadlines expire repeatedly:
	// miss: x>0: (0,1) ; miss: x==0: violation, y++: (0,2); miss: (0,3)...
	b, _ := New(0, wcSpec(1, 1, 2), &periodicSource{step: 1})
	b.Load(0) // deadline 1
	now := uint64(2)
	steps := [][2]uint8{{0, 1}, {0, 2}, {0, 3}}
	for i, w := range steps {
		if !b.ExpireCheck(now + uint64(i)) {
			t.Fatalf("step %d: expected expiry (deadline %d, now %d)", i, b.Out().Deadline, now+uint64(i))
		}
		out := b.Out()
		if out.LossNum != w[0] || out.LossDen != w[1] {
			t.Fatalf("after miss %d: x/y = %d/%d, want %d/%d", i+1, out.LossNum, out.LossDen, w[0], w[1])
		}
	}
	if b.Counters.Violations != 2 {
		t.Fatalf("violations = %d, want 2", b.Counters.Violations)
	}
}

func TestWindowLoserResetOnWindowExhausted(t *testing.T) {
	// W = 2/2: two misses exhaust the window exactly -> reset to 2/2.
	b, _ := New(0, wcSpec(1, 2, 2), &periodicSource{step: 1})
	b.Load(0)
	b.ExpireCheck(5) // (1,1)
	out := b.Out()
	if out.LossNum != 1 || out.LossDen != 1 {
		t.Fatalf("after first miss: %d/%d, want 1/1", out.LossNum, out.LossDen)
	}
	b.ExpireCheck(6) // (0,0) -> reset (2,2)
	out = b.Out()
	if out.LossNum != 2 || out.LossDen != 2 {
		t.Fatalf("after window exhaustion: %d/%d, want reset 2/2", out.LossNum, out.LossDen)
	}
	if b.Counters.Violations != 0 {
		t.Fatalf("violations = %d, want 0 (losses within tolerance)", b.Counters.Violations)
	}
}

func TestWindowDenominatorSaturates(t *testing.T) {
	b, _ := New(0, wcSpec(1, 0, 255), &periodicSource{step: 1})
	b.Load(0)
	for i := 0; i < 5; i++ {
		b.ExpireCheck(uint64(10 + i))
	}
	if got := b.Out().LossDen; got != 255 {
		t.Fatalf("denominator = %d, want saturated 255", got)
	}
}

// TestWindowInvariants property-tests the DWCS adjustment arithmetic: with
// x <= y initially, x' <= y' always, and y' == 0 implies x' == 0 (the
// registers never underflow or cross).
func TestWindowInvariants(t *testing.T) {
	f := func(x, y uint8, ops []bool) bool {
		if y == 0 || x > y {
			return true
		}
		b, err := New(0, wcSpec(1, x, y), &periodicSource{step: 1})
		if err != nil {
			return true
		}
		b.Load(0)
		for _, win := range ops {
			if win {
				b.Service(false, true)
			} else {
				b.ExpireCheck(b.Deadline64() + 1) // force expiry
			}
			out := b.Out()
			if out.LossDen > 0 && out.LossNum > out.LossDen {
				return false
			}
			if out.LossDen == 0 && out.LossNum != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestComputeAheadMatchesActual(t *testing.T) {
	// The winner preview's deadline/window fields must equal the state
	// after an actual backlogged Service; same for loser preview vs
	// ExpireCheck when expired.
	f := func(x, y uint8, period uint16, winner bool) bool {
		if y == 0 || x > y {
			return true
		}
		p := period%100 + 1
		mk := func() *Block {
			b, _ := New(0, wcSpec(p, x, y), &periodicSource{step: 0}) // fully backlogged
			b.Load(0)
			return b
		}
		b := mk()
		now := b.Deadline64() + 1
		ifW, ifL := b.ComputeAhead(now)
		if winner {
			b.Service(false, true)
			got := b.Out()
			return got.Deadline == ifW.Deadline && got.LossNum == ifW.LossNum && got.LossDen == ifW.LossDen
		}
		b.ExpireCheck(now)
		got := b.Out()
		return got.Deadline == ifL.Deadline && got.LossNum == ifL.LossNum && got.LossDen == ifL.LossDen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestComputeAheadLoserUnexpiredUnchanged(t *testing.T) {
	b, _ := New(0, wcSpec(4, 1, 2), &periodicSource{step: 4})
	b.Load(0)
	_, ifL := b.ComputeAhead(0) // deadline 4, now 0: not expired
	if ifL != b.Out() {
		t.Fatalf("unexpired loser preview changed: %+v vs %+v", ifL, b.Out())
	}
}

func TestComputeAheadInvalidSlot(t *testing.T) {
	b, _ := New(0, edfSpec(1), &sliceSource{})
	b.Load(0)
	ifW, ifL := b.ComputeAhead(0)
	if ifW.Valid || ifL.Valid {
		t.Fatal("invalid slot previews must stay invalid")
	}
}

func TestServiceOnInvalidSlotIsNoop(t *testing.T) {
	b, _ := New(0, edfSpec(1), &sliceSource{})
	b.Load(0)
	b.Service(false, true)
	if b.Counters.Services != 0 {
		t.Fatal("Service on invalid slot charged a counter")
	}
}

func TestSpecAndSlotAccessors(t *testing.T) {
	spec := wcSpec(7, 1, 4)
	b, _ := New(9, spec, &periodicSource{step: 1})
	if b.Out().Slot != 9 {
		t.Errorf("Out().Slot = %d, want 9", b.Out().Slot)
	}
	if b.Spec() != spec {
		t.Errorf("Spec() = %+v, want %+v", b.Spec(), spec)
	}
}

func TestDeadlineWrapBehaviour(t *testing.T) {
	// Deadlines must stay ordered across the 16-bit wrap.
	b, _ := New(0, edfSpec(100), &periodicSource{step: 100, k: 65400})
	b.Load(65400)
	d0 := b.Out().Deadline // 65500
	b.Service(false, true) // next deadline 65600 -> wraps to 64
	d1 := b.Out().Deadline
	if !d0.Before(d1) {
		t.Fatalf("wrapped deadline %d not after %d", d1, d0)
	}
}

func BenchmarkServiceBacklogged(b *testing.B) {
	blk, _ := New(0, wcSpec(4, 1, 4), &periodicSource{step: 4})
	blk.Load(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Service(false, true)
	}
}

func BenchmarkExpireCheckWC(b *testing.B) {
	blk, _ := New(0, wcSpec(1, 1, 4), &periodicSource{step: 1})
	blk.Load(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.ExpireCheck(blk.Deadline64() + 1)
	}
}

func BenchmarkComputeAhead(b *testing.B) {
	blk, _ := New(0, wcSpec(4, 1, 4), &periodicSource{step: 4})
	blk.Load(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.ComputeAhead(uint64(i))
	}
}

// TestKeyCachedConsistency pins the key-cache invariant the scheduler hot
// path relies on: after *any* externally visible mutation sequence, the
// cached Key() equals repacking the current attribute word against the
// installed reference. The winner/loser window adjusts deliberately skip
// rekeying (advance always follows); this test would catch that assumption
// rotting.
func TestKeyCachedConsistency(t *testing.T) {
	check := func(blk *Block, ref attr.Time16, when string) {
		t.Helper()
		if got, want := blk.Key(), blk.Out().Key(ref); got != want {
			t.Fatalf("%s: cached key %#x, repacked %#x (word %+v)", when, got, want, blk.Out())
		}
	}

	blk, err := New(3, wcSpec(4, 1, 4), &periodicSource{step: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(blk, 0, "after New")
	blk.Load(0)
	check(blk, 0, "after Load")
	const ref = attr.Time16(0x4321)
	blk.SetKeyRef(ref)
	check(blk, ref, "after SetKeyRef")
	for i := 0; i < 8; i++ {
		blk.Service(false, true) // winner adjust + advance
		check(blk, ref, "after winner Service")
		blk.ExpireCheck(blk.Deadline64() + 1) // loser adjust + advance
		check(blk, ref, "after ExpireCheck")
	}

	// A draining source exercises the invalid paths.
	drained, err := New(1, wcSpec(2, 1, 2), &finiteSource{n: 1, step: 2})
	if err != nil {
		t.Fatal(err)
	}
	drained.Load(0)
	check(drained, 0, "finite after Load")
	drained.Service(false, true) // consumes the only head: slot goes invalid
	check(drained, 0, "after draining Service")
	drained.Refill(10)
	check(drained, 0, "after failed Refill")
}

// finiteSource yields n heads, then reports empty.
type finiteSource struct {
	n    int
	next uint64
	step uint64
}

func (s *finiteSource) NextHead() (Head, bool) {
	if s.n == 0 {
		return Head{}, false
	}
	s.n--
	h := Head{Arrival: s.next}
	s.next += s.step
	return h, true
}
