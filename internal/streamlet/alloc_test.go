package streamlet

import (
	"fmt"
	"testing"

	"repro/internal/regblock"
	"repro/internal/traffic"
)

// fig10Aggregator builds one stream-slot's aggregator the way Figure 10
// does — n streamlets in one set, or split 2:1 across two — with every other
// streamlet time-gated so the lazy clock is on the measured path.
func fig10Aggregator(tb testing.TB, n, sets int) *Aggregator {
	tb.Helper()
	mixed := func(count int) []regblock.HeadSource {
		srcs := make([]regblock.HeadSource, count)
		for i := range srcs {
			srcs[i] = &traffic.Periodic{Gap: 1, Backlogged: i%2 == 0}
		}
		return srcs
	}
	var ss []*Set
	if sets == 2 {
		s1, _ := NewSet(2, mixed(n/2))
		s2, _ := NewSet(1, mixed(n-n/2))
		ss = []*Set{s1, s2}
	} else {
		s, _ := NewSet(1, mixed(n))
		ss = []*Set{s}
	}
	agg, err := New(ss...)
	if err != nil {
		tb.Fatal(err)
	}
	return agg
}

// TestZeroAllocAggregate pins the steady-state service path — the clock
// stamp, the successor dequeue and the transmit charge of one decision
// cycle — at zero allocations per frame.
func TestZeroAllocAggregate(t *testing.T) {
	for _, sets := range []int{1, 2} {
		agg := fig10Aggregator(t, 100, sets)
		now := uint64(1 << 20) // every gated streamlet has arrivals to spare
		agg.Advance(now)
		agg.NextHead()
		failed := false
		allocs := testing.AllocsPerRun(2000, func() {
			now++
			agg.Advance(now)
			_, ok := agg.NextHead()
			_, _, err := agg.OnTransmit(1000)
			failed = failed || !ok || err != nil
		})
		if failed {
			t.Fatalf("%d sets: service stalled", sets)
		}
		if allocs != 0 {
			t.Errorf("%d sets: %v allocs per frame, want 0", sets, allocs)
		}
	}
}

// clockProbe is a time-gated source that counts its Advance calls.
type clockProbe struct {
	traffic.Periodic
	advances int
	last     uint64
}

func (c *clockProbe) Advance(now uint64) {
	c.advances++
	c.last = now
	c.Periodic.Advance(now)
}

// TestAdvanceIsLazy pins the clock contract: Advance touches no streamlet,
// and a streamlet sees exactly the latest stamp when it is next polled.
func TestAdvanceIsLazy(t *testing.T) {
	probes := make([]*clockProbe, 100)
	srcs := make([]regblock.HeadSource, len(probes))
	for i := range probes {
		probes[i] = &clockProbe{Periodic: traffic.Periodic{Gap: 1}}
		srcs[i] = probes[i]
	}
	set, _ := NewSet(1, srcs)
	agg, _ := New(set)
	agg.NextHead() // before any Advance: polled, but the clock is not forwarded
	for now := uint64(1); now <= 1000; now++ {
		agg.Advance(now)
	}
	for i, p := range probes {
		if p.advances != 0 {
			t.Fatalf("streamlet %d advanced %d times with no poll after the stamp", i, p.advances)
		}
	}
	if _, ok := agg.NextHead(); !ok {
		t.Fatal("no head at the stamped time")
	}
	// Streamlet 0 supplied the head before the first Advance, so the round
	// robin resumes at 1: it alone was polled, with the latest stamp.
	for i, p := range probes {
		want := 0
		if i == 1 {
			want = 1
		}
		if p.advances != want || (want == 1 && p.last != 1000) {
			t.Fatalf("streamlet %d: %d advances (last %d), want %d at 1000", i, p.advances, p.last, want)
		}
	}
}

// BenchmarkAggregatorAdvance shows Advance's cost is independent of the
// streamlet count.
func BenchmarkAggregatorAdvance(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("streamlets=%d", n), func(b *testing.B) {
			agg := fig10Aggregator(b, n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Advance(uint64(i))
			}
		})
	}
}

// BenchmarkAggregatorFrame is one frame's service: stamp, dequeue, charge.
func BenchmarkAggregatorFrame(b *testing.B) {
	for _, sets := range []int{1, 2} {
		b.Run(fmt.Sprintf("sets=%d", sets), func(b *testing.B) {
			agg := fig10Aggregator(b, 100, sets)
			agg.Advance(1 << 40)
			agg.NextHead()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Advance(1<<40 + uint64(i))
				agg.NextHead()
				agg.OnTransmit(1000)
			}
		})
	}
}
