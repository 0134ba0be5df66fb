package click

import (
	"testing"
)

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewClassifier(); err == nil {
		t.Error("empty classifier accepted")
	}
	if _, err := NewClassifier(nil); err == nil {
		t.Error("nil classifier output accepted")
	}
	if _, err := NewQueue(0); err == nil {
		t.Error("zero-capacity queue accepted")
	}
	if _, err := NewRoundRobinSched(); err == nil {
		t.Error("empty scheduler accepted")
	}
	if _, err := NewSFQSched(0, 1); err == nil {
		t.Error("zero-bucket sfq accepted")
	}
	if _, err := NewToDevice(nil); err == nil {
		t.Error("nil sink source accepted")
	}
}

func TestQueueFIFOAndDrops(t *testing.T) {
	q, _ := NewQueue(2)
	q.Push(Packet{Flow: 1})
	q.Push(Packet{Flow: 2})
	q.Push(Packet{Flow: 3}) // dropped
	if q.Drops != 1 || q.Len() != 2 {
		t.Fatalf("drops %d len %d", q.Drops, q.Len())
	}
	p, ok := q.Pull()
	if !ok || p.Flow != 1 {
		t.Fatalf("pull = %+v %v", p, ok)
	}
	q.Push(Packet{Flow: 4})
	if q.Len() != 2 {
		t.Fatalf("len after refill = %d", q.Len())
	}
	if p, _ := q.Pull(); p.Flow != 2 {
		t.Fatal("not FIFO")
	}
}

func TestClassifierSpreadsByFlow(t *testing.T) {
	q1, _ := NewQueue(16)
	q2, _ := NewQueue(16)
	cls, _ := NewClassifier(q1, q2)
	for f := 0; f < 10; f++ {
		cls.Push(Packet{Flow: f})
	}
	if q1.Len() != 5 || q2.Len() != 5 {
		t.Fatalf("spread = %d/%d", q1.Len(), q2.Len())
	}
}

func TestRoundRobinSchedFair(t *testing.T) {
	q1, _ := NewQueue(16)
	q2, _ := NewQueue(16)
	for i := 0; i < 8; i++ {
		q1.Push(Packet{Flow: 0})
		q2.Push(Packet{Flow: 1})
	}
	s, _ := NewRoundRobinSched(q1, q2)
	var from [2]int
	for i := 0; i < 16; i++ {
		p, ok := s.Pull()
		if !ok {
			t.Fatal("pull failed")
		}
		from[p.Flow]++
	}
	if from[0] != 8 || from[1] != 8 {
		t.Fatalf("rr split = %v", from)
	}
	// Skips empty inputs.
	q1.Push(Packet{Flow: 0})
	if p, ok := s.Pull(); !ok || p.Flow != 0 {
		t.Fatal("did not skip empty input")
	}
	if _, ok := s.Pull(); ok {
		t.Fatal("pulled from empty graph")
	}
}

func TestCounterPassThrough(t *testing.T) {
	q, _ := NewQueue(4)
	c := NewCounter(q)
	c.Push(Packet{Size: 100})
	c.Push(Packet{Size: 50})
	if c.Packets != 2 || c.Bytes != 150 || q.Len() != 2 {
		t.Fatalf("counter %d/%d queue %d", c.Packets, c.Bytes, q.Len())
	}
	// Terminal counter (nil next) must not panic.
	NewCounter(nil).Push(Packet{Size: 1})
}

// routerDrops totals the graph's queue drops: the SFQ scheduler's when the
// router runs one, else the per-class FIFO queues'.
func routerDrops(r *Router) uint64 {
	if r.sfq != nil {
		return r.sfq.Drops
	}
	var d uint64
	for _, q := range r.queues {
		d += q.Drops
	}
	return d
}

func TestRouterForwardsAndConserves(t *testing.T) {
	for _, useSFQ := range []bool{false, true} {
		r, err := NewRouter(8, useSFQ)
		if err != nil {
			t.Fatal(err)
		}
		const total = 4000
		sent := 0
		for sent < total {
			// Interleave bursts of arrivals with transmit batches, as a
			// device driver would.
			for b := 0; b < 16 && sent < total; b++ {
				r.In.Push(Packet{Flow: sent % 32, Size: 64, Arrival: uint64(sent)})
				sent++
			}
			r.Out.Run(16)
		}
		for r.Out.Run(64) > 0 {
		}
		if drops := routerDrops(r); r.Out.Delivered+drops != total {
			t.Fatalf("useSFQ=%v: delivered %d + drops %d != %d",
				useSFQ, r.Out.Delivered, drops, total)
		}
		if r.Out.Delivered < total*9/10 {
			t.Fatalf("useSFQ=%v: excessive drops (%d delivered)", useSFQ, r.Out.Delivered)
		}
	}
}

func TestSFQSchedDropsWhenBucketFull(t *testing.T) {
	s, _ := NewSFQSched(2, 2)
	for i := 0; i < 5; i++ {
		s.Push(Packet{Flow: 0, Size: 10})
	}
	if s.Drops != 3 {
		t.Fatalf("drops = %d", s.Drops)
	}
}

// BenchmarkRouterForward measures the per-packet cost of the element graph
// — the software path the §5.2 comparison sets against the ShareStreams
// split. Run next to BenchmarkDecisionCycle for the contrast.
func BenchmarkRouterForward(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		useSFQ bool
	}{{"RR8", false}, {"SFQ8", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			r, err := NewRouter(8, cfg.useSFQ)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.In.Push(Packet{Flow: i % 32, Size: 64, Arrival: uint64(i)})
				r.Out.Run(1)
			}
		})
	}
}
