package ringbuf

import (
	"runtime"
	"sync"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		if _, err := New[int](n); err == nil {
			t.Errorf("New accepted capacity %d", n)
		}
	}
	r, err := New[int](8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 8 {
		t.Errorf("Cap = %d", r.Cap())
	}
}

func TestPushPopFIFO(t *testing.T) {
	r, _ := New[int](4)
	for i := 0; i < 4; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: %d %v", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	if r.Len() != 0 {
		t.Fatal("ring not empty after drain")
	}
}

func TestWrapAround(t *testing.T) {
	r, _ := New[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push(round*10 + i) {
				t.Fatal("push failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Pop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d pop %d: %d %v", round, i, v, ok)
			}
		}
	}
}

func TestPeek(t *testing.T) {
	r, _ := New[string](2)
	if _, ok := r.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	r.Push("a")
	r.Push("b")
	if v, ok := r.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q %v", v, ok)
	}
	if r.Len() != 2 {
		t.Fatal("peek consumed an element")
	}
	r.Pop()
	if v, _ := r.Peek(); v != "b" {
		t.Fatalf("peek after pop = %q", v)
	}
}

func TestPointerElementsReleased(t *testing.T) {
	r, _ := New[*int](2)
	x := new(int)
	r.Push(x)
	r.Pop()
	// The slot must no longer hold the pointer (GC hygiene). Peek the raw
	// buffer via a second push/pop cycle at the same slot.
	if r.buf[0] != nil {
		t.Fatal("popped slot still references the element")
	}
}

// TestConcurrentSPSC drives a producer and a consumer concurrently — the
// Queue-Manager/Transmission-Engine pattern of Figure 3. Run under -race.
func TestConcurrentSPSC(t *testing.T) {
	const total = 50000
	r, _ := New[int](256)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var sum uint64
	go func() {
		defer wg.Done()
		for n := 0; n < total; {
			if v, ok := r.Pop(); ok {
				if v != n {
					t.Errorf("out of order: got %d want %d", v, n)
					return
				}
				sum += uint64(v)
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	want := uint64(total) * (total - 1) / 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if r.Len() != 0 {
		t.Fatalf("residual elements: %d", r.Len())
	}
}

// TestLenObserverNeverNegative stresses Len from a third goroutine while a
// producer and consumer run flat out — the shard aggregator reading queue
// backlogs while a pipeline drains. Under the old tail-before-head load
// ordering, the consumer advancing head between the two loads makes the
// uint64 subtraction wrap and Len report a huge negative count; the
// head-before-tail ordering keeps the result a conservative non-negative
// length. Run under -race.
func TestLenObserverNeverNegative(t *testing.T) {
	const total = 200000
	r, _ := New[int](64)
	var wg sync.WaitGroup
	wg.Add(2)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.Push(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < total; {
			if _, ok := r.Pop(); ok {
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var bad int
	var badVal int
	observerDone := make(chan struct{})
	go func() {
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := r.Len(); n < 0 {
				bad++
				badVal = n
			}
			runtime.Gosched() // don't starve the pipeline on small GOMAXPROCS
		}
	}()
	wg.Wait()
	close(stop)
	<-observerDone
	if bad > 0 {
		t.Fatalf("observer saw %d negative Len results (last %d)", bad, badVal)
	}
}
