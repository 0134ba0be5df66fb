package ringbuf

import "testing"

// TestReuseAfterRestart models the supervisor's restart path: a crashed
// pipeline's tx ring is drained at the recovery barrier and the same ring
// object is handed to the restarted segment. The table walks the ring
// through several crash/drain/restart generations — with the read/write
// pointers well past the capacity — and checks that a reused ring never
// replays stale elements and never loses fresh ones.
func TestReuseAfterRestart(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		// leftover elements "in flight" when the segment crashes,
		// generations of restart, and pushes per generation.
		leftover, generations, perGen int
	}{
		{"clean restart", 4, 0, 3, 4},
		{"partial drain then restart", 4, 3, 3, 4},
		{"full ring at crash", 4, 4, 2, 4},
		{"many generations wrap pointers", 2, 1, 9, 2},
		{"large ring few elements", 64, 5, 4, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New[int](tc.cap)
			if err != nil {
				t.Fatal(err)
			}
			next := 0 // monotone payload: any repeat is a stale replay
			for gen := 0; gen < tc.generations; gen++ {
				// The segment runs until the crash leaves tc.leftover
				// elements undelivered in the ring.
				for i := 0; i < tc.leftover; i++ {
					if !r.Push(next) {
						t.Fatalf("gen %d: push %d refused with %d/%d queued", gen, next, i, tc.cap)
					}
					next++
				}
				// Barrier drain: the supervisor salvages the residue.
				low := next - tc.leftover
				for i := 0; i < tc.leftover; i++ {
					v, ok := r.Pop()
					if !ok {
						t.Fatalf("gen %d: residue short by %d", gen, tc.leftover-i)
					}
					if v != low+i {
						t.Fatalf("gen %d: salvage got %d, want %d", gen, v, low+i)
					}
				}
				if r.Len() != 0 {
					t.Fatalf("gen %d: ring not empty after barrier drain", gen)
				}
				// Restarted segment reuses the ring: every fresh element
				// must come out exactly once, in order, nothing stale.
				for i := 0; i < tc.perGen; i++ {
					if !r.Push(next + i) {
						// Consumer keeps pace, as in the live pipeline.
						v, ok := r.Pop()
						if !ok || v != next {
							t.Fatalf("gen %d: pop under pressure got (%d,%v), want %d", gen, v, ok, next)
						}
						next++
						if !r.Push(next + i - 1) {
							t.Fatalf("gen %d: push refused after pop", gen)
						}
					}
				}
				for r.Len() != 0 {
					v, ok := r.Pop()
					if !ok {
						t.Fatalf("gen %d: Len/Pop disagree", gen)
					}
					if v != next {
						t.Fatalf("gen %d: got %d, want %d (stale replay or loss)", gen, v, next)
					}
					next++
				}
			}
			if _, ok := r.Pop(); ok {
				t.Fatal("drained ring produced an element")
			}
		})
	}
}

// TestWrapAroundPointersFarPastCapacity drives the monotone pointers
// through many multiples of the capacity in lock-step, checking the mask
// reduction at every offset — the index arithmetic a restart-reused ring
// depends on.
func TestWrapAroundPointersFarPastCapacity(t *testing.T) {
	for _, capacity := range []int{2, 4, 8, 32} {
		r, err := New[uint64](capacity)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(capacity)*17 + 3
		for i := uint64(0); i < total; i++ {
			if !r.Push(i) {
				t.Fatalf("cap %d: push %d refused on empty ring", capacity, i)
			}
			v, ok := r.Pop()
			if !ok || v != i {
				t.Fatalf("cap %d: got (%d,%v), want %d", capacity, v, ok, i)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("cap %d: Len %d after lock-step drain", capacity, r.Len())
		}
	}
}
