// Package ringbuf provides the synchronization-free circular queues of the
// ShareStreams endsystem (Figure 3): single-producer/single-consumer rings
// with separate read and write pointers, "for concurrent access, without any
// synchronization needs".
//
// A producer may Push while the consumer concurrently Pops — no locks; the
// indices are published with atomic acquire/release semantics, which is the
// software analogue of the separate read/write pointer registers the paper
// describes. Any other concurrency (two producers, two consumers) is outside
// the contract, exactly as with the hardware pointers.
package ringbuf

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Ring is a bounded single-producer/single-consumer queue. The zero value
// is not usable; call New.
type Ring[T any] struct {
	buf  []T
	mask uint64

	// head is the consumer (read) pointer, tail the producer (write)
	// pointer; both increase monotonically and are reduced modulo the
	// capacity via mask. Padding keeps the two pointers on separate cache
	// lines — the rings sit between spinning producer and consumer
	// goroutines in the endsystem pipeline.
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

// New builds a ring holding up to capacity elements. capacity must be a
// power of two (≥ 2) so index reduction is a mask, as in the hardware.
func New[T any](capacity int) (*Ring[T], error) {
	if capacity < 2 || bits.OnesCount(uint(capacity)) != 1 {
		return nil, fmt.Errorf("ringbuf: capacity %d is not a power of two ≥ 2", capacity)
	}
	return &Ring[T]{buf: make([]T, capacity), mask: uint64(capacity - 1)}, nil
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the current element count (approximate under concurrency,
// never negative). head must be loaded before tail: head only grows, and
// head ≤ tail holds at every instant, so a tail loaded after the head is
// always ≥ it and the unsigned subtraction cannot wrap. With the loads the
// other way around, a consumer popping between the two loads can advance
// head past the stale tail and the difference wraps to a huge count.
func (r *Ring[T]) Len() int {
	head := r.head.Load()
	tail := r.tail.Load()
	return int(tail - head)
}

// Push appends v; it reports false when the ring is full. Producer-side
// only.
func (r *Ring[T]) Push(v T) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1) // release: publishes the element
	return true
}

// Pop removes and returns the oldest element; ok is false when empty.
// Consumer-side only.
func (r *Ring[T]) Pop() (v T, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return v, false
	}
	v = r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero // drop the reference for GC
	r.head.Store(head + 1)
	return v, true
}

// Peek returns the oldest element without removing it. Consumer-side only.
func (r *Ring[T]) Peek() (v T, ok bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return v, false
	}
	return r.buf[head&r.mask], true
}
