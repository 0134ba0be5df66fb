// Package a is the spsc declaration and confinement fixture: a guarded
// SPSC ring whose pointer fields must be sync/atomic typed and touched only
// by the ring's own methods, atomically.
package a

import "sync/atomic"

// Ring is an SPSC queue with guarded pointer fields.
type Ring struct {
	buf  []int
	mask uint64

	head atomic.Uint64 //sslint:spsc
	tail atomic.Uint64 //sslint:spsc
}

// Len is the sanctioned access pattern: atomic methods, inside a method.
func (r *Ring) Len() int {
	head := r.head.Load()
	tail := r.tail.Load()
	return int(tail - head)
}

// Push stores atomically.
func (r *Ring) Push(v int) {
	t := r.tail.Load()
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
}

// BadCopy copies the atomic value instead of calling its methods.
func (r *Ring) BadCopy() atomic.Uint64 {
	return r.head // want `non-atomic use of Ring.head`
}

// BadOutside reaches into the pointers from a free function.
func BadOutside(r *Ring) uint64 {
	return r.tail.Load() // want `Ring.tail accessed outside Ring's own methods`
}

// Other is a different type; its method may not touch the ring's pointers.
type Other struct{ r *Ring }

// BadForeignMethod is a method, but on the wrong type.
func (o *Other) BadForeignMethod() uint64 {
	return o.r.head.Load() // want `Ring.head accessed outside Ring's own methods`
}

// Unguarded has the same shape but no markers: unconstrained.
type Unguarded struct {
	head uint64
	tail uint64
}

// GoodUnguarded touches unguarded fields freely.
func GoodUnguarded(u *Unguarded) uint64 {
	u.head++
	return u.tail
}

// Bare is a guarded field declared with a racy bare type.
type Bare struct {
	head uint64 //sslint:spsc // want `must be a sync/atomic type`
}

// BadBareAccess compounds it with a plain increment.
func (b *Bare) BadBareAccess() {
	b.head++ // want `non-atomic use of Bare.head`
}
