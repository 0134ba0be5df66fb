package streamlet

// provider identifies which streamlet supplied a head, for transmit-time
// byte accounting.
type provider struct {
	set, streamlet int
}

// ring is the aggregator's provenance queue: a circular FIFO of providers
// over a power-of-two buffer. Popping moves the head index instead of
// re-slicing, so the backing array neither creeps nor is re-copied, and once
// the buffer has reached the queue's peak occupancy every operation is O(1)
// and allocation-free. The zero value is an empty ring.
type ring struct {
	buf  []provider // len is zero or a power of two
	head int        // index of the oldest element
	n    int        // elements queued
}

// push queues p behind the newest element.
func (r *ring) push(p provider) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring) pop() provider {
	p := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// grow doubles a full ring, unwrapping it to the start of the new buffer.
func (r *ring) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]provider, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
