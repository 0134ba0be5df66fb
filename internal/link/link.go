// Package link models the outgoing network link of the endsystem: a
// serializing resource with a fixed line rate. Frames occupy the wire for
// their packet time (frame bits over line speed, §1), transmissions queue
// behind one another, and the model tracks utilization — the property
// wire-speed schedulers exist to protect.
package link

import "fmt"

// Link is one output link. Times are virtual nanoseconds.
type Link struct {
	bps       float64
	busyUntil float64
	busySum   float64
	bytes     uint64
	frames    uint64
}

// New builds a link with the given line rate in bits per second.
func New(bps float64) (*Link, error) {
	if bps <= 0 {
		return nil, fmt.Errorf("link: rate %v bps", bps)
	}
	return &Link{bps: bps}, nil
}

// Bps returns the line rate.
func (l *Link) Bps() float64 { return l.bps }

// FrameNs returns the wire time of a frame in nanoseconds.
func (l *Link) FrameNs(bytes int) float64 {
	return float64(bytes*8) / l.bps * 1e9
}

// Transmit serializes a frame that becomes ready at readyNs: it starts when
// both the frame and the wire are ready and occupies the wire for its packet
// time. It returns the start and end times.
func (l *Link) Transmit(bytes int, readyNs float64) (startNs, endNs float64, err error) {
	if bytes <= 0 {
		return 0, 0, fmt.Errorf("link: frame size %d", bytes)
	}
	start := readyNs
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := l.FrameNs(bytes)
	l.busyUntil = start + dur
	l.busySum += dur
	l.bytes += uint64(bytes)
	l.frames++
	return start, l.busyUntil, nil
}

// Frames returns the number of frames transmitted.
func (l *Link) Frames() uint64 { return l.frames }

// Bytes returns the bytes transmitted.
func (l *Link) Bytes() uint64 { return l.bytes }

// Utilization returns the fraction of [0, horizonNs] the wire was busy.
func (l *Link) Utilization(horizonNs float64) float64 {
	if horizonNs <= 0 {
		return 0
	}
	u := l.busySum / horizonNs
	if u > 1 {
		u = 1
	}
	return u
}
