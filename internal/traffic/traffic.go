// Package traffic provides the workload generators the paper's evaluation
// uses: backlogged periodic streams (Table 3), rate-ratio allocations
// (Figures 8 and 10) and the bursty generator whose multi-millisecond
// inter-burst gap produces Figure 9's zig-zag queuing-delay curves.
//
// Generators implement regblock.HeadSource (the pull side the Register Base
// block drains) and core.TimedSource (the scheduler advances them to the
// current virtual time before it pulls a head, releasing newly "arrived"
// packets, and syncs them all when a RunCycles batch returns). Every Advance
// here is latest-wins, which that lazy schedule relies on.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/regblock"
)

// Periodic generates packets k = 0,1,2,… with arrival time Phase + k·Gap.
// It releases packet k once the virtual clock reaches its arrival time;
// with Backlogged set, every packet is available immediately (arrival
// values are still stamped for FCFS ordering), which is how Table 3's
// "requested every decision cycle" streams are modeled.
type Periodic struct {
	// Phase is packet 0's arrival time.
	Phase uint64
	// Gap is the inter-arrival spacing (≥ 1).
	Gap uint64
	// Limit caps the number of packets generated; 0 means unlimited.
	Limit uint64
	// Backlogged releases all packets immediately regardless of the clock.
	Backlogged bool

	now      uint64
	consumed uint64
}

var _ regblock.HeadSource = (*Periodic)(nil)

// Advance releases packets that have arrived by virtual time now.
func (p *Periodic) Advance(now uint64) { p.now = now }

// Generated returns the number of packets that have arrived by the current
// virtual time (the denominator for miss-rate accounting).
func (p *Periodic) Generated() uint64 {
	if p.Gap == 0 {
		p.Gap = 1
	}
	var n uint64
	if p.Backlogged {
		n = p.Limit
		if n == 0 {
			n = ^uint64(0)
		}
		return n
	}
	if p.now < p.Phase {
		return 0
	}
	n = (p.now-p.Phase)/p.Gap + 1
	if p.Limit != 0 && n > p.Limit {
		n = p.Limit
	}
	return n
}

// Consumed returns the number of packets handed to the slot so far.
func (p *Periodic) Consumed() uint64 { return p.consumed }

// NextHead implements regblock.HeadSource.
func (p *Periodic) NextHead() (regblock.Head, bool) {
	if p.Gap == 0 {
		p.Gap = 1
	}
	k := p.consumed
	if p.Limit != 0 && k >= p.Limit {
		return regblock.Head{}, false
	}
	arrival := p.Phase + k*p.Gap
	if !p.Backlogged && arrival > p.now {
		return regblock.Head{}, false
	}
	p.consumed++
	return regblock.Head{Arrival: arrival}, true
}

// Bursty generates bursts of BurstLen packets with intra-burst spacing Gap,
// separated by InterBurst idle time — the Figure 9 traffic generator
// ("introduces a multi-ms inter-burst delay after the first 4000 frames").
type Bursty struct {
	// BurstLen is the number of packets per burst (≥ 1).
	BurstLen uint64
	// Gap is the intra-burst inter-arrival spacing (≥ 1).
	Gap uint64
	// InterBurst is the idle time between the last packet of a burst and
	// the first packet of the next.
	InterBurst uint64
	// Phase is the first packet's arrival time.
	Phase uint64
	// Limit caps total packets; 0 means unlimited.
	Limit uint64

	now      uint64
	consumed uint64
}

var _ regblock.HeadSource = (*Bursty)(nil)

// Advance implements core.TimedSource.
func (b *Bursty) Advance(now uint64) { b.now = now }

// ArrivalOf returns packet k's arrival time.
func (b *Bursty) ArrivalOf(k uint64) uint64 {
	if b.BurstLen == 0 {
		b.BurstLen = 1
	}
	if b.Gap == 0 {
		b.Gap = 1
	}
	burst := k / b.BurstLen
	within := k % b.BurstLen
	burstSpan := (b.BurstLen-1)*b.Gap + b.InterBurst
	return b.Phase + burst*burstSpan + within*b.Gap
}

// Consumed returns the number of packets handed to the slot so far.
func (b *Bursty) Consumed() uint64 { return b.consumed }

// NextHead implements regblock.HeadSource.
func (b *Bursty) NextHead() (regblock.Head, bool) {
	k := b.consumed
	if b.Limit != 0 && k >= b.Limit {
		return regblock.Head{}, false
	}
	arrival := b.ArrivalOf(k)
	if arrival > b.now {
		return regblock.Head{}, false
	}
	b.consumed++
	return regblock.Head{Arrival: arrival}, true
}

// Replay replays an explicit arrival-time trace — the generator for
// trace-driven evaluation (e.g. captured packet timings). Arrivals must be
// non-decreasing; release is gated on the virtual clock.
type Replay struct {
	arrivals []uint64
	now      uint64
	consumed int
	loop     bool
	offset   uint64 // accumulated span when looping
}

// NewReplay builds a replay source. With loop set, the trace repeats
// end-to-end, each repetition shifted by the trace's span (so arrivals keep
// increasing).
func NewReplay(arrivals []uint64, loop bool) (*Replay, error) {
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	var prev uint64
	for i, a := range arrivals {
		if a < prev {
			return nil, fmt.Errorf("traffic: trace not monotonic at %d", i)
		}
		prev = a
	}
	return &Replay{arrivals: arrivals, loop: loop}, nil
}

// Advance implements core.TimedSource.
func (r *Replay) Advance(now uint64) { r.now = now }

// Consumed returns the number of packets handed to the slot so far.
func (r *Replay) Consumed() int { return r.consumed }

// NextHead implements regblock.HeadSource.
func (r *Replay) NextHead() (regblock.Head, bool) {
	if !r.loop && r.consumed >= len(r.arrivals) {
		return regblock.Head{}, false
	}
	i := r.consumed % len(r.arrivals)
	arrival := r.arrivals[i] + r.offset
	if arrival > r.now {
		return regblock.Head{}, false
	}
	r.consumed++
	if r.loop && r.consumed%len(r.arrivals) == 0 {
		// One full repetition consumed: shift the next repetition past
		// this one's last arrival.
		r.offset += r.arrivals[len(r.arrivals)-1] - r.arrivals[0] + 1
	}
	return regblock.Head{Arrival: arrival}, true
}

// Tagged wraps a sequence of explicit (arrival, tag) heads for fair-queuing
// slots: the Queue Manager computes each packet's service tag and the slot
// loads it verbatim.
type Tagged struct {
	heads    []regblock.Head
	arrivals []uint64 // unwrapped arrivals for time gating
	now      uint64
	consumed int
}

// NewTagged builds a tagged source. arrivals and tags must have equal
// length; arrivals must be non-decreasing.
func NewTagged(arrivals, tags []uint64) (*Tagged, error) {
	if len(arrivals) != len(tags) {
		return nil, fmt.Errorf("traffic: %d arrivals vs %d tags", len(arrivals), len(tags))
	}
	t := &Tagged{arrivals: arrivals}
	var prev uint64
	for i := range arrivals {
		if arrivals[i] < prev {
			return nil, fmt.Errorf("traffic: arrivals not monotonic at %d", i)
		}
		prev = arrivals[i]
		t.heads = append(t.heads, regblock.Head{
			Arrival: arrivals[i],
			Tag:     tags[i],
		})
	}
	return t, nil
}

// Advance implements core.TimedSource.
func (t *Tagged) Advance(now uint64) { t.now = now }

// NextHead implements regblock.HeadSource.
func (t *Tagged) NextHead() (regblock.Head, bool) {
	if t.consumed >= len(t.heads) {
		return regblock.Head{}, false
	}
	if t.arrivals[t.consumed] > t.now {
		return regblock.Head{}, false
	}
	h := t.heads[t.consumed]
	t.consumed++
	return h, true
}

// Consumed returns the number of packets handed to the slot so far.
func (t *Tagged) Consumed() int { return t.consumed }

// OnOff is a two-state Markov-modulated source — the classic VBR model for
// media and web traffic (§1's "mix of best-effort web-traffic, real-time
// media streams"). In the ON state packets arrive every Gap time units; in
// the OFF state nothing arrives. State dwell times are geometrically
// distributed with the given means, drawn from a seeded deterministic
// generator so runs reproduce exactly.
type OnOff struct {
	// Gap is the ON-state inter-arrival spacing (≥ 1).
	Gap uint64
	// MeanOn and MeanOff are the mean dwell times (time units, ≥ 1).
	MeanOn, MeanOff uint64
	// Seed drives the dwell-time draws.
	Seed int64
	// Limit caps total packets; 0 means unlimited.
	Limit uint64

	rng      *rand.Rand
	now      uint64
	on       bool
	nextFlip uint64 // time of the next state change
	nextPkt  uint64 // next arrival time while ON
	ready    []uint64
	consumed uint64
	emitted  uint64
}

var _ regblock.HeadSource = (*OnOff)(nil)

func (o *OnOff) init() {
	if o.rng != nil {
		return
	}
	if o.Gap == 0 {
		o.Gap = 1
	}
	if o.MeanOn == 0 {
		o.MeanOn = 1
	}
	if o.MeanOff == 0 {
		o.MeanOff = 1
	}
	o.rng = rand.New(rand.NewSource(o.Seed))
	o.on = true
	o.nextFlip = o.dwell(o.MeanOn)
	o.nextPkt = 0
}

// dwell draws a geometric dwell time with the given mean (≥ 1).
func (o *OnOff) dwell(mean uint64) uint64 {
	d := uint64(o.rng.ExpFloat64()*float64(mean)) + 1
	return o.now + d
}

// Advance implements core.TimedSource: simulate state flips and arrivals up
// to virtual time now.
func (o *OnOff) Advance(now uint64) {
	o.init()
	for o.now <= now {
		if o.now == o.nextFlip {
			o.on = !o.on
			if o.on {
				o.nextFlip = o.dwell(o.MeanOn)
				o.nextPkt = o.now
			} else {
				o.nextFlip = o.dwell(o.MeanOff)
			}
		}
		if o.on && o.now == o.nextPkt {
			if o.Limit == 0 || o.emitted < o.Limit {
				o.ready = append(o.ready, o.now)
				o.emitted++
			}
			o.nextPkt = o.now + o.Gap
		}
		o.now++
	}
}

// Consumed returns packets handed to the slot so far.
func (o *OnOff) Consumed() uint64 { return o.consumed }

// Emitted returns packets generated so far.
func (o *OnOff) Emitted() uint64 { return o.emitted }

// NextHead implements regblock.HeadSource.
func (o *OnOff) NextHead() (regblock.Head, bool) {
	o.init()
	if len(o.ready) == 0 {
		return regblock.Head{}, false
	}
	arrival := o.ready[0]
	o.ready = o.ready[1:]
	o.consumed++
	return regblock.Head{Arrival: arrival}, true
}
