// Package streamlet implements stream aggregation (§4.3, §5.1, Figure 10):
// binding many *streamlets* to a single Register Base block when only
// aggregate QoS is required, trading per-stream FPGA state for cheap
// processor memory.
//
// The Stream processor services streamlets with the round-robin policy the
// paper uses ("we simply used a round-robin service policy on the Stream
// processor between streamlets … by cycling through active queues"), and
// supports multiple weighted *sets* of streamlets within one stream-slot
// ("we were even able to support multiple sets of streamlets within a
// stream-slot" — Figure 10's slot 4 carries two sets, set 1 with double the
// bandwidth of set 2) via weighted round robin across sets.
//
// An Aggregator implements regblock.HeadSource, so a stream-slot drains it
// exactly like a single stream; the slot's QoS (deadlines, window
// constraints) applies to the aggregate.
package streamlet

import (
	"errors"
	"fmt"

	"repro/internal/regblock"
)

// timed is the clock hook of a time-gated source (core.TimedSource's
// extension of regblock.HeadSource).
type timed interface{ Advance(now uint64) }

// Streamlet is one aggregated sub-stream: its own packet source plus
// service accounting.
type Streamlet struct {
	src regblock.HeadSource
	// clock is src's Advance, resolved once in NewSet; nil when the source
	// is not time-gated.
	clock timed

	// Served counts packets handed to the stream-slot; Bytes counts
	// transmitted bytes (charged by OnTransmit).
	Served uint64
	Bytes  uint64
}

// Set is a weighted group of streamlets within one stream-slot. During each
// weighted-round-robin turn the set hands out Weight packets (across its
// streamlets, plain round robin) before the next set's turn.
type Set struct {
	weight     int
	streamlets []Streamlet
	cursor     int
}

// NewSet builds a set with the given weight over the given sources.
func NewSet(weight int, sources []regblock.HeadSource) (*Set, error) {
	if weight < 1 {
		return nil, fmt.Errorf("streamlet: set weight %d", weight)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("streamlet: empty set")
	}
	s := &Set{weight: weight, streamlets: make([]Streamlet, len(sources))}
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("streamlet: nil source")
		}
		sl := &s.streamlets[i]
		sl.src = src
		sl.clock, _ = src.(timed)
	}
	return s, nil
}

// Weight returns the set's WRR weight.
func (s *Set) Weight() int { return s.weight }

// Size returns the number of streamlets in the set.
func (s *Set) Size() int { return len(s.streamlets) }

// Streamlet returns streamlet i's accounting.
func (s *Set) Streamlet(i int) *Streamlet { return &s.streamlets[i] }

// next round-robins within the set, returning the index of the first
// streamlet (starting at the cursor) with a packet available. A time-gated
// streamlet is brought to the aggregator's clock now immediately before it
// is polled; clocked is false until the aggregator's first Advance, so a
// source nobody has advanced keeps its own clock.
//
//sslint:hotpath
func (s *Set) next(now uint64, clocked bool) (int, regblock.Head, bool) {
	i := s.cursor
	for k := 0; k < len(s.streamlets); k++ {
		sl := &s.streamlets[i]
		next := i + 1
		if next == len(s.streamlets) {
			next = 0
		}
		if clocked && sl.clock != nil {
			sl.clock.Advance(now)
		}
		if h, ok := sl.src.NextHead(); ok {
			s.cursor = next
			sl.Served++
			return i, h, true
		}
		i = next
	}
	return 0, regblock.Head{}, false
}

// errNoPending is OnTransmit's charge against an empty provenance queue.
var errNoPending = errors.New("streamlet: transmit with no outstanding head")

// Aggregator merges streamlet sets into a single head stream for one
// stream-slot.
//
// Its clock is lazy: Advance only stamps the time, and a time-gated
// streamlet sees the stamp when the round robin next polls it, so nested
// sources are current as of their last poll, not as of the last Advance.
// That is unobservable through the head stream provided every nested
// source advances latest-wins — Advance(t2) leaves the same state whether
// or not an Advance(t1 ≤ t2) ran before it — which every TimedSource in the
// tree does and core's decision cycle already relies on. A caller that
// reads a nested source's own counters (traffic.Periodic.Generated, say)
// sees them as of that streamlet's last poll.
type Aggregator struct {
	sets []*Set

	// WRR state: current set and remaining credit in its turn.
	setCursor int
	credit    int

	// now is the latest Advance stamp; clocked reports that there was one.
	now     uint64
	clocked bool

	// pending maps dequeued heads (in order) to their providers so
	// OnTransmit charges the right streamlet.
	pending ring

	// Served counts packets handed to the slot across all sets.
	Served uint64
}

// New builds an aggregator over one or more weighted sets.
func New(sets ...*Set) (*Aggregator, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("streamlet: no sets")
	}
	for _, s := range sets {
		if s == nil {
			return nil, fmt.Errorf("streamlet: nil set")
		}
	}
	a := &Aggregator{sets: sets}
	a.credit = sets[0].weight
	return a, nil
}

// Sets returns the aggregator's set count.
func (a *Aggregator) Sets() int { return len(a.sets) }

// Set returns set i.
func (a *Aggregator) Set(i int) *Set { return a.sets[i] }

// NextHead implements regblock.HeadSource: weighted round robin across
// sets, plain round robin within the chosen set. A set's turn ends when its
// credit is spent or it has nothing to send; after a full rotation with no
// head the aggregate is empty.
//
//sslint:hotpath
func (a *Aggregator) NextHead() (regblock.Head, bool) {
	for tried := 0; tried <= len(a.sets); tried++ {
		if a.credit > 0 {
			if i, h, ok := a.sets[a.setCursor].next(a.now, a.clocked); ok {
				a.credit--
				a.pending.push(provider{set: a.setCursor, streamlet: i}) //sslint:allow allocproof — the ring doubles only when more heads are in flight than ever before; a slot's in-flight heads are bounded, so steady state never grows it
				a.Served++
				return h, true
			}
		}
		// Turn over: move to the next set with fresh credit.
		if a.setCursor++; a.setCursor == len(a.sets) {
			a.setCursor = 0
		}
		a.credit = a.sets[a.setCursor].weight
	}
	return regblock.Head{}, false
}

// Advance implements core.TimedSource. It stamps the clock and nothing
// else — O(1) whatever the streamlet count; Set.next forwards the stamp to
// each time-gated streamlet as it polls it.
//
//sslint:hotpath
func (a *Aggregator) Advance(now uint64) {
	a.now = now
	a.clocked = true
}

// OnTransmit charges bytes transmitted from this slot to the streamlet that
// supplied the oldest outstanding head (heads are consumed by the slot in
// FIFO order). It returns the (set, streamlet) charged.
//
//sslint:hotpath
func (a *Aggregator) OnTransmit(bytes int) (set, sl int, err error) {
	if a.pending.n == 0 {
		return 0, 0, errNoPending
	}
	p := a.pending.pop()
	a.sets[p.set].streamlets[p.streamlet].Bytes += uint64(bytes)
	return p.set, p.streamlet, nil
}

// Pending returns how many dequeued heads await their OnTransmit charge.
func (a *Aggregator) Pending() int { return a.pending.n }

// DiscardPending abandons every dequeued-but-untransmitted head — the
// recovery path when the stream-slot draining this aggregator is flushed
// (rebind, crash) and its in-flight heads will never transmit. Each
// provider's Served count (and the aggregate's) is rolled back so a caller
// that re-submits the abandoned frames does not double-count service; undo,
// when non-nil, is called once per abandoned head in FIFO dequeue order with
// the providing (set, streamlet), letting the caller restore provenance. It
// returns the number of heads discarded.
func (a *Aggregator) DiscardPending(undo func(set, streamlet int)) int {
	n := a.pending.n
	for i := 0; i < n; i++ {
		p := a.pending.pop()
		a.sets[p.set].streamlets[p.streamlet].Served--
		a.Served--
		if undo != nil {
			undo(p.set, p.streamlet)
		}
	}
	return n
}

// Backlog is a HeadSource over an in-memory queue of heads — "processor
// memory" in the paper's aggregation trade. The supervisor uses it to
// re-home a dead shard's salvaged frames: the drained backlog becomes one
// streamlet bound (with the survivors) to a living stream-slot.
type Backlog struct {
	heads []regblock.Head
	next  int
}

// NewBacklog builds a backlog over the given heads, served in order.
func NewBacklog(heads []regblock.Head) *Backlog {
	return &Backlog{heads: heads}
}

// Push appends a head to the backlog.
func (b *Backlog) Push(h regblock.Head) { b.heads = append(b.heads, h) }

// Unget returns a head to the front of the backlog (the undo for a dequeue
// whose consumer abandoned it). It reuses the slot the dequeue freed; with
// no freed slot it reopens the front with slack in proportion to the
// backlog, so a run of ungets costs O(1) each, amortized.
func (b *Backlog) Unget(h regblock.Head) {
	if b.next == 0 {
		slack := len(b.heads)/2 + 1
		heads := make([]regblock.Head, slack+len(b.heads))
		copy(heads[slack:], b.heads)
		b.heads, b.next = heads, slack
	}
	b.next--
	b.heads[b.next] = h
}

// NextHead implements regblock.HeadSource.
func (b *Backlog) NextHead() (regblock.Head, bool) {
	if b.next >= len(b.heads) {
		return regblock.Head{}, false
	}
	h := b.heads[b.next]
	b.next++
	return h, true
}
