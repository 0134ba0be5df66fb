// Package dwcs is a processor-resident reference implementation of Dynamic
// Window-Constrained Scheduling (West & Poellabauer, RTSS 2000; West,
// Schwan & Poellabauer, RTAS 1999) — the software scheduler whose measured
// latency (≈50 µs on a 300 MHz UltraSPARC, ≈67 µs on a 66 MHz i960RD) §4.1
// cites to motivate the FPGA realization.
//
// The package serves two purposes in the reproduction:
//
//  1. It is the §4.1 software baseline: Pick is a straight O(N) scan with
//     the full Table 2 rule cascade, the shape of the host-based schedulers
//     the paper measured, and the §4.1 latency bench drives it.
//  2. It is an independent oracle for the hardware model: the ordering rules
//     are implemented here from the published algorithm, *not* by calling
//     package decision, and equivalence tests pin the two against each
//     other.
//
// Streams carry the same attribute classes as the hardware (EDF,
// window-constrained, static-priority, fair-tag) so mixed workloads can be
// cross-validated decision-for-decision against core.Scheduler.
package dwcs

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/regblock"
)

// Stream is one scheduled stream's software state.
type Stream struct {
	spec attr.Spec
	src  regblock.HeadSource

	valid    bool
	deadline uint64 // current head deadline / priority / service tag
	arrival  uint64 // current head arrival
	x, y     uint8  // current window-constraint registers

	// Counters mirror the hardware slot counters.
	Counters regblock.Counters
}

// Deadline returns the current head's deadline (or priority/tag).
func (st *Stream) Deadline() uint64 { return st.deadline }

// Scheduler is the software DWCS scheduler.
type Scheduler struct {
	streams []*Stream
	now     uint64
	// Decisions counts completed decision cycles.
	Decisions uint64
}

// New builds a scheduler with capacity for n streams (indices 0..n-1),
// initially empty.
func New(n int) (*Scheduler, error) {
	if n < 1 {
		return nil, fmt.Errorf("dwcs: need at least one stream, got %d", n)
	}
	return &Scheduler{streams: make([]*Stream, n)}, nil
}

// Admit binds a stream specification and packet source to index i.
func (s *Scheduler) Admit(i int, spec attr.Spec, src regblock.HeadSource) error {
	if i < 0 || i >= len(s.streams) {
		return fmt.Errorf("dwcs: stream %d out of range [0, %d)", i, len(s.streams))
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if src == nil {
		return fmt.Errorf("dwcs: nil source for stream %d", i)
	}
	s.streams[i] = &Stream{
		spec: spec,
		src:  src,
		x:    spec.Constraint.Num,
		y:    spec.Constraint.Den,
	}
	return nil
}

// load pulls the next head into the stream, synthesizing its deadline.
func (st *Stream) load(reanchor bool) {
	h, ok := st.src.NextHead()
	if !ok {
		st.valid = false
		return
	}
	switch st.spec.Class {
	case attr.StaticPriority:
		st.deadline = uint64(st.spec.Priority)
	case attr.FairTag:
		st.deadline = h.Tag
	default:
		next := st.deadline + uint64(st.spec.Period)
		if !reanchor {
			next = h.Arrival + uint64(st.spec.Period)
		} else if anchored := h.Arrival + uint64(st.spec.Period); anchored > next {
			next = anchored
		}
		st.deadline = next
	}
	st.arrival = h.Arrival
	st.valid = true
}

// refill revalidates an idle stream if traffic arrived.
func (st *Stream) refill() {
	if st == nil || st.valid {
		return
	}
	st.load(false)
}

// Less reports whether stream a orders strictly before stream b under the
// DWCS pairwise rules (Table 2), implemented independently of the hardware
// Decision block:
//
//  1. earliest deadline first;
//  2. equal deadlines: lowest window-constraint W = x/y first;
//  3. equal deadlines, both W zero: highest window-denominator first;
//  4. equal deadlines, equal non-zero W: lowest window-numerator first;
//  5. otherwise FCFS by arrival, then lowest index for determinism.
func Less(a, b *Stream, ia, ib int) bool {
	if a.valid != b.valid {
		return a.valid
	}
	if !a.valid {
		return ia < ib
	}
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	// Window-constraint value comparison by cross-multiplication. A zero
	// denominator makes W undefined; it orders as the loosest possible
	// constraint, and two undefined constraints compare equal (the same
	// convention as the hardware comparator).
	aUndef, bUndef := a.y == 0, b.y == 0
	switch {
	case aUndef && bUndef:
		// equal by value: fall through to rules 3/4
	case aUndef:
		return false
	case bUndef:
		return true
	default:
		av, bv := uint32(a.x)*uint32(b.y), uint32(b.x)*uint32(a.y)
		if av != bv {
			return av < bv
		}
	}
	if a.x == 0 && b.x == 0 {
		// Rule 3: zero constraints — highest denominator first.
		if a.y != b.y {
			return a.y > b.y
		}
	} else if a.x != b.x {
		// Rule 4: equal non-zero constraints — lowest numerator first.
		return a.x < b.x
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return ia < ib
}

// Pick scans all streams and returns the index of the highest-priority
// backlogged stream, or -1 if none. This is the O(N) software decision the
// §4.1 latency numbers are about.
func (s *Scheduler) Pick() int {
	best := -1
	for i, st := range s.streams {
		if st == nil || !st.valid {
			continue
		}
		if best == -1 || Less(st, s.streams[best], i, best) {
			best = i
		}
	}
	return best
}

// Result reports one software decision cycle.
type Result struct {
	Winner int // stream index, -1 when idle
	Late   bool
}

// RunCycle performs one decision cycle with the same semantics as the
// hardware model in winner-only (max-finding) configuration: refill idle
// streams, pick the winner, transmit its head (late if past deadline),
// apply the DWCS winner adjustment, then charge per-cycle misses to due
// losers (dropping window-constrained heads).
func (s *Scheduler) RunCycle() Result {
	for _, st := range s.streams {
		st.refill()
	}
	w := s.Pick()
	r := Result{Winner: w}
	if w >= 0 {
		st := s.streams[w]
		r.Late = st.deadline < s.now
		st.service(r.Late)
		for i, lo := range s.streams {
			if i == w || lo == nil {
				continue
			}
			lo.expire(s.now + 1)
		}
	}
	s.now++
	s.Decisions++
	return r
}

// service consumes the winner's head.
func (st *Stream) service(late bool) {
	st.Counters.Services++
	st.Counters.Wins++
	if late {
		st.Counters.Missed++
	} else {
		st.Counters.Met++
	}
	if st.spec.Class == attr.WindowConstrained {
		// Served before deadline: one fewer slot in the window.
		switch {
		case st.y > st.x:
			st.y--
		case st.x == st.y && st.x > 0:
			st.x--
			st.y--
		}
		if st.x == 0 && st.y == 0 {
			st.x, st.y = st.spec.Constraint.Num, st.spec.Constraint.Den
		}
	}
	st.load(true)
}

// expire charges a per-cycle miss to a due loser; window-constrained
// streams additionally drop the head and adjust the loss-tolerance.
func (st *Stream) expire(now uint64) {
	if !st.valid {
		return
	}
	switch st.spec.Class {
	case attr.StaticPriority, attr.FairTag:
		return
	default: // EDF, WindowConstrained: deadline-bearing, checked below
	}
	if st.deadline >= now {
		return
	}
	st.Counters.Missed++
	if st.spec.Class == attr.WindowConstrained {
		st.Counters.Drops++
		if st.x > 0 {
			st.x--
			st.y--
			if st.x == 0 && st.y == 0 {
				st.x, st.y = st.spec.Constraint.Num, st.spec.Constraint.Den
			}
		} else {
			if st.y < 255 {
				st.y++
			}
			st.Counters.Violations++
		}
		st.load(true)
	}
}

// BlockResult reports one block-mode decision cycle.
type BlockResult struct {
	// Order lists the transmitted stream indices in transmission order.
	Order []int
	// Late flags each transmission, parallel to Order.
	Late []bool
	// Circulated is the stream that received the winner update, or -1
	// when the cycle was idle.
	Circulated int
}

// RunBlockCycle performs one decision cycle with the hardware model's block
// (BA) semantics, as an independent oracle for cross-validation: all
// backlogged streams are sorted by the Table 2 rules and transmitted as one
// transaction — head-first under max-first, tail-first under min-first —
// with the member at rank r late iff its deadline precedes now+r; only the
// circulated end receives the winner adjustment.
func (s *Scheduler) RunBlockCycle(maxFirst bool) BlockResult {
	for _, st := range s.streams {
		st.refill()
	}
	// Selection sort by the pairwise rules (the reference need not be
	// fast, only obviously correct).
	var order []int
	for i, st := range s.streams {
		if st != nil && st.valid {
			order = append(order, i)
		}
	}
	for i := 0; i < len(order); i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if Less(s.streams[order[j]], s.streams[order[best]], order[j], order[best]) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	res := BlockResult{Circulated: -1}
	if len(order) == 0 {
		s.now++
		s.Decisions++
		return res
	}
	if maxFirst {
		res.Circulated = order[0]
	} else {
		res.Circulated = order[len(order)-1]
		// Tail-first transaction.
		for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
			order[l], order[r] = order[r], order[l]
		}
	}
	for rank, idx := range order {
		st := s.streams[idx]
		late := st.deadline < s.now+uint64(rank)
		res.Order = append(res.Order, idx)
		res.Late = append(res.Late, late)
		st.Counters.Services++
		if late {
			st.Counters.Missed++
		} else {
			st.Counters.Met++
		}
		if idx == res.Circulated {
			st.Counters.Wins++
			if st.spec.Class == attr.WindowConstrained {
				// Reuse the winner window rules without the shared
				// service bookkeeping.
				switch {
				case st.y > st.x:
					st.y--
				case st.x == st.y && st.x > 0:
					st.x--
					st.y--
				}
				if st.x == 0 && st.y == 0 {
					st.x, st.y = st.spec.Constraint.Num, st.spec.Constraint.Den
				}
			}
		}
		st.load(true)
	}
	s.now++
	s.Decisions++
	return res
}

// Advance forwards timed sources to the scheduler clock (call before
// RunCycle when using gated traffic).
func (s *Scheduler) Advance() {
	type timed interface{ Advance(uint64) }
	for _, st := range s.streams {
		if st == nil {
			continue
		}
		if ts, ok := st.src.(timed); ok {
			ts.Advance(s.now)
		}
	}
}

// Start loads every admitted stream's first head.
func (s *Scheduler) Start() {
	s.Advance()
	for _, st := range s.streams {
		if st != nil {
			st.load(false)
		}
	}
}
