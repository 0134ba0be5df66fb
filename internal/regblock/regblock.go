// Package regblock implements the ShareStreams Register Base block, also
// called a Stream-slot: the per-stream state store and attribute-adjustment
// logic of the hardware architecture (Figure 4 of the paper).
//
// A Register Base block holds one stream's service attributes in CLB
// flip-flops (deadline, loss numerator/denominator, arrival time, slot ID),
// supplies them to the Decision-block network each SCHEDULE cycle, and —
// for window-constrained disciplines — applies winner/loser adjustments
// every PRIORITY_UPDATE cycle when the winning slot ID is circulated back.
// Per-slot performance counters (missed deadlines, violations, services)
// live here too, as in the hardware.
//
// Disciplines map onto the slot through its attribute class (see attr.Class):
//
//   - Window-constrained (DWCS): deadlines are synthesized — each consumed
//     packet's successor is due one request period later — the window
//     registers adjust every decision cycle, and an expired head is dropped
//     (the loss the window accounting tolerates).
//   - EDF: the same deadline synthesis, window logic quiesced. Expired heads
//     are NOT dropped: they stay queued and are eventually transmitted late,
//     while the slot's missed-deadline counter increments once per decision
//     cycle in which the due stream lost ("others with conflicting deadlines
//     will increment their missed deadline counters by one", §5.1). This is
//     the Table 3 accounting.
//   - Static-priority: the deadline field holds a time-invariant priority.
//   - Fair-tag: the deadline field holds the per-packet service tag computed
//     by the Queue Manager; PRIORITY_UPDATE is bypassed ("the packet
//     priority does not change after each packet is queued").
//
// # Time
//
// The datapath fields are 16-bit, exactly as in the Virtex-I prototype, and
// all Decision-block ordering happens on the wrapped values (live heads stay
// within the serial-number window of each other). For *instrumentation* —
// lateness of a transmission, expiry of a loser — the model keeps 64-bit
// shadow copies of the deadline and arrival, because an overloaded EDF
// backlog grows staler than the 16-bit half-window over the paper's
// 64000-cycle runs and the performance counters must not wrap with it.
//
// Aggregation (§4.3, §5.1): a slot may stand for many streamlets; the slot
// then carries the aggregate's QoS state while the Stream processor
// round-robins among streamlet queues (package streamlet).
package regblock

import (
	"fmt"

	"repro/internal/attr"
)

// Head describes the next packet a slot's queue offers: its arrival time
// and, for fair-tag slots, the Queue-Manager-computed service tag. Times are
// 64-bit virtual; the slot truncates them onto the 16-bit datapath fields.
type Head struct {
	Arrival uint64
	Tag     uint64 // service tag; used only by attr.FairTag slots
}

// HeadSource feeds a Register Base block with successive packet heads — the
// model counterpart of the Streaming unit keeping per-stream card queues
// full. NextHead reports false when the queue is currently empty, which
// invalidates the slot until Refill.
type HeadSource interface {
	NextHead() (Head, bool)
}

// Counters are the slot's hardware performance counters.
type Counters struct {
	Wins       uint64 // decision cycles this slot's stream was the circulated winner
	Services   uint64 // packets transmitted from this slot (block mode services every member)
	Met        uint64 // packets transmitted by their deadline
	Missed     uint64 // missed-deadline count (late transmissions + per-cycle loser ticks + drops)
	Drops      uint64 // packets dropped at deadline expiry (window-constrained class)
	Violations uint64 // window-constraint violations (a miss while the tolerance was exhausted)
}

// Block is one Register Base block. Methods are invoked by the scheduler
// control unit in FSM order (LOAD, then SCHEDULE/PRIORITY_UPDATE cycles), so
// the struct itself needs no internal two-phase machinery.
type Block struct {
	spec attr.Spec
	src  HeadSource

	cur  attr.Attributes // the 16-bit attribute word presented to the network
	d64  uint64          // shadow deadline (virtual time)
	a64  uint64          // shadow arrival (virtual time)
	orig attr.Constraint // original window-constraint, reloaded on window completion

	// key is cur's packed rank key (attr.Key) against keyRef, maintained at
	// every attribute mutation — the hardware analogue of the flattened
	// comparator word latched next to the attribute registers. The scheduler
	// reads it each SCHEDULE cycle instead of re-packing all N words.
	// keyConst caches the constraint fields (attr.KeyConstraint of the
	// current window registers) so the per-head rekey skips the rank-table
	// lookup; it is refreshed whenever LossNum/LossDen change.
	key      attr.Key
	keyConst attr.Key
	keyRef   attr.Time16
	gen      uint32 // bumped on every attribute/key mutation (see Gen)

	Counters Counters
}

// New builds a Register Base block for slot id serving spec, drawing packet
// heads from src. The slot starts empty (invalid) until Load.
func New(id attr.SlotID, spec attr.Spec, src HeadSource) (*Block, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("regblock: slot %d: %w", id, err)
	}
	if src == nil {
		return nil, fmt.Errorf("regblock: slot %d: nil head source", id)
	}
	b := &Block{
		spec: spec,
		src:  src,
		orig: spec.Constraint,
		cur: attr.Attributes{
			Slot:    id,
			LossNum: spec.Constraint.Num,
			LossDen: spec.Constraint.Den,
		},
	}
	b.rekeyConstraint()
	return b, nil
}

// Spec returns the stream specification the slot was admitted with.
func (b *Block) Spec() attr.Spec { return b.spec }

// Out returns the slot's current attribute word — the value driven onto the
// Decision-block input bus this cycle.
func (b *Block) Out() attr.Attributes { return b.cur }

// Valid reports whether the slot currently holds a backlogged stream.
func (b *Block) Valid() bool { return b.cur.Valid }

// Key returns the slot's cached packed rank key — cur.Key(ref) for the
// reference last installed with SetKeyRef. It is recomputed only when the
// attribute word mutates (PRIORITY_UPDATE / INGEST), never per compare.
func (b *Block) Key() attr.Key { return b.key }

// SetKeyRef installs the key-normalization reference and rekeys. The
// scheduler refreshes it epochally (every few thousand cycles) so live
// deadlines stay inside the monotonic window of the packed key; any
// reference is *correct* (decision.FastOrder's serial-window guard falls
// back to the cascade outside the window), a good one is merely faster.
func (b *Block) SetKeyRef(ref attr.Time16) {
	b.keyRef = ref
	b.rekey()
}

// rekey repacks the rank key after a cur mutation that left the window
// registers alone — pure shifts around the cached constraint part.
func (b *Block) rekey() {
	b.key = b.cur.KeyWith(b.keyConst, b.keyRef)
	b.gen++
}

// Gen returns the slot's mutation generation: it changes whenever the
// attribute word or its key does, so the scheduler can skip relatching
// unchanged slots onto the network bus between decision cycles. (Every
// mutation path ends in rekey, which bumps it.)
func (b *Block) Gen() uint32 { return b.gen }

// rekeyConstraint refreshes the cached constraint fields and the key after a
// window-register mutation.
func (b *Block) rekeyConstraint() {
	b.keyConst = attr.KeyConstraint(b.cur.LossNum, b.cur.LossDen)
	b.rekey()
}

// Deadline64 returns the shadow (unwrapped) deadline of the current head.
func (b *Block) Deadline64() uint64 { return b.d64 }

// Arrival64 returns the shadow (unwrapped) arrival of the current head.
func (b *Block) Arrival64() uint64 { return b.a64 }

// setHead installs a head with the given shadow deadline, refreshing the
// 16-bit datapath fields.
func (b *Block) setHead(h Head, deadline uint64) {
	b.a64 = h.Arrival
	b.d64 = deadline
	b.cur.Valid = true
	b.cur.Arrival = attr.WrapTime(h.Arrival)
	b.cur.Deadline = attr.WrapTime(deadline)
	b.rekey()
}

// deadlineFor computes a head's shadow deadline given the predecessor's.
// For the synthesis classes the successor is due one request period after
// the predecessor — or, if the stream went idle (the next arrival is past
// the old deadline), one period after its arrival (re-anchoring).
func (b *Block) deadlineFor(h Head, prev uint64) uint64 {
	switch b.spec.Class {
	case attr.StaticPriority:
		return uint64(b.spec.Priority)
	case attr.FairTag:
		return h.Tag
	default:
		d := prev + uint64(b.spec.Period)
		if anchored := h.Arrival + uint64(b.spec.Period); anchored > d {
			d = anchored
		}
		return d
	}
}

// Load performs the control unit's LOAD state for this slot: pull the first
// head from the source and anchor the deadline one request period after its
// arrival. Empty sources leave the slot invalid.
func (b *Block) Load(now uint64) {
	h, ok := b.src.NextHead()
	if !ok {
		b.cur.Valid = false
		b.rekey()
		return
	}
	_ = now
	b.setHead(h, b.deadlineFor(h, h.Arrival))
}

// advance consumes the current head and loads its successor.
func (b *Block) advance() {
	h, ok := b.src.NextHead()
	if !ok {
		b.cur.Valid = false
		b.rekey()
		return
	}
	b.setHead(h, b.deadlineFor(h, b.d64))
}

// Service consumes the head as transmitted. late reports whether the caller
// (which knows transmission timing and, in block mode, the within-block
// rank) determined the packet went out past its deadline. The window
// winner-adjustment applies only when this slot's ID was the one circulated
// in PRIORITY_UPDATE (circulated=true) and the class is window-constrained.
func (b *Block) Service(late, circulated bool) {
	if !b.cur.Valid {
		return
	}
	b.Counters.Services++
	if late {
		b.Counters.Missed++
	} else {
		b.Counters.Met++
	}
	if circulated {
		b.Counters.Wins++
		if b.spec.Class == attr.WindowConstrained {
			b.winnerWindowAdjust()
		}
	}
	b.advance()
}

// winnerWindowAdjust applies the DWCS served-before-deadline rules to the
// current window-constraint registers x'/y' (x' = LossNum, y' = LossDen):
//
//	if y' > x'                 { y'-- }       // one fewer slot left in the window
//	else if x' == y' && x' > 0 { x'--; y'-- } // remaining slots may all be lost
//	if x' == 0 && y' == 0      { reload original } // window complete
//
// winnerWindowAdjust refreshes the cached constraint part but does not
// repack the full key: its only caller (Service) advances the head right
// after, and advance rekeys on both of its paths.
func (b *Block) winnerWindowAdjust() {
	b.cur.LossNum, b.cur.LossDen = previewWinnerWindow(b.cur.LossNum, b.cur.LossDen, b.orig)
	b.keyConst = attr.KeyConstraint(b.cur.LossNum, b.cur.LossDen)
}

// ExpireCheck performs the loser-side PRIORITY_UPDATE at virtual time now
// (the next transmission opportunity): if the head's deadline has passed
// (deadline < now), the missed-deadline counter increments. What happens to
// the head depends on the class:
//
//   - Window-constrained: the packet is dropped — the loss the window
//     tolerates — and the DWCS missed-deadline rules adjust the registers:
//
//     if x' > 0 { x'--; y'-- ; reload original if both reach 0 }
//     else      { y'++ (saturating); violation++ }
//
//     With the tolerance exhausted (x' = 0), W' stays 0 and Table 2's rule 3
//     orders the *higher* denominator first, so y'++ is exactly the "losers
//     have their priorities raised" bias of §2.
//
//   - EDF: the head stays queued (it will be transmitted late); the counter
//     ticks once per decision cycle the due stream loses, the paper's
//     Table 3 accounting.
//
// It reports whether a miss was charged.
func (b *Block) ExpireCheck(now uint64) bool {
	if !b.cur.Valid {
		return false
	}
	switch b.spec.Class {
	case attr.StaticPriority, attr.FairTag:
		return false // no deadlines to expire
	default: // EDF, WindowConstrained: deadline-bearing, checked below
	}
	if b.d64 >= now {
		return false
	}
	b.Counters.Missed++
	if b.spec.Class == attr.WindowConstrained {
		b.Counters.Drops++
		b.loserWindowAdjust()
		b.advance()
	}
	return true
}

// loserWindowAdjust refreshes the cached constraint part but does not
// repack the full key: its only caller (ExpireCheck) advances the head
// right after, and advance rekeys on both of its paths.
func (b *Block) loserWindowAdjust() {
	if b.cur.LossNum == 0 {
		b.Counters.Violations++
	}
	b.cur.LossNum, b.cur.LossDen = previewLoserWindow(b.cur.LossNum, b.cur.LossDen, b.orig)
	b.keyConst = attr.KeyConstraint(b.cur.LossNum, b.cur.LossDen)
}

// Rebind swaps the slot's head source while keeping its identity: spec,
// slot ID, window registers, and performance counters all survive. The
// in-flight head (a frame already pulled from the old source but not yet
// transmitted) is discarded — the caller owns conservation for it, e.g. by
// recomputing remaining work from the scheduled count — and the slot
// reloads from the new source at virtual time now (staying invalid when the
// new source starts empty). This is the supervisor's re-aggregation hook:
// after a dead shard's flows are folded into a survivor's streamlet set,
// the slot's source becomes the aggregator without disturbing QoS state.
// It reports whether an in-flight head was flushed.
func (b *Block) Rebind(src HeadSource, now uint64) (bool, error) {
	if src == nil {
		return false, fmt.Errorf("regblock: slot %d: rebind to nil head source", b.cur.Slot)
	}
	flushed := b.cur.Valid
	b.src = src
	b.Load(now)
	return flushed, nil
}

// Retune swaps the slot's service attributes in place while keeping
// everything else: the head source, the in-flight head, and the performance
// counters all survive — the live-control counterpart of Rebind, which swaps
// the source and keeps the spec. The new spec must be of the same attribute
// class (a class change alters what the Queue Manager stamps and what the
// expiry rules mean mid-stream; evict and re-admit instead). The window
// registers reset to the new constraint — a retuned tolerance starts a fresh
// window — while the current head keeps the deadline it was admitted under;
// successors synthesize deadlines from the new spec (deadlineFor reads the
// live spec).
func (b *Block) Retune(spec attr.Spec) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("regblock: slot %d: %w", b.cur.Slot, err)
	}
	if spec.Class != b.spec.Class {
		return fmt.Errorf("regblock: slot %d: retune cannot change class %v to %v",
			b.cur.Slot, b.spec.Class, spec.Class)
	}
	b.spec = spec
	b.orig = spec.Constraint
	b.cur.LossNum = spec.Constraint.Num
	b.cur.LossDen = spec.Constraint.Den
	b.rekeyConstraint()
	return nil
}

// Refill re-validates an idle slot when its queue becomes non-empty again
// (event-driven path used by the endsystem). now anchors the new deadline.
// For backlogged guarded static-priority slots it doubles as the per-cycle
// starvation-guard evaluation (the hardware would fold this into the same
// INGEST pass).
func (b *Block) Refill(now uint64) {
	if b.cur.Valid {
		b.guardCheck(now)
		return
	}
	b.Load(now)
}

// guardCheck applies the static-priority starvation guard: once the current
// head has waited Guard virtual ticks past its arrival, its deadline field
// is boosted to 0 — the front of the priority order — until the head is
// served (advance re-synthesizes the deadline from the spec, un-boosting
// the successor). The boost fires at most once per head: after it, d64 is 0
// and the check short-circuits, so the steady-state cost is two compares.
func (b *Block) guardCheck(now uint64) {
	if b.spec.Guard == 0 || b.spec.Class != attr.StaticPriority || b.d64 == 0 {
		return
	}
	if now >= b.a64+uint64(b.spec.Guard) {
		b.d64 = 0
		b.cur.Deadline = 0
		b.rekey()
	}
}

// ComputeAhead is the §6 "compute-ahead" microarchitectural extension: the
// slot predicates both possible next attribute words — the one if it wins
// and the one if it loses this decision cycle — a cycle early, so
// PRIORITY_UPDATE collapses into a mux select. The previews cover the
// attribute-adjustment arithmetic (deadline synthesis and window registers,
// assuming a backlogged queue); the arrival-time field is only known once
// the next head actually loads, exactly as in hardware, so it is left
// unchanged in the previews. The slot is not mutated.
func (b *Block) ComputeAhead(now uint64) (ifWinner, ifLoser attr.Attributes) {
	ifWinner, ifLoser = b.cur, b.cur
	if !b.cur.Valid {
		return ifWinner, ifLoser
	}
	switch b.spec.Class {
	case attr.StaticPriority, attr.FairTag:
		return ifWinner, ifLoser // adjustments bypassed for these classes
	default: // EDF, WindowConstrained: previewed below
	}
	// Winner path: window winner-adjust, then deadline synthesis.
	if b.spec.Class == attr.WindowConstrained {
		ifWinner.LossNum, ifWinner.LossDen = previewWinnerWindow(b.cur.LossNum, b.cur.LossDen, b.orig)
	}
	ifWinner.Deadline = attr.WrapTime(b.d64 + uint64(b.spec.Period))
	// Loser path: only changes if the head has expired and the class
	// drops on expiry.
	if b.d64 < now && b.spec.Class == attr.WindowConstrained {
		ifLoser.LossNum, ifLoser.LossDen = previewLoserWindow(b.cur.LossNum, b.cur.LossDen, b.orig)
		ifLoser.Deadline = attr.WrapTime(b.d64 + uint64(b.spec.Period))
	}
	return ifWinner, ifLoser
}

func previewWinnerWindow(x, y uint8, orig attr.Constraint) (uint8, uint8) {
	switch {
	case y > x:
		y--
	case x == y && x > 0:
		x--
		y--
	}
	if x == 0 && y == 0 {
		return orig.Num, orig.Den
	}
	return x, y
}

func previewLoserWindow(x, y uint8, orig attr.Constraint) (uint8, uint8) {
	if x > 0 {
		x--
		y--
		if x == 0 && y == 0 {
			return orig.Num, orig.Den
		}
		return x, y
	}
	if y < 255 {
		y++
	}
	return x, y
}
