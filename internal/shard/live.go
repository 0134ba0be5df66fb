package shard

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/qm"
	"repro/internal/regblock"
)

// This file is the router's live (service) mode: instead of admitting a
// fixed stream set and running one batch to completion, a control plane
// starts the shards once and then admits, retunes, and evicts streams while
// the schedulers run. Slots are reusable — eviction opens a hole, the next
// admission to that shard fills the lowest free slot — and every mutation is
// only legal at a fenced quiescent point of its shard: the caller (the
// ctlplane engine) guarantees no producer is mid-Offer and the scheduler is
// between StepShard batches. The dispatcher invariant is unchanged: a
// stream's home shard is its flow hash, and it is never re-homed.

// emptySource is the head source of a vacated slot: it never yields a head,
// so the slot idles (never backlogged, never wins) until re-admission
// replaces the block. Rebinding to it — rather than leaving the evicted
// stream's source attached — keeps the dead slot from pulling frames out of
// a ring the Queue Manager no longer accounts to anyone.
type emptySource struct{}

func (emptySource) NextHead() (regblock.Head, bool) { return regblock.Head{}, false }

// StartLive switches the router into live mode: every shard's overload
// policy is set to policy, every scheduler starts, and from here on slots
// change through AdmitLive/EvictLive/RetuneLive at fenced quiescent points
// instead of batch Admit/Run. Streams batch-admitted before StartLive are
// carried over and become live-manageable. StartLive and Run are mutually
// exclusive, and each may happen once.
func (r *Router) StartLive(policy qm.Policy) error {
	if r.ran {
		return fmt.Errorf("shard: StartLive after Run or StartLive")
	}
	r.ran = true
	r.live = true
	for _, s := range r.shards {
		s.manager.SetPolicy(policy)
		if err := s.sched.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Live reports whether StartLive has been called.
func (r *Router) Live() bool { return r.live }

// Locate returns stream id's placement (home shard, local slot), with
// ok=false for unknown streams.
func (r *Router) Locate(id StreamID) (shard, slot int, ok bool) {
	loc, found := r.byID[id]
	if !found {
		return 0, 0, false
	}
	return loc.shard, loc.slot, true
}

// SlotStream returns the stream occupying shard k's slot, with ok=false for
// free slots or out-of-range indices — the inverse of Locate, for walking a
// shard's occupancy without map iteration (deterministic order).
func (r *Router) SlotStream(k, slot int) (StreamID, bool) {
	if k < 0 || k >= len(r.shards) || slot < 0 || slot >= r.cfg.SlotsPerShard {
		return 0, false
	}
	s := r.shards[k]
	if !s.used[slot] {
		return 0, false
	}
	return s.ids[slot], true
}

// AdmitLive admits stream id while the shards run: the flow hash picks the
// home shard, the lowest free slot there receives the descriptor and a
// freshly loaded block (counters start fresh — it is a new stream,
// whatever slot it reuses). It fails when the router is not live, the ID is
// already admitted, the home shard has no free slot, or the spec is illegal
// under the configured program's decision mode. Returns the placement.
func (r *Router) AdmitLive(id StreamID, spec attr.Spec) (shard, slot int, err error) {
	if !r.live {
		return 0, 0, fmt.Errorf("shard: AdmitLive before StartLive")
	}
	return r.bind(id, spec)
}

// EvictReport accounts one live eviction for the caller's conservation
// ledger: Drained frames were removed from the stream's ring without ever
// reaching the card (head-drop debt frames are not among them — their loss
// was charged at Offer time), and Flushed reports whether the slot held an
// in-flight latched head, already dequeued but never transmitted, that the
// rebind discarded. Evicted work = Drained + Flushed.
type EvictReport struct {
	Shard   int
	Slot    int
	Drained int
	Flushed bool
}

// EvictLive removes stream id while the shards run: the stream's ring is
// drained (salvageable frames counted, debt frames discarded against their
// already-charged drops), the slot's block is rebound to an empty source —
// flushing any in-flight head and freeing the slot to idle — the slot's
// fair-queuing tag state is reset for its next occupant, and the counters
// the evicted stream accumulated stay on the slot (they are hardware
// counters; the ctlplane ledger snapshots them per occupancy). Only legal at
// a fenced quiescent point of the stream's shard.
func (r *Router) EvictLive(id StreamID) (EvictReport, error) {
	if !r.live {
		return EvictReport{}, fmt.Errorf("shard: EvictLive before StartLive")
	}
	loc, ok := r.byID[id]
	if !ok {
		return EvictReport{}, fmt.Errorf("shard: stream %d not admitted", id)
	}
	s := r.shards[loc.shard]
	rep := EvictReport{Shard: loc.shard, Slot: loc.slot}
	rep.Drained = s.manager.Drain(loc.slot, nil)
	flushed, err := s.sched.Rebind(loc.slot, emptySource{})
	if err != nil {
		return rep, err
	}
	rep.Flushed = flushed
	s.manager.ResetTags(loc.slot)
	s.used[loc.slot] = false
	s.ids[loc.slot] = 0
	s.occupied.Add(-1)
	delete(r.byID, id)
	return rep, nil
}

// RetuneLive swaps stream id's service attributes in place — weights,
// periods, priorities, window constraints — keeping the slot's queue,
// in-flight head, and performance counters. The attribute class must not
// change (evict + re-admit instead; core enforces it before any state
// mutates). Only legal at a fenced quiescent point of the stream's shard.
func (r *Router) RetuneLive(id StreamID, spec attr.Spec) error {
	if !r.live {
		return fmt.Errorf("shard: RetuneLive before StartLive")
	}
	loc, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("shard: stream %d not admitted", id)
	}
	s := r.shards[loc.shard]
	if err := s.sched.Retune(loc.slot, spec); err != nil {
		return err
	}
	// The scheduler accepted, so the spec is valid and same-class; the
	// Queue-Manager descriptor follows it (weights feed tag stamping).
	return s.manager.Describe(loc.slot, spec)
}

// SetStreamProgram switches stream id's per-slot rank program (the
// STFQ/WFQ start-vs-finish tag choice is the only datapath difference).
// Frames already stamped keep their tags; the switch changes which tag
// future dequeues load onto the card.
func (r *Router) SetStreamProgram(id StreamID, p decision.Program) error {
	if !r.live {
		return fmt.Errorf("shard: SetStreamProgram before StartLive")
	}
	loc, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("shard: stream %d not admitted", id)
	}
	return r.shards[loc.shard].manager.SetProgram(loc.slot, p)
}

// StepShard hands shard k's scheduler n decision cycles, forwarding each
// cycle's result to visit exactly as core.RunCycles does (visit may be
// nil). It is the live mode's shard clock: the ctlplane
// engine steps every shard once per epoch, and the quiescent gaps between
// StepShard calls are where mutations fence in.
func (r *Router) StepShard(k, n int, visit func(*core.CycleResult) bool) (int, error) {
	if !r.live {
		return 0, fmt.Errorf("shard: StepShard before StartLive")
	}
	if k < 0 || k >= len(r.shards) {
		return 0, fmt.Errorf("shard: shard %d out of range [0, %d)", k, len(r.shards))
	}
	return r.shards[k].sched.RunCycles(n, visit), nil
}

// ShardNow returns shard k's scheduler virtual time (0 when k is out of
// range).
func (r *Router) ShardNow(k int) uint64 {
	if k < 0 || k >= len(r.shards) {
		return 0
	}
	return r.shards[k].sched.Now()
}

// SlotCounters returns shard k's slot hardware counters (zero value when
// out of range) — the ctlplane ledger's per-occupancy delta source.
func (r *Router) SlotCounters(k, slot int) regblock.Counters {
	if k < 0 || k >= len(r.shards) {
		return regblock.Counters{}
	}
	return r.shards[k].sched.SlotCounters(slot)
}

// SlotInFlight reports whether shard k's slot holds an in-flight latched
// head: a frame dequeued from its ring but not yet transmitted. The
// conservation ledger counts it as in-flight work.
func (r *Router) SlotInFlight(k, slot int) bool {
	if k < 0 || k >= len(r.shards) {
		return false
	}
	return r.shards[k].sched.SlotAttributes(slot).Valid
}
