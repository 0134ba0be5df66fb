package core

// The word-plane decision cycle the key-plane cycle replaced, kept as the
// oracle for TestCycleDifferential: runCycle, runWinnerOnly and runBlock are
// verbatim, minus runCycle's relatch sweep after key-only latches (an oracle
// scheduler never runs the key-plane cycle, so its words are never stale).
// Every cycle advances every timed source, refills every slot, latches the
// whole attribute word and gathers the ordered word block through RunLoaded,
// and reads each Transmission off that block.

import (
	"repro/internal/attr"
	"repro/internal/shuffle"
)

// oracleRunCycles is RunCycles driving the oracle cycle: sources are
// advanced eagerly every cycle, so there is nothing to sync at the end.
func (s *Scheduler) oracleRunCycles(n int, visit func(*CycleResult) bool) int {
	cr := &s.crBuf
	for i := 0; i < n; i++ {
		s.runCycle(cr)
		if visit != nil && !visit(cr) {
			return i + 1
		}
	}
	return n
}

// oracleRunCycle is RunCycle driving the oracle cycle.
func (s *Scheduler) oracleRunCycle() CycleResult {
	var cr CycleResult
	s.runCycle(&cr)
	return cr
}

// runCycle executes one decision cycle into cr (overwriting it entirely).
func (s *Scheduler) runCycle(cr *CycleResult) {
	t := s.vnow

	// Epochal key-reference refresh: re-center the packed-key normalization
	// window on the virtual clock so live deadlines keep resolving on the
	// fast path (see keyRefreshPeriod).
	if t >= s.nextRekey {
		s.keyRef = attr.WrapTime(t) - 0x8000
		s.recenter(t)
		for _, b := range s.slots {
			b.SetKeyRef(s.keyRef)
		}
		s.nextRekey = t + keyRefreshPeriod
	} else if t >= s.nextRecenter {
		s.recenter(t)
	}

	// INGEST half 1 fused with the SCHEDULE latch: release newly arrived
	// traffic, refill idle slots (the Streaming unit keeping card queues
	// full), and drive each slot's attribute word and cached rank key onto
	// the network's input registers — one pass over the slots, slots being
	// mutually independent until the network runs. A slot whose mutation
	// generation is unchanged since its last latch is already on the bus
	// and is skipped.
	for i, b := range s.slots {
		if ts := s.timed[i]; ts != nil {
			ts.Advance(t)
		}
		b.Refill(t)
		if g := uint64(b.Gen()); g != s.gens[i] {
			s.gens[i] = g
			s.nw.SetInput(i, b.Out(), b.Key())
		}
	}
	res := s.nw.RunLoaded()

	*cr = CycleResult{
		Decision: s.decisions,
		Time:     t,
		HWCycles: s.cpd,
	}
	s.txBuf = s.txBuf[:0]
	s.cycleExpiries = 0
	s.cycleWinnerKey = 0

	switch s.cfg.Routing {
	case WinnerOnly:
		s.runWinnerOnly(t, res, cr)
	default:
		s.runBlock(t, res, cr)
	}

	s.decisions++
	s.hwCycles += uint64(cr.HWCycles)
	s.vnow++
	if cr.Idle {
		s.idleCount++
	}
	cr.Transmissions = s.txBuf
	if s.trace != nil {
		s.emitTrace(cr) //sslint:allow allocproof — tracing is a debug facility; trace is nil on measured runs
	}
	if s.obs != nil {
		s.observe(cr)
	}
}

// runWinnerOnly transmits the single winner and expire-checks the losers.
func (s *Scheduler) runWinnerOnly(now uint64, res shuffle.Result, cr *CycleResult) {
	if !res.Winner.Valid {
		cr.Idle = true
		return
	}
	w := res.Winner
	cr.Winner = w.Slot
	wb := s.slots[w.Slot]
	s.cycleWinnerKey = wb.Key()
	s.arrHint, s.dlHint = wb.Arrival64(), wb.Deadline64()
	late := wb.Deadline64() < now
	s.txBuf = append(s.txBuf, Transmission{
		Slot: w.Slot, Rank: 0, Late: late, Deadline: w.Deadline,
		Arrival: w.Arrival, Arrival64: wb.Arrival64(),
	})
	wb.Service(late, true)
	// PRIORITY_UPDATE, loser side: a head that can no longer be scheduled
	// by its deadline (the next opportunity is now+1) charges the
	// missed-deadline counter — per decision cycle, the paper's Table 3
	// accounting — and, for window-constrained streams, is dropped.
	for _, b := range s.slots {
		if b.Out().Slot == w.Slot {
			continue
		}
		if b.ExpireCheck(now + 1) {
			s.cycleExpiries++
		}
	}
}

// runBlock transmits the whole block as one transaction, in head-first
// (max-first) or tail-first (min-first) order, circulating the
// corresponding end of the block for PRIORITY_UPDATE.
func (s *Scheduler) runBlock(now uint64, res shuffle.Result, cr *CycleResult) {
	// Invalid slots sink to the block tail (Decision validity rule), so
	// the valid prefix is the transaction.
	valid := len(res.Block)
	for valid > 0 && !res.Block[valid-1].Valid { //sslint:bounded valid strictly decreases toward its zero floor
		valid--
	}
	if valid == 0 {
		cr.Idle = true
		return
	}
	var circulated attr.SlotID
	if s.cfg.Circulate == MaxFirst {
		circulated = res.Block[0].Slot
	} else {
		circulated = res.Block[valid-1].Slot
	}
	cr.Winner = circulated
	s.cycleWinnerKey = s.slots[circulated].Key()
	for r := 0; r < valid; r++ {
		member := res.Block[r]
		if s.cfg.Circulate == MinFirst {
			member = res.Block[valid-1-r] // tail-first transaction
		}
		mb := s.slots[member.Slot]
		if r == 0 {
			s.arrHint, s.dlHint = mb.Arrival64(), mb.Deadline64()
		}
		late := mb.Deadline64() < now+uint64(r)
		s.txBuf = append(s.txBuf, Transmission{
			Slot: member.Slot, Rank: r, Late: late, Deadline: member.Deadline,
			Arrival: member.Arrival, Arrival64: mb.Arrival64(),
		})
		s.slots[member.Slot].Service(late, member.Slot == circulated)
	}
}
