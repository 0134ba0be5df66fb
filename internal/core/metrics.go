package core

import (
	"fmt"

	"repro/internal/obs"
)

// Metrics is the scheduler's observability bundle: the per-cycle decision
// and block-utilization telemetry the running system keeps about itself
// (DESIGN.md §6 lists the canonical names and units). Every field except
// Tracer must be non-nil when attached; NewMetrics builds a complete bundle
// against a registry.
//
// Recording is allocation-free — TestZeroAllocInstrumented pins 0
// allocs/cycle with the whole bundle (tracer included) enabled — and all
// times are virtual: decision cycles, never the host clock.
type Metrics struct {
	// Decisions counts completed decision cycles; Idle the subset with no
	// backlogged slot.
	Decisions *obs.Counter
	Idle      *obs.Counter
	// Transmissions counts frames sent; Late the subset sent after their
	// deadline; Expiries the loser heads charged by ExpireCheck.
	Transmissions *obs.Counter
	Late          *obs.Counter
	Expiries      *obs.Counter
	// HW accumulates modeled hardware clock cycles (the Table-1 FSM cost).
	HW *obs.Counter
	// Occupancy is the block-utilization histogram: transmissions per
	// non-idle cycle, in slots (1 for WR; up to N for BA). Utilization is
	// its mean over Config.Slots.
	Occupancy *obs.Histogram
	// WinnerWait is the decision-latency histogram in virtual cycles: how
	// long the circulated winner's head waited from arrival to decision.
	WinnerWait *obs.Histogram
	// Tracer, when non-nil, keeps the last K cycles (winner slot, block
	// occupancy, expiries, winner rank key) for post-mortem dumps.
	Tracer *obs.CycleTracer
}

// NewMetrics registers a complete scheduler bundle on reg under prefix
// (canonically "core"): prefix.decisions, prefix.idle_cycles,
// prefix.transmissions, prefix.late_transmissions, prefix.expiries,
// prefix.hw_cycles, prefix.block_occupancy, prefix.winner_wait, and — when
// traceDepth > 0 — the prefix.cycles tracer. Registration is idempotent, so
// successive schedulers can share one bundle and their counts aggregate.
func NewMetrics(reg *obs.Registry, prefix string, traceDepth int) (*Metrics, error) {
	if reg == nil {
		return nil, fmt.Errorf("core: NewMetrics with nil registry")
	}
	m := &Metrics{
		Decisions:     reg.Counter(prefix+".decisions", "cycles"),
		Idle:          reg.Counter(prefix+".idle_cycles", "cycles"),
		Transmissions: reg.Counter(prefix+".transmissions", "frames"),
		Late:          reg.Counter(prefix+".late_transmissions", "frames"),
		Expiries:      reg.Counter(prefix+".expiries", "heads"),
		HW:            reg.Counter(prefix+".hw_cycles", "clocks"),
		Occupancy:     reg.Histogram(prefix+".block_occupancy", "slots"),
		WinnerWait:    reg.Histogram(prefix+".winner_wait", "cycles"),
	}
	if traceDepth > 0 {
		t, err := reg.Tracer(prefix+".cycles", traceDepth)
		if err != nil {
			return nil, err
		}
		m.Tracer = t
	}
	return m, nil
}

// validate rejects partially wired bundles: a nil field would panic mid-run
// on the hot path, so Instrument refuses it up front.
func (m *Metrics) validate() error {
	switch {
	case m.Decisions == nil, m.Idle == nil, m.Transmissions == nil,
		m.Late == nil, m.Expiries == nil, m.HW == nil,
		m.Occupancy == nil, m.WinnerWait == nil:
		return fmt.Errorf("core: Metrics bundle incomplete (every field except Tracer must be non-nil)")
	}
	return nil
}

// Instrument attaches a metrics bundle to the scheduler; every subsequent
// decision cycle records into it. Pass nil to detach. Instrumentation may
// be attached or swapped at any time, including mid-run — the bundle only
// accumulates from that point.
func (s *Scheduler) Instrument(m *Metrics) error {
	if m != nil {
		if err := m.validate(); err != nil {
			return err
		}
	}
	s.obs = m
	return nil
}

// observe records one completed cycle into the attached bundle. It runs on
// the decision hot path, so it is structurally allocation-free (allocproof
// checks it) and guarded by the nil test in cycle.
func (s *Scheduler) observe(cr *CycleResult) {
	m := s.obs
	m.Decisions.Inc()
	m.HW.Add(uint64(cr.HWCycles))
	occ := len(cr.Transmissions)
	if cr.Idle {
		m.Idle.Inc()
	} else {
		m.Transmissions.Add(uint64(occ))
		m.Occupancy.Observe(uint64(occ))
		var late uint64
		for i := range cr.Transmissions {
			if cr.Transmissions[i].Late {
				late++
			}
		}
		if late > 0 {
			m.Late.Add(late)
		}
		// Rank 0 is the circulated winner under every configuration (the
		// head in WR/max-first, the tail in min-first's tail-first
		// transaction).
		if a := cr.Transmissions[0].Arrival64; cr.Time >= a {
			m.WinnerWait.Observe(cr.Time - a)
		}
	}
	if s.cycleExpiries > 0 {
		m.Expiries.Add(uint64(s.cycleExpiries))
	}
	if m.Tracer != nil {
		m.Tracer.Record(obs.CycleRecord{
			Decision:  cr.Decision,
			Time:      cr.Time,
			Winner:    uint32(cr.Winner),
			Idle:      cr.Idle,
			Occupancy: uint16(occ),
			Expiries:  s.cycleExpiries,
			WinnerKey: uint64(s.cycleWinnerKey),
		})
	}
}
