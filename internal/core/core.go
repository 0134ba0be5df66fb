// Package core implements the ShareStreams unified canonical scheduler: the
// paper's primary contribution. It glues N Register Base blocks
// (stream-slots) to the recirculating shuffle-exchange network of Decision
// blocks under a Control & Steering FSM, and realizes priority-class,
// fair-queuing, EDF and window-constrained scheduling on the single
// datapath.
//
// # FSM timeline (Figure 6)
//
// The control unit begins in LOAD — every slot's first head and service
// attributes are ingested — then alternates SCHEDULE and PRIORITY_UPDATE:
//
//	SCHEDULE        log₂N network passes (one clock each) order the slots;
//	CIRCULATE       one clock returns the winning slot ID to every
//	                Register Base block and the memory interface;
//	PRIORITY_UPDATE one clock applies winner/loser attribute adjustments
//	                concurrently in all slots (bypassed for fair-queuing
//	                and priority-class mappings, and folded into CIRCULATE
//	                by the compute-ahead extension);
//	INGEST          N clocks exchange new arrival times and scheduled
//	                stream IDs with the memory interface, one slot per
//	                clock on the single SRAM port.
//
// # Block decisions vs max-finding (§4.3, §5.1)
//
// In the BA configuration (BlockRouting) each decision cycle yields the
// whole ordered block, and the block is transmitted in a single transaction:
// the member at transmission rank r goes out r packet-times into the cycle,
// so it meets its deadline iff deadline ≥ now + r. In max-first mode the
// block head (highest priority) is circulated and the block transmits
// head-first; in min-first mode the block tail is circulated and the block
// transmits tail-first — the configuration Table 3 shows violating
// deadlines. In the WR configuration (WinnerOnly) only the winner is routed
// and transmitted; losers whose deadlines expire drop their heads and charge
// the missed-deadline counters.
//
// Time is virtual: one time unit per decision cycle, with a 64-bit virtual
// clock wrapped to the 16-bit hardware fields exactly as the Stream
// processor truncates arrival-time offsets. Hardware clock-cycle costs are
// accounted per the timeline above so package fpga can convert cycle counts
// into wall-clock rates for any modeled clock frequency.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/hwsim"
	"repro/internal/regblock"
	"repro/internal/shuffle"
)

// Routing selects block (BA) or winner-only (WR) routing through the
// shuffle-exchange network.
type Routing uint8

const (
	// BlockRouting (BA) routes winners and losers, producing the sorted
	// block each decision cycle.
	BlockRouting Routing = iota
	// WinnerOnly (WR) routes winners only — the max-finding configuration.
	WinnerOnly
)

// String returns the configuration name used in the paper's figures.
func (r Routing) String() string {
	switch r {
	case BlockRouting:
		return "BA"
	case WinnerOnly:
		return "WR"
	default:
		return fmt.Sprintf("routing(%d)", uint8(r))
	}
}

// Circulate selects which end of the block is circulated during
// PRIORITY_UPDATE (BA configuration only).
type Circulate uint8

const (
	// MaxFirst circulates the highest-priority stream and transmits the
	// block head-first (Table 3: all deadlines met).
	MaxFirst Circulate = iota
	// MinFirst circulates the lowest-priority stream and transmits the
	// block tail-first (Table 3: deadlines violated).
	MinFirst
)

// String returns the mode name.
func (c Circulate) String() string {
	switch c {
	case MaxFirst:
		return "max-first"
	case MinFirst:
		return "min-first"
	default:
		return fmt.Sprintf("circulate(%d)", uint8(c))
	}
}

// Config parameterizes a scheduler instance.
type Config struct {
	// Slots is the stream-slot count N: a power of two, 2..MaxSlots. The
	// Virtex-I prototype scales 4..32 on a single chip.
	Slots int
	// Mode selects the Decision-block datapath: decision.DWCS for the full
	// multi-attribute rules, decision.TagOnly for the simple-comparator
	// fair-queuing/priority-class mapping.
	Mode decision.Mode
	// Routing selects BA (block) or WR (winner-only/max-finding).
	Routing Routing
	// Circulate selects max-first or min-first circulation (BA only).
	Circulate Circulate
	// ExactSort uses the bitonic steering schedule instead of the paper's
	// log₂N passes, guaranteeing a fully sorted block (BA extension).
	ExactSort bool
	// ComputeAhead enables the §6 compute-ahead Register Base blocks:
	// next-state attribute words are predicated a cycle early, folding
	// PRIORITY_UPDATE into the circulate clock.
	ComputeAhead bool
	// TraceDepth, when positive, keeps a bounded trace of control-unit
	// events (state transitions, circulated winners, transmissions) for
	// inspection via Trace().
	TraceDepth int
}

// MaxSlots bounds synthetic designs; the 5-bit prototype ID field is
// enforced only by attr.EncodeWord, not here, so large explorations work.
const MaxSlots = 1024

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Slots < 2 || c.Slots > MaxSlots || bits.OnesCount(uint(c.Slots)) != 1 {
		return fmt.Errorf("core: slot count %d must be a power of two in [2, %d]", c.Slots, MaxSlots)
	}
	if c.Routing == WinnerOnly && c.ExactSort {
		return fmt.Errorf("core: exact sort requires block routing (WR routes winners only)")
	}
	if c.Routing > WinnerOnly {
		return fmt.Errorf("core: unknown routing %d", c.Routing)
	}
	if c.Circulate > MinFirst {
		return fmt.Errorf("core: unknown circulate mode %d", c.Circulate)
	}
	if c.Mode > decision.TagOnly {
		return fmt.Errorf("core: unknown decision mode %d", c.Mode)
	}
	return nil
}

// ProgramConfig returns the scheduler configuration that runs slots under
// rank program p with the given routing: the Decision-block mode follows
// from the program (only ProgramDWCS needs the multi-attribute datapath).
// The rest of a discipline is per-slot state, set up by admitting specs of
// p's attribute class (decision.Program.Class) and — for the tag programs —
// pointing fair-tag streams at a Queue Manager with the matching
// per-stream program installed (qm.Manager.SetProgram).
func ProgramConfig(slots int, p decision.Program, routing Routing) Config {
	return Config{Slots: slots, Mode: p.Mode(), Routing: routing}
}

// TimedSource is an optional extension of regblock.HeadSource for
// time-gated traffic: the scheduler advances a timed source to the current
// virtual time before it pulls a head from it, releasing packets that have
// "arrived", and advances every timed source to the last executed cycle
// when a RunCycle/RunCycles call returns. Advance must be latest-wins: an
// Advance(t2) leaves the same state whether or not an Advance(t1 ≤ t2) ran
// before it.
type TimedSource interface {
	regblock.HeadSource
	Advance(now uint64)
}

// Transmission records one frame leaving the scheduler in a decision cycle.
type Transmission struct {
	Slot attr.SlotID
	// Rank is the frame's position in the outgoing block transaction
	// (always 0 in the WR configuration).
	Rank int
	// Late reports a missed deadline: the frame went out at virtual time
	// now+Rank, after its deadline.
	Late bool
	// Deadline is the frame's deadline at transmission (diagnostic).
	Deadline attr.Time16
	// Arrival is the frame's 16-bit datapath arrival time.
	Arrival attr.Time16
	// Arrival64 is the unwrapped virtual arrival time (for delay
	// measurement; the 16-bit field wraps over long runs).
	Arrival64 uint64
}

// CycleResult reports one decision cycle. Transmissions aliases an internal
// buffer that is overwritten by the next RunCycle; callers that retain it
// must copy.
type CycleResult struct {
	// Decision is the zero-based decision-cycle index.
	Decision uint64
	// Time is the virtual time at which the cycle ran.
	Time uint64
	// Winner is the circulated slot; valid only when Idle is false.
	Winner attr.SlotID
	// Idle reports a cycle in which no slot was backlogged.
	Idle bool
	// Transmissions lists the frames sent this cycle in transmission
	// order: the single winner (WR) or the block transaction (BA).
	Transmissions []Transmission
	// HWCycles is the number of hardware clock cycles the decision cycle
	// consumed under the FSM timeline.
	HWCycles int
}

// Scheduler is a ShareStreams scheduler instance.
type Scheduler struct {
	cfg   Config
	slots []*regblock.Block
	srcs  []regblock.HeadSource
	timed []TimedSource // srcs[i].(TimedSource) cached at Admit/Start; nil if untimed
	nw    *shuffle.Network

	// Per-slot class facts cached off the admitted spec (Rebind keeps the
	// spec, so only Admit writes them): expirable marks the
	// deadline-bearing classes ExpireCheck acts on (EDF, window-
	// constrained), wcClass the window-constrained subset that drops and
	// re-advances on expiry, guarded the static-priority slots whose
	// starvation guard needs a Refill tick while valid. The cycle branches
	// on these instead of re-deriving them per slot per cycle.
	expirable []bool
	wcClass   []bool
	guarded   []bool

	started bool
	vnow    uint64 // virtual time, one unit per decision cycle

	decisions uint64
	hwCycles  uint64
	idleCount uint64

	cpd          int         // hardware clocks per decision cycle, fixed at New
	keyRef       attr.Time16 // current key-normalization reference
	nextRekey    uint64      // vnow at which to refresh keyRef next
	arrHint      uint64      // arrival time of the most recently transmitted head
	dlHint       uint64      // deadline of the most recently transmitted head
	nextRecenter uint64      // vnow at which to re-center the safety windows next

	// rebindEpoch counts Rebind calls. Results produced before a rebind
	// belong to the previous epoch; supervisors stamp re-aggregation
	// decisions with the epoch so in-flight attribution stays unambiguous.
	rebindEpoch uint64

	trace *hwsim.Trace // nil unless Config.TraceDepth > 0

	// obs is the attached metrics bundle (nil when uninstrumented); the
	// cycle* fields stage per-cycle telemetry — loser expiries, the
	// winner's packed rank key as latched for the decision — between the
	// cycle's routing arms and observe.
	obs            *Metrics
	cycleExpiries  uint16
	cycleWinnerKey attr.Key

	// gens[i] is slots[i].Gen() as of its last key latch onto the network
	// bus; genReload forces a relatch (fresh scheduler, dynamic admission).
	gens  []uint64
	txBuf []Transmission // reused CycleResult buffer
	crBuf CycleResult    // RunCycles' reused result (avoids a per-batch escape)
}

// genReload never equals uint64(regblock.Block.Gen()), so a gens entry set
// to it guarantees the slot is relatched on the next cycle.
const genReload = ^uint64(0)

// keyRefreshPeriod is how often (in decision cycles) the scheduler re-centers
// the key-normalization reference on the virtual clock. Any period is
// correct — stale references only increase decision.FastOrder's cascade
// fallbacks, never change an ordering — so the refresh is sized to be
// amortized noise: one N-slot repack every 8192 cycles.
const keyRefreshPeriod = 8192

// centerRefreshPeriod is how often (in decision cycles) the scheduler
// re-centers the network's serial-safety windows on the service frontier.
// Centers are a pure speed hint (see shuffle.SetFieldCenters); the period
// just has to beat the fastest sustained field drift across a half window
// (0x4000 ticks), which chained deadlines at large admitted periods can
// approach. The O(N) flag rescan amortizes to ~2 slot visits per cycle.
const centerRefreshPeriod = 512

// nullSource backs un-admitted slots: always empty.
type nullSource struct{}

func (nullSource) NextHead() (regblock.Head, bool) { return regblock.Head{}, false }

// New builds a scheduler. Slots start un-admitted (permanently idle until
// Admit).
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	schedule := shuffle.PaperLogN
	switch {
	case cfg.Routing == WinnerOnly:
		schedule = shuffle.Tournament
	case cfg.ExactSort:
		schedule = shuffle.Bitonic
	}
	nw, err := shuffle.New(cfg.Slots, cfg.Mode, schedule)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:       cfg,
		slots:     make([]*regblock.Block, cfg.Slots),
		srcs:      make([]regblock.HeadSource, cfg.Slots),
		timed:     make([]TimedSource, cfg.Slots),
		nw:        nw,
		expirable: make([]bool, cfg.Slots),
		wcClass:   make([]bool, cfg.Slots),
		guarded:   make([]bool, cfg.Slots),
		gens:      make([]uint64, cfg.Slots),
		txBuf:     make([]Transmission, 0, cfg.Slots),
	}
	for i := range s.gens {
		s.gens[i] = genReload
	}
	s.cpd = s.computeCyclesPerDecision()
	if cfg.TraceDepth > 0 {
		s.trace = hwsim.NewTrace(cfg.TraceDepth)
	}
	for i := range s.slots {
		spec := attr.Spec{Class: attr.EDF, Period: 1}
		b, err := regblock.New(attr.SlotID(i), spec, nullSource{})
		if err != nil {
			return nil, err
		}
		s.slots[i] = b
		s.srcs[i] = nullSource{}
		s.cacheSpec(i, spec)
	}
	return s, nil
}

// cacheSpec refreshes slot i's class-fact caches from its admitted spec.
func (s *Scheduler) cacheSpec(i int, spec attr.Spec) {
	s.expirable[i] = spec.Class == attr.EDF || spec.Class == attr.WindowConstrained
	s.wcClass[i] = spec.Class == attr.WindowConstrained
	s.guarded[i] = spec.Class == attr.StaticPriority && spec.Guard != 0
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Admit binds a stream (or streamlet aggregate) to stream-slot i. Before
// Start the slot is loaded with the others when Start runs. After Start it is
// the paper's operational model ("as streams arrive, their service
// attributes are transferred to the FPGA PCI card"): the control unit
// re-enters the LOAD state for that slot, which costs one hardware clock,
// and any stream previously bound to the slot departs, its counters
// discarded with it.
func (s *Scheduler) Admit(i int, spec attr.Spec, src regblock.HeadSource) error {
	if err := s.checkSpec(i, spec); err != nil {
		return err
	}
	b, err := regblock.New(attr.SlotID(i), spec, src)
	if err != nil {
		return err
	}
	s.slots[i] = b
	s.srcs[i] = src
	s.timed[i], _ = src.(TimedSource)
	s.cacheSpec(i, spec)
	if !s.started {
		return nil
	}
	s.gens[i] = genReload // new block: its generation counter starts over
	b.SetKeyRef(s.keyRef)
	if ts := s.timed[i]; ts != nil {
		ts.Advance(s.vnow)
	}
	b.Load(s.vnow)
	s.hwCycles++
	if s.trace != nil {
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: fmt.Sprintf("LOAD[slot %d]", i)})
	}
	return nil
}

// checkSpec rejects an out-of-range slot and a spec the decision mode
// cannot run: window-constrained streams need the DWCS datapath.
func (s *Scheduler) checkSpec(i int, spec attr.Spec) error {
	if i < 0 || i >= s.cfg.Slots {
		return fmt.Errorf("core: slot %d out of range [0, %d)", i, s.cfg.Slots)
	}
	if s.cfg.Mode == decision.TagOnly && spec.Class == attr.WindowConstrained {
		return fmt.Errorf("core: window-constrained streams need the DWCS decision datapath, not tag-only")
	}
	return nil
}

// Start runs the LOAD state: every slot ingests its first head. It costs N
// hardware cycles (one slot per clock on the memory interface).
func (s *Scheduler) Start() error {
	if s.started {
		return fmt.Errorf("core: already started")
	}
	s.started = true
	for _, ts := range s.timed {
		if ts != nil {
			ts.Advance(s.vnow)
		}
	}
	for _, b := range s.slots {
		b.Load(s.vnow)
	}
	s.hwCycles += uint64(s.cfg.Slots)
	return nil
}

// computeCyclesPerDecision derives the hardware clock cost of one decision
// cycle under the FSM timeline documented in the package comment. Every
// input is fixed by Config, so New computes it once and the hot path reads
// the cached value.
func (s *Scheduler) computeCyclesPerDecision() int {
	passes := s.nw.PassesPerCycle()
	circulate := 1
	update := 1
	if s.cfg.Mode == decision.TagOnly || s.cfg.ComputeAhead {
		// Fair-queuing/priority-class mappings bypass PRIORITY_UPDATE
		// ("the packet priority does not change after each packet is
		// queued"); compute-ahead folds it into the circulate clock.
		update = 0
	}
	ingest := s.cfg.Slots
	return passes + circulate + update + ingest
}

// CyclesPerDecision exposes the FSM cost model (used by package fpga to
// derive decision rates from clock frequencies).
func (s *Scheduler) CyclesPerDecision() int { return s.cpd }

// PipelinedInitiationInterval returns the clocks between successive
// decisions when the FSM stages overlap — Table 1's concurrency row made
// concrete. Fair-queuing and priority-class mappings (TagOnly) have no
// winner-to-priority feedback, so SCHEDULE of decision n+1 can overlap
// INGEST of decision n and the initiation interval collapses to the
// longest stage. Window-constrained disciplines serialize successive
// decisions (the circulated winner must update priorities before the next
// SCHEDULE), so the interval equals the full serialized cycle — exactly
// why a pipelined Decision-block tree "wastes area" (§3).
func (s *Scheduler) PipelinedInitiationInterval() int {
	full := s.cpd
	if s.cfg.Mode != decision.TagOnly {
		return full // successive decisions are serialized
	}
	passes := s.nw.PassesPerCycle()
	ingest := s.cfg.Slots
	ii := passes
	if ingest > ii {
		ii = ingest
	}
	// The circulate clock pipelines away; the bound is the slowest stage.
	return ii
}

// RunCycle executes one decision cycle. It panics if Start was not called
// (a harness wiring error). Bulk drivers use RunCycles, which reuses one
// CycleResult across the batch instead of returning a fresh value per cycle.
// Timed sources are synced when it returns, as at the end of a RunCycles
// batch.
func (s *Scheduler) RunCycle() CycleResult {
	if !s.started {
		panic("core: RunCycle before Start")
	}
	var cr CycleResult
	s.cycle(&cr)
	s.syncSources()
	return cr
}

// RunCycles executes up to n decision cycles, invoking visit (when non-nil)
// after each with a pointer to a CycleResult reused across the whole batch —
// the result, like its Transmissions slice, is valid only until the next
// cycle runs; callers that retain either must copy. visit returning false
// stops the batch early. RunCycles reports the number of cycles executed.
//
// This is the bulk decision driver: the per-cycle work is exactly RunCycle's,
// but the result value is not copied out per cycle and the endsystem/shard
// pipelines and RunFor all feed through here.
//
// Timed sources are current as of their last pull inside a batch, and
// synced when the call returns: a visitor reading a source's own counters
// (traffic.Periodic.Generated, say) sees them as of that slot's last refill
// or service, and every caller after RunCycles returns sees them advanced to
// the last executed cycle.
func (s *Scheduler) RunCycles(n int, visit func(*CycleResult) bool) int {
	if !s.started {
		panic("core: RunCycles before Start")
	}
	if n <= 0 {
		return 0 // no cycle ran: sources stay where Admit/Rebind left them
	}
	// The batch result lives in the scheduler, not the stack: &cr handed to
	// the visit closure would force a heap allocation per RunCycles call,
	// which the zero-alloc guarantee (and its AllocsPerRun guards) forbid.
	cr := &s.crBuf
	for i := 0; i < n; i++ {
		s.cycle(cr)
		if visit != nil && !visit(cr) {
			s.syncSources()
			return i + 1
		}
	}
	s.syncSources()
	return n
}

// recenter re-centers the network's serial-safety windows on the most
// recently transmitted head's deadline and arrival (in current packed-field
// space) and schedules the next refresh.
func (s *Scheduler) recenter(t uint64) {
	s.nw.SetFieldCenters(
		uint16(attr.WrapTime(s.dlHint)-s.keyRef),
		uint16(attr.WrapTime(s.arrHint)-s.keyRef),
	)
	s.nextRecenter = t + centerRefreshPeriod
}

// syncSources advances every timed source to the last executed cycle's
// virtual time. The cycle advances a source only when it pulls from it
// (lazy advance); this sync at every public-call boundary restores the
// invariant that all sources are current as of the latest cycle, so
// source-side observers (traffic.Periodic.Generated and friends) read the
// same values an every-cycle advance would have left.
func (s *Scheduler) syncSources() {
	if s.vnow == 0 {
		return
	}
	t := s.vnow - 1
	for _, ts := range s.timed {
		if ts != nil {
			ts.Advance(t)
		}
	}
}

// transmission records slot b's head going out at rank r. It must run
// before b's Service, which advances the head: the fields are exactly those
// of the attribute word the slot latched for this cycle's decision.
func transmission(b *regblock.Block, r int, late bool) Transmission {
	w := b.Out()
	return Transmission{
		Slot: w.Slot, Rank: r, Late: late, Deadline: w.Deadline,
		Arrival: w.Arrival, Arrival64: b.Arrival64(),
	}
}

// cycle executes one decision cycle into cr (overwriting it entirely) on the
// key plane: slots latch only their packed rank keys, RunLoadedLight routes
// keys and slot IDs, and members are read positionally via BlockSlotAt —
// the ordered attribute-word block is never materialized. Each Transmission
// is read off the member's Register Base block before its Service, so it
// carries exactly the values its latched word would have.
//
// Source advances are lazy: a timed source is advanced exactly when the
// cycle is about to pull a head from it — refill of an empty slot, service
// of a block member or winner, expiry drop of a window-constrained loser —
// and the public drivers re-sync all sources when they return
// (syncSources). Every TimedSource in the tree advances latest-wins (an
// Advance to t' ≥ t leaves identical state whether or not Advance(t) ran in
// between; package tests pin this), so skipped intermediate advances are
// unobservable through the head stream. Per-slot class facts come from the
// cacheSpec caches; a valid slot is refilled only when its starvation guard
// needs the tick, exactly the cases Refill acts on.
func (s *Scheduler) cycle(cr *CycleResult) {
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

	// INGEST half 1 fused with the SCHEDULE latch: refill idle slots (the
	// Streaming unit keeping card queues full) and drive each changed slot's
	// rank key onto the network's input registers. A slot whose mutation
	// generation is unchanged since its last latch is already on the bus.
	for i, b := range s.slots {
		if !b.Valid() {
			if ts := s.timed[i]; ts != nil {
				ts.Advance(t)
			}
			b.Refill(t)
		} else if s.guarded[i] {
			b.Refill(t)
		}
		if g := uint64(b.Gen()); g != s.gens[i] {
			s.gens[i] = g
			s.nw.SetInputKey(i, b.Key())
		}
	}
	lt := s.nw.RunLoadedLight()

	*cr = CycleResult{
		Decision: s.decisions,
		Time:     t,
		HWCycles: s.cpd,
		Idle:     lt.Idle,
	}
	s.txBuf = s.txBuf[:0]
	s.cycleExpiries = 0
	s.cycleWinnerKey = 0

	switch {
	case lt.Idle:
		s.idleCount++
	case s.cfg.Routing == WinnerOnly:
		// Transmit the single winner.
		w := lt.WinnerSlot
		wb := s.slots[w]
		cr.Winner = w
		s.cycleWinnerKey = wb.Key()
		if ts := s.timed[w]; ts != nil {
			ts.Advance(t)
		}
		s.arrHint, s.dlHint = wb.Arrival64(), wb.Deadline64()
		late := wb.Deadline64() < t
		s.txBuf = append(s.txBuf, transmission(wb, 0, late))
		wb.Service(late, true)
		// PRIORITY_UPDATE, loser side: a head that can no longer be
		// scheduled by its deadline (the next opportunity is t+1) charges
		// the missed-deadline counter — per decision cycle, the paper's
		// Table 3 accounting — and, for window-constrained streams, is
		// dropped (ExpireCheck).
		exp := t + 1
		for i, b := range s.slots {
			if !s.expirable[i] || i == int(w) || !b.Valid() || b.Deadline64() >= exp {
				continue
			}
			s.cycleExpiries++
			if s.wcClass[i] {
				if ts := s.timed[i]; ts != nil {
					ts.Advance(t)
				}
				b.ExpireCheck(exp)
			} else {
				// ExpireCheck's EDF arm: charge the miss, keep the head.
				b.Counters.Missed++
			}
		}
	default:
		// Transmit the whole block as one transaction, head-first
		// (max-first) or tail-first (min-first), circulating the
		// corresponding end for PRIORITY_UPDATE. Invalid slots sink to the
		// block tail, so the valid prefix is the transaction.
		valid := lt.Valid
		circulated := s.nw.BlockSlotAt(0)
		if s.cfg.Circulate == MinFirst {
			circulated = s.nw.BlockSlotAt(valid - 1)
		}
		cr.Winner = circulated
		s.cycleWinnerKey = s.slots[circulated].Key()
		for r := 0; r < valid; r++ {
			pos := r
			if s.cfg.Circulate == MinFirst {
				pos = valid - 1 - r // tail-first transaction
			}
			slot := s.nw.BlockSlotAt(pos)
			mb := s.slots[slot]
			if ts := s.timed[slot]; ts != nil {
				ts.Advance(t)
			}
			if r == 0 {
				s.arrHint, s.dlHint = mb.Arrival64(), mb.Deadline64()
			}
			late := mb.Deadline64() < t+uint64(r)
			s.txBuf = append(s.txBuf, transmission(mb, r, late))
			mb.Service(late, slot == circulated)
		}
	}

	s.decisions++
	s.hwCycles += uint64(s.cpd)
	s.vnow++
	cr.Transmissions = s.txBuf
	if s.trace != nil {
		s.emitTrace(cr) //sslint:allow allocproof — tracing is a debug facility; trace is nil on measured runs
	}
	if s.obs != nil {
		s.observe(cr)
	}
}

// emitTrace records the cycle's control-unit events.
func (s *Scheduler) emitTrace(cr *CycleResult) {
	if cr.Idle {
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: "IDLE"})
		return
	}
	s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: "SCHEDULE"})
	s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.winner", Value: fmt.Sprint(cr.Winner)})
	for _, tx := range cr.Transmissions {
		val := fmt.Sprintf("slot=%d rank=%d late=%v", tx.Slot, tx.Rank, tx.Late)
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "tx", Value: val})
	}
	if s.cfg.Mode != decision.TagOnly {
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: "PRIORITY_UPDATE"})
	}
}

// Trace returns the control-unit trace buffer (nil unless Config.TraceDepth
// was set).
func (s *Scheduler) Trace() *hwsim.Trace { return s.trace }

// Rebind swaps slot i's head source while the scheduler runs, keeping the
// slot's stream identity: spec, window registers, and performance counters
// survive (unlike Admit after Start, which replaces the Register Base block
// and discards its counters). The slot's in-flight head, if any, is flushed —
// the caller owns conservation for it — and the slot reloads from the new
// source, costing one LOAD clock. Each successful rebind bumps the rebind
// epoch, the attribution fence for in-flight results.
//
// This is the re-aggregation hook (§4.2): a surviving slot's source becomes
// a streamlet aggregator spanning its own queue plus a dead shard's
// re-homed flows, while the slot itself keeps its QoS state. It reports
// whether an in-flight head was flushed, so the caller can compensate.
func (s *Scheduler) Rebind(i int, src regblock.HeadSource) (bool, error) {
	if !s.started {
		return false, fmt.Errorf("core: Rebind before Start (use Admit)")
	}
	if i < 0 || i >= s.cfg.Slots {
		return false, fmt.Errorf("core: slot %d out of range [0, %d)", i, s.cfg.Slots)
	}
	if src == nil {
		return false, fmt.Errorf("core: Rebind slot %d to nil source", i)
	}
	s.srcs[i] = src
	s.timed[i], _ = src.(TimedSource)
	if ts := s.timed[i]; ts != nil {
		ts.Advance(s.vnow)
	}
	flushed, err := s.slots[i].Rebind(src, s.vnow)
	if err != nil {
		return false, err
	}
	s.gens[i] = genReload
	s.rebindEpoch++
	s.hwCycles++
	if s.trace != nil {
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: fmt.Sprintf("REBIND[slot %d epoch %d]", i, s.rebindEpoch)})
	}
	return flushed, nil
}

// RebindEpoch returns how many source rebinds the scheduler has performed.
// Zero means every result ever produced belongs to the original binding.
func (s *Scheduler) RebindEpoch() uint64 { return s.rebindEpoch }

// Retune swaps slot i's service attributes while the scheduler runs, keeping
// the slot's head source, in-flight head, and performance counters — the
// counter-preserving spec change live control planes apply at epoch fences
// (weights, periods, priorities, window constraints). The new spec must keep
// the stream's attribute class (regblock enforces it; changing discipline
// mid-stream is an evict + re-admit). The slot's window registers reset to
// the new constraint; its current head keeps the deadline it was admitted
// under, successors synthesize from the new spec. Costs one hardware clock
// (the descriptor rewrite on the memory interface).
func (s *Scheduler) Retune(i int, spec attr.Spec) error {
	if !s.started {
		return fmt.Errorf("core: Retune before Start (use Admit)")
	}
	if err := s.checkSpec(i, spec); err != nil {
		return err
	}
	if err := s.slots[i].Retune(spec); err != nil {
		return err
	}
	s.cacheSpec(i, spec)
	s.gens[i] = genReload
	s.hwCycles++
	if s.trace != nil {
		s.trace.Add(hwsim.Event{Cycle: s.hwCycles, Signal: "ctl.state", Value: fmt.Sprintf("RETUNE[slot %d]", i)})
	}
	return nil
}

// RunFor executes n decision cycles, discarding per-cycle results (counters
// keep accumulating). It is the bulk driver for the Table 3 and throughput
// experiments.
func (s *Scheduler) RunFor(n int) {
	s.RunCycles(n, nil)
}

// Now returns the current virtual time (decision-cycle units).
func (s *Scheduler) Now() uint64 { return s.vnow }

// Decisions returns the number of completed decision cycles.
func (s *Scheduler) Decisions() uint64 { return s.decisions }

// HWCycles returns the cumulative hardware clock cycles consumed (LOAD plus
// every decision cycle).
func (s *Scheduler) HWCycles() uint64 { return s.hwCycles }

// IdleCycles returns the number of decision cycles with no backlogged slot.
func (s *Scheduler) IdleCycles() uint64 { return s.idleCount }

// SlotCounters returns slot i's hardware performance counters. An
// out-of-range index (validated like Admit's) returns the zero value — the
// hardware returns nothing for a register address that doesn't exist.
func (s *Scheduler) SlotCounters(i int) regblock.Counters {
	if i < 0 || i >= len(s.slots) {
		return regblock.Counters{}
	}
	return s.slots[i].Counters
}

// SlotAttributes returns slot i's current attribute word (diagnostics), or
// the zero word when i is out of range.
func (s *Scheduler) SlotAttributes(i int) attr.Attributes {
	if i < 0 || i >= len(s.slots) {
		return attr.Attributes{}
	}
	return s.slots[i].Out()
}

// SlotSpec returns the stream specification admitted to slot i, or the zero
// spec when i is out of range.
func (s *Scheduler) SlotSpec(i int) attr.Spec {
	if i < 0 || i >= len(s.slots) {
		return attr.Spec{}
	}
	return s.slots[i].Spec()
}

// Network exposes the shuffle-exchange network (comparison counters,
// schedule introspection).
func (s *Scheduler) Network() *shuffle.Network { return s.nw }

// Totals aggregates the per-slot counters.
func (s *Scheduler) Totals() regblock.Counters {
	var total regblock.Counters
	for _, b := range s.slots {
		c := b.Counters
		total.Wins += c.Wins
		total.Services += c.Services
		total.Met += c.Met
		total.Missed += c.Missed
		total.Drops += c.Drops
		total.Violations += c.Violations
	}
	return total
}
