package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qm"
	"repro/internal/stats"
	"repro/internal/streamlet"
)

// This file is the Figure 3 pipeline, written once (see the package comment):
// a pipeline is one shard's run state, each phase is one method — offer,
// visitCycle, deliver, publish, schedule — and the two drivers at the bottom
// only decide which goroutine runs which phase.

// schedulerBatchCycles is how many decision cycles a pipeline hands its
// scheduler per core.RunCycles call; the halt flag is still observed inside
// the visit callback (on ring backpressure) and between batches.
const schedulerBatchCycles = 256

// idleLimit bounds consecutive scheduler batches without a scheduled frame
// before a pipeline declares itself wedged — a safety valve against a
// misaccounted target, not a modeled timeout.
const idleLimit = 1 << 14

// crashInfo describes why a shard's pipeline stopped abnormally.
type crashInfo struct {
	injected bool   // true for a scheduled ShardCrash, false for a pipeline fault (PCI giveup)
	at       uint64 // the crash point's scheduled-frame index (injected crashes)
	err      error  // the underlying fault (pipeline faults)
}

// pipeline is one shard's pipeline state. It outlives a single driver call:
// the supervisor runs it again after a crash, and every count below resumes
// where the previous round stopped.
type pipeline struct {
	s   *shardState
	cfg *Config
	fps uint64 // frames per own stream

	// Optional machinery, nil when the run does not use it — the per-frame
	// paths test for nil before touching any of it.
	plan  *fault.ShardPlan        // the shard's fault schedule (supervised runs)
	armed []uint64                // per own slot: frames whose planned saturation burst has been applied
	aggs  []*streamlet.Aggregator // re-aggregated slots' aggregators (nil entry: own queue), charged per transmission
	meter *stats.BandwidthMeter   // delivered MB/s over modeled time (plain runs)

	produced   []uint64 // per own slot: frames disposed of to the Queue Manager (queued or shed)
	perSlot    []uint64 // per scheduler slot: frames delivered (own + adopted)
	target     uint64   // frames owed: own streams × fps, plus work adopted from dead siblings
	meterBatch func(int) error

	// inline is set by the run-to-completion driver: the scheduling thread
	// owns every phase, so it tops up and drains around each batch and
	// consumes in place on a full tx ring instead of yielding to the other
	// goroutines.
	inline bool
	// halt stops every phase. The threaded driver raises it when its
	// scheduler loop exits; Run raises it on every pipeline when one fails.
	halt atomic.Bool

	// Everything above is read-mostly while a driver runs. The counters
	// below are written per frame, the first group by the scheduler phase
	// and the second by the transmission engine; under the threaded driver
	// those are different goroutines, so each group gets its own cache line
	// (sharing one measured ≈12 % slower on two cores).
	_          [64]byte
	scheduled  uint64
	sinceBatch uint64     // frames scheduled since the last metered PCI batch
	crash      *crashInfo // a recoverable stop: the supervisor restarts, Run reports it
	err        error      // a non-recoverable failure raised inside visit
	_          [64]byte
	delivered  uint64 //sslint:ledger
	published  uint64 // deliveries already flushed to the obs counter and the bandwidth meter
	_          [64]byte
}

// owed is the work not yet scheduled: the target minus what has been handed
// to the tx ring and what the overload policy definitively dropped. Between
// driver calls the tx ring is empty, so it is also the work not yet
// delivered.
func (p *pipeline) owed() uint64 {
	done := p.scheduled + p.s.manager.LiveDropped()
	if done >= p.target {
		return 0
	}
	return p.target - done
}

// offer makes one attempt to hand slot's next frame to the Queue Manager
// and reports whether the frame was disposed of (queued, or shed with
// accounting); false means the ring is momentarily full and the same frame
// is due again. Saturation bursts key off the deterministic frame index
// k·n+slot, not the timing-dependent attempt count.
func (p *pipeline) offer(slot int) bool {
	k := p.produced[slot]
	if p.plan != nil && p.armed[slot] == k {
		p.armed[slot]++ // once per frame, however many attempts it takes
		if burst := p.plan.BurstAt(k*uint64(len(p.produced)) + uint64(slot)); burst > 0 {
			p.s.manager.Saturate(burst)
		}
	}
	if p.s.manager.Offer(slot, qm.Frame{Size: p.cfg.FrameBytes, Arrival: k}) == qm.Busy {
		return false
	}
	p.produced[slot]++
	return true
}

// deliver is the transmission engine's step: take one scheduled ID off the
// tx ring and count it. The only txRing.Pop in the package.
func (p *pipeline) deliver() bool {
	tx, ok := p.s.txRing.Pop()
	if !ok {
		return false
	}
	p.perSlot[tx.Slot]++
	p.delivered++
	return true
}

// publish makes the deliveries since the last publish visible: one Add on
// the shard's obs counter and one record on the bandwidth meter, against
// the shard's modeled clock (one host cost per frame).
func (p *pipeline) publish() {
	n := p.delivered - p.published
	if n == 0 {
		return
	}
	p.published = p.delivered
	if p.s.delivered != nil {
		p.s.delivered.Add(n)
	}
	if p.meter != nil {
		// Record cannot fail: stream 0 exists and the modeled clock
		// (delivered count × host cost) is monotone.
		_ = p.meter.Record(0, int(n)*p.cfg.FrameBytes, float64(p.delivered)*p.cfg.HostNs)
	}
}

// visitCycle consumes one decision cycle: charge a re-aggregated slot's
// aggregator, push the scheduled ID to the tx ring, count it toward the next
// metered PCI batch, and check the planned crash. Every TransferBatch
// frames it drives the shard's bus model — a push of arrival-time words in,
// a read of stream-ID words back — so transfer time is metered from bank
// switches and word counts, not assumed.
func (p *pipeline) visitCycle(cr *core.CycleResult) bool {
	if cr.Idle {
		if !p.inline {
			runtime.Gosched() // producer momentarily behind
		}
		return true
	}
	cfg, s := p.cfg, p.s
	for _, tx := range cr.Transmissions {
		if p.aggs != nil {
			if agg := p.aggs[tx.Slot]; agg != nil {
				if _, _, err := agg.OnTransmit(cfg.FrameBytes); err != nil {
					p.err = fmt.Errorf("re-aggregated slot: %w", err)
					return false
				}
			}
		}
		for !s.txRing.Push(tx) {
			if p.inline {
				p.deliver() // tx ring full: this thread owns both ends, consume in place
				continue
			}
			if p.halt.Load() {
				return false
			}
			runtime.Gosched() // tx ring full: engine backpressure
		}
		p.scheduled++
		p.sinceBatch++
		if p.sinceBatch == uint64(cfg.TransferBatch) {
			p.sinceBatch = 0
			if err := p.meterBatch(cfg.TransferBatch); err != nil {
				p.crash = &crashInfo{err: err}
				return false
			}
		}
		if p.plan != nil && p.plan.CrashAt(p.scheduled) {
			at, _ := p.plan.ConsumeCrash()
			p.crash = &crashInfo{injected: true, at: at}
			return false
		}
	}
	return p.owed() > 0
}

// schedule is the scheduler loop: decision batches until everything owed is
// scheduled, a crash stops the pipeline (p.crash), the pipeline is halted, or
// a non-recoverable error is returned. Idle cycles occur when the producer is momentarily
// behind and cost nothing in the model (the hardware spins while the host
// catches up). Inline, each batch is one epoch — top up every stream ring,
// schedule, drain the tx ring, publish the epoch's deliveries in one flush.
func (p *pipeline) schedule() error {
	visit := p.visitCycle // bound once: a method value allocates
	for idle := 0; p.crash == nil && p.owed() > 0; {
		if p.halt.Load() {
			return nil // a sibling failed; it reports why
		}
		if p.inline {
			for slot := range p.produced {
				for p.produced[slot] < p.fps && p.offer(slot) {
				}
			}
		}
		before := p.scheduled
		p.s.sched.RunCycles(schedulerBatchCycles, visit)
		if p.err != nil {
			return p.err
		}
		if p.inline {
			for p.deliver() {
			}
			p.publish()
		}
		if p.scheduled != before {
			idle = 0
		} else if idle++; idle > idleLimit {
			return fmt.Errorf("pipeline wedged: %d/%d scheduled after %d idle batches",
				p.scheduled, p.target, idle)
		}
	}
	return nil
}

// flushTail meters the trailing partial PCI batch, once, when the run is
// over.
func (p *pipeline) flushTail() error {
	n := int(p.sinceBatch)
	if n == 0 {
		return nil
	}
	p.sinceBatch = 0
	return p.meterBatch(n)
}

// virtualNs is the shard's modeled time so far: host cost for every
// delivered frame plus the transfers (and injected fault time) metered on
// its own bus.
func (p *pipeline) virtualNs() float64 {
	return float64(p.delivered)*p.cfg.HostNs + p.s.bus.BusyNs
}

// runThreaded is the three-goroutine driver: a producer filling the Queue
// Manager's per-stream rings (one per shard, so they stay SPSC), the
// scheduler loop on the calling goroutine, and a transmission engine
// draining the tx ring and publishing per frame — all over
// synchronization-free SPSC rings, no locks. When the scheduler loop exits,
// for whatever reason, it halts the other two; the engine takes the tx-ring
// residue on its way out, so delivered == scheduled when runThreaded
// returns. The producer resumes from p.produced, so a restarted pipeline
// re-offers nothing.
func (p *pipeline) runThreaded() error {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := uint64(0); k < p.fps; k++ {
			for slot := range p.produced {
				for p.produced[slot] <= k { // false at once for a frame an earlier round disposed of
					if p.halt.Load() {
						return
					}
					if !p.offer(slot) {
						runtime.Gosched() // ring full: wait for the scheduler
					}
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			// Read halt before the pop: the scheduler stops pushing before
			// it halts, so a miss after that is an empty ring for good.
			halted := p.halt.Load()
			if p.deliver() {
				p.publish()
				continue
			}
			if halted {
				return
			}
			runtime.Gosched()
		}
	}()
	err := p.schedule()
	p.halt.Store(true)
	wg.Wait()
	return err
}

// runToCompletion is the one-thread driver: the calling goroutine pins its
// OS thread and runs every phase itself in batched epochs (see schedule),
// publishing once per epoch instead of once per frame. Ring contracts stay
// SPSC — one producer, one consumer, in alternating phases on one thread —
// and modeled time, per-slot accounting and PCI metering are the threaded
// driver's; what changes is that the simulation stops paying cross-goroutine
// handoffs and per-frame atomics.
func (p *pipeline) runToCompletion() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p.inline = true
	return p.schedule()
}
