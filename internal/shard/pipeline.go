package shard

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qm"
	"repro/internal/stats"
	"repro/internal/streamlet"
)

// This file is the Figure 3 pipeline, written once (see the package comment):
// a pipeline is one shard's run state, each phase is one method — offer,
// visitCycle, deliver, publish — and runToCompletion, the one driver, runs
// them in batched epochs on one pinned thread.

// schedulerBatchCycles is how many decision cycles a pipeline hands its
// scheduler per core.RunCycles call — one epoch.
const schedulerBatchCycles = 256

// idleLimit bounds consecutive epochs without a scheduled frame before a
// pipeline declares itself wedged — a safety valve against a misaccounted
// target, not a modeled timeout.
const idleLimit = 1 << 14

// crashInfo describes why a shard's pipeline stopped abnormally.
type crashInfo struct {
	injected bool   // true for a scheduled ShardCrash, false for a pipeline fault (PCI giveup)
	at       uint64 // the crash point's scheduled-frame index (injected crashes)
	err      error  // the underlying fault (pipeline faults)
}

// pipeline is one shard's run state. It outlives a single driver call: the
// supervisor runs it again after a crash, and every count below resumes
// where the previous round stopped.
type pipeline struct {
	s   *shardState
	cfg *Config
	fps uint64 // frames per own stream

	// Optional machinery, nil when the run does not use it — the per-frame
	// paths test for nil before touching any of it.
	plan  *fault.ShardPlan        // the shard's fault schedule (nil: no faults)
	armed []uint64                // per own slot: frames whose planned saturation burst has been applied
	aggs  []*streamlet.Aggregator // re-aggregated slots' aggregators (nil entry: own queue), charged per transmission
	meter *stats.BandwidthMeter   // delivered MB/s over modeled time (nil on an empty shard)

	produced   []uint64 // per own slot: frames disposed of to the Queue Manager (queued or shed)
	perSlot    []uint64 // per scheduler slot: frames delivered (own + adopted)
	target     uint64   // frames owed: own streams × fps, plus work adopted from dead siblings
	meterBatch func(int) error

	// Supervision bookkeeping, touched only by the supervisor between rounds.
	restarts  int
	dead      bool
	backoffNs float64
	orphans   [][]*streamlet.Backlog // adopted backlogs per scheduler slot

	scheduled  uint64
	sinceBatch uint64     // frames scheduled since the last metered PCI batch
	crash      *crashInfo // a recoverable stop: the supervisor restarts the pipeline
	err        error      // a non-recoverable failure raised inside visit
	delivered  uint64     //sslint:ledger
	published  uint64     // deliveries already flushed to the obs counter and the bandwidth meter
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
// aggregator, push the scheduled ID to the tx ring (delivering in place when
// it is full — this thread owns both ends), count it toward the next metered
// PCI batch, and check the planned crash. Every TransferBatch frames it
// drives the shard's bus model — a push of arrival-time words in, a read of
// stream-ID words back — so transfer time is metered from bank switches and
// word counts, not assumed.
func (p *pipeline) visitCycle(cr *core.CycleResult) bool {
	if cr.Idle {
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
			p.deliver()
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

// runToCompletion is the pipeline's driver: the calling goroutine pins its
// OS thread and runs every phase itself in batched epochs — top up every
// stream ring, run a batch of decision cycles, drain the tx ring, publish
// the epoch's deliveries in one flush — until everything owed is scheduled,
// a crash stops the pipeline (p.crash), or a non-recoverable error is
// returned. Ring contracts stay SPSC: one producer, one consumer,
// in alternating phases on one thread. Idle cycles occur when an epoch's
// top-up runs dry and cost nothing in the model (the hardware spins while
// the host catches up). The tx ring is empty on every return but an error,
// so delivered == scheduled between supervision rounds, and offering
// resumes from p.produced, so a restarted pipeline re-offers nothing.
func (p *pipeline) runToCompletion() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	visit := p.visitCycle // bound once: a method value allocates
	for idle := 0; p.crash == nil && p.owed() > 0; {
		for slot := range p.produced {
			for p.produced[slot] < p.fps && p.offer(slot) {
			}
		}
		before := p.scheduled
		p.s.sched.RunCycles(schedulerBatchCycles, visit)
		if p.err != nil {
			return p.err
		}
		for p.deliver() {
		}
		p.publish()
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
// its own bus plus its restart backoffs.
func (p *pipeline) virtualNs() float64 {
	return float64(p.delivered)*p.cfg.HostNs + p.s.bus.BusyNs + p.backoffNs
}

// result reports the shard's finished run.
func (p *pipeline) result() ShardResult {
	s := p.s
	res := ShardResult{
		Shard:      s.index,
		Streams:    len(p.produced),
		Frames:     p.delivered,
		PerSlot:    p.perSlot,
		Decisions:  s.sched.Decisions(),
		IdleCycles: s.sched.IdleCycles(),
		VirtualNs:  p.virtualNs(),
		TransferNs: s.bus.BusyNs,
		Counters:   s.sched.Totals(),
		QM:         s.manager.Totals(),
	}
	if p.meter != nil {
		p.meter.Finish()
		res.Bandwidth = p.meter.Series(0)
	}
	return res
}
