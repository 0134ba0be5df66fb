package shard

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
	"repro/internal/streamlet"
)

// RecoveryConfig parameterizes the shard supervisor. Zero fields take
// defaults.
type RecoveryConfig struct {
	// MaxRestarts is how many times a crashed shard pipeline is restarted
	// before it is declared dead and its flows re-aggregated onto survivors
	// (default 2).
	MaxRestarts int
	// BackoffNs is the first restart's backoff in virtual ns (default
	// 6620, two SRAM bank switches); each further restart doubles it.
	BackoffNs float64
	// MaxBackoffNs caps the doubled backoff (default 8×BackoffNs).
	MaxBackoffNs float64
	// Policy is the Queue-Manager overload policy installed on every
	// shard (default qm.Backpressure, the lossless pre-policy behavior).
	Policy qm.Policy
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 2
	}
	if c.BackoffNs == 0 {
		c.BackoffNs = 6620
	}
	if c.MaxBackoffNs == 0 {
		c.MaxBackoffNs = 8 * c.BackoffNs
	}
	return c
}

// SupervisedResult reports a supervised chaos run.
type SupervisedResult struct {
	Shards  int
	Streams int
	// Target is the frame count the run had to account for
	// (streams × framesPerStream); conservation demands
	// Delivered + Dropped == Target.
	Target    uint64
	Delivered uint64
	// Dropped counts frames definitively lost with accounting under the
	// overload policy (shed or evicted); zero under Backpressure.
	Dropped uint64
	// Restarts is the total pipeline restarts across all shards.
	Restarts int
	// DeadShards lists shards declared dead after exhausting restarts.
	DeadShards []int
	// ReaggregatedSlots counts dead-shard stream-slots whose flows were
	// re-homed as streamlets onto survivors.
	ReaggregatedSlots int
	// RebindEpochs sums the survivors' scheduler rebind epochs.
	RebindEpochs uint64
	// Rounds is how many supervision rounds the run took (1 = no faults).
	Rounds int
	// VirtualNs is the modeled completion time: max over shards of host
	// cost, metered transfers, injected fault time and restart backoffs.
	VirtualNs   float64
	PacketsPerS float64
	Counters    regblock.Counters
	// PerShardDelivered is each shard's delivered-frame total (including
	// frames it adopted from dead siblings).
	PerShardDelivered []uint64
}

// crashInfo describes why a shard's pipeline segment stopped abnormally.
type crashInfo struct {
	injected bool   // true for a scheduled ShardCrash, false for a pipeline fault (PCI giveup)
	at       uint64 // the crash point's scheduled-frame index (injected crashes)
	err      error  // the underlying fault (pipeline faults)
}

// supShard is one shard's supervision state, persisted across rounds.
type supShard struct {
	s    *shardState
	plan *fault.ShardPlan
	fps  uint64 // framesPerStream

	subPerSlot []uint64 // frames disposed of (queued or shed) per own slot
	delivered  []uint64 // frames delivered per scheduler slot (own + adopted)
	deliveredT uint64
	scheduled  uint64
	sinceBatch uint64
	meterBatch func(int) error

	ownTarget     uint64
	adoptedTarget uint64
	restarts      int
	dead          bool
	backoffNs     float64
	orphans       [][]*streamlet.Backlog  // adopted backlogs per scheduler slot
	aggs          []*streamlet.Aggregator // re-aggregated slots' aggregators (nil: own queue), charged per transmission
	crash         *crashInfo
}

// remaining is the work the shard still owes: its share of the target minus
// what it delivered and what the overload policy definitively dropped.
func (u *supShard) remaining() uint64 {
	lost := u.s.manager.LiveDropped()
	have := u.deliveredT + lost
	total := u.ownTarget + u.adoptedTarget
	if have >= total {
		return 0
	}
	return total - have
}

// liveLost returns slot's definitively-lost frames. Since the Queue
// Manager's drop/refused accounting split, Stats(slot).Dropped counts
// losses only under every policy — Backpressure refusals land in Refused —
// so no policy dispatch is needed.
func (u *supShard) liveLost(slot int) uint64 {
	return u.s.manager.Stats(slot).Dropped
}

// RunSupervised pushes framesPerStream frames through every admitted stream
// under a fault schedule, supervising the shard pipelines: a crashed
// pipeline (injected crash or PCI transfer giveup) is restarted with capped
// exponential backoff in virtual ns, and after MaxRestarts the shard is
// declared dead — its undelivered flows are salvaged and re-aggregated as
// streamlets onto the surviving shards' stream-slots, round-robin (§4.2:
// per-stream QoS degrades, service continues).
//
// The run proceeds in barrier-phased rounds: every live shard runs its
// pipeline segment concurrently until completion or crash, then the
// supervisor (single-threaded, in shard-index order) applies recovery and
// appends to trace — so the same seed yields a byte-identical trace.
// schedule may be nil (no faults, one round) and trace may be nil
// (discard). RunSupervised may be called once per Router, in place of Run.
func (r *Router) RunSupervised(framesPerStream int, schedule *fault.Schedule, rcfg RecoveryConfig, trace *fault.Trace) (*SupervisedResult, error) {
	res, _, err := r.runSupervised(framesPerStream, schedule, rcfg, trace)
	return res, err
}

// runSupervised is RunSupervised, also returning the per-shard supervision
// state the run ended with.
func (r *Router) runSupervised(framesPerStream int, schedule *fault.Schedule, rcfg RecoveryConfig, trace *fault.Trace) (*SupervisedResult, []*supShard, error) {
	if r.ran {
		return nil, nil, fmt.Errorf("shard: Run called twice")
	}
	if framesPerStream < 1 {
		return nil, nil, fmt.Errorf("shard: %d frames per stream", framesPerStream)
	}
	if len(r.byID) == 0 {
		return nil, nil, fmt.Errorf("shard: no streams admitted")
	}
	r.ran = true
	rcfg = rcfg.withDefaults()

	sup := make([]*supShard, len(r.shards))
	for k, s := range r.shards {
		s.manager.SetPolicy(rcfg.Policy)
		s.bus.Injector = schedule.Shard(k).Bus()
		if err := s.sched.Start(); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", k, err)
		}
		sup[k] = &supShard{
			s:          s,
			plan:       schedule.Shard(k),
			fps:        uint64(framesPerStream),
			subPerSlot: make([]uint64, len(s.streams)),
			delivered:  make([]uint64, r.cfg.SlotsPerShard),
			meterBatch: s.bus.BatchMeter(r.cfg.Mode),
			ownTarget:  uint64(len(s.streams)) * uint64(framesPerStream),
			orphans:    make([][]*streamlet.Backlog, r.cfg.SlotsPerShard),
			aggs:       make([]*streamlet.Aggregator, r.cfg.SlotsPerShard),
		}
	}

	// Round bound: every round but the last retires at least one crash, and
	// crashes come from the finite schedule (injected crashes plus at most
	// one PCI giveup per bus event).
	maxRounds := 3
	if schedule != nil {
		maxRounds += len(schedule.Events())
	}

	result := &SupervisedResult{
		Shards:  len(r.shards),
		Streams: len(r.byID),
		Target:  uint64(len(r.byID)) * uint64(framesPerStream),
	}
	rrCursor := 0

	for round := 0; ; round++ {
		var active []*supShard
		for _, u := range sup {
			if !u.dead && u.remaining() > 0 {
				active = append(active, u)
			}
		}
		if len(active) == 0 {
			result.Rounds = round
			break
		}
		if round >= maxRounds {
			return nil, nil, fmt.Errorf("shard: recovery did not converge in %d rounds", maxRounds)
		}

		var wg sync.WaitGroup
		errs := make([]error, len(active))
		for i, u := range active {
			wg.Add(1)
			go func(i int, u *supShard) {
				defer wg.Done()
				errs[i] = r.runSegment(u)
			}(i, u)
		}
		wg.Wait()
		for i, u := range active {
			if errs[i] != nil {
				return nil, nil, fmt.Errorf("shard %d: %w", u.s.index, errs[i])
			}
			// Drain the tx-ring residue a crash stranded, so delivered
			// equals scheduled at every barrier (conservation bookkeeping
			// is exact between rounds).
			for {
				tx, ok := u.s.txRing.Pop()
				if !ok {
					break
				}
				u.delivered[tx.Slot]++
				u.deliveredT++
				if u.s.delivered != nil {
					u.s.delivered.Inc()
				}
			}
		}

		// Recovery decisions: single-threaded, shard-index order.
		for _, u := range active {
			if u.crash == nil {
				continue
			}
			c := u.crash
			u.crash = nil
			if c.injected {
				trace.Addf("round=%d shard=%d crash injected at=%d", round, u.s.index, c.at)
			} else {
				trace.Addf("round=%d shard=%d crash pipeline: %v", round, u.s.index, c.err)
			}
			if u.restarts < rcfg.MaxRestarts {
				u.restarts++
				result.Restarts++
				backoff := rcfg.BackoffNs
				for i := 1; i < u.restarts; i++ {
					backoff *= 2
				}
				if backoff > rcfg.MaxBackoffNs {
					backoff = rcfg.MaxBackoffNs
				}
				u.backoffNs += backoff
				trace.Addf("round=%d shard=%d restart n=%d backoff=%gns", round, u.s.index, u.restarts, backoff)
				continue
			}
			u.dead = true
			result.DeadShards = append(result.DeadShards, u.s.index)
			trace.Addf("round=%d shard=%d dead after %d restarts", round, u.s.index, u.restarts)
			n, err := r.reaggregate(u, sup, &rrCursor, rcfg.Policy, round, trace)
			if err != nil {
				return nil, nil, err
			}
			result.ReaggregatedSlots += n
		}
	}

	for _, u := range sup {
		result.Delivered += u.deliveredT
		result.Dropped += u.s.manager.LiveDropped()
		result.RebindEpochs += u.s.sched.RebindEpoch()
		result.Counters = MergeCounters(result.Counters, u.s.sched.Totals())
		result.PerShardDelivered = append(result.PerShardDelivered, u.deliveredT)
		vns := float64(u.deliveredT)*r.cfg.HostNs + u.s.bus.BusyNs + u.backoffNs
		if vns > result.VirtualNs {
			result.VirtualNs = vns
		}
	}
	if result.VirtualNs > 0 {
		result.PacketsPerS = float64(result.Delivered) / result.VirtualNs * 1e9
	}
	return result, sup, nil
}

// segIdleLimit bounds consecutive scheduler batches without a scheduled
// frame before a segment declares the pipeline wedged — a safety valve, not
// a modeled timeout.
const segIdleLimit = 1 << 14

// runSegment runs one shard's pipeline until its remaining work is done or
// a fault crashes it (recorded in u.crash). A non-nil error is a
// non-recoverable harness failure.
func (r *Router) runSegment(u *supShard) error {
	cfg := r.cfg
	s := u.s
	n := len(s.streams)

	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)

	// Producer: resumes from the per-slot disposal counts of earlier
	// rounds. Saturation bursts key off the deterministic frame index
	// k·n+slot, not the timing-dependent attempt count.
	go func() {
		defer wg.Done()
		for k := uint64(0); k < u.fps; k++ {
			for slot := 0; slot < n; slot++ {
				if u.subPerSlot[slot] > k {
					continue
				}
				if burst := u.plan.BurstAt(k*uint64(n) + uint64(slot)); burst > 0 {
					s.manager.Saturate(burst)
				}
				f := qm.Frame{Size: cfg.FrameBytes, Arrival: k}
				for {
					if stopped() {
						return
					}
					switch s.manager.Offer(slot, f) {
					case qm.Queued, qm.Shed:
						u.subPerSlot[slot]++
					case qm.Busy:
						runtime.Gosched()
						continue
					default:
						u.subPerSlot[slot]++
					}
					break
				}
			}
		}
	}()

	// Transmission engine: drains scheduled IDs until the shard's remaining
	// work is gone or the segment stops; the supervisor drains any residue
	// at the barrier.
	go func() {
		defer wg.Done()
		for u.remaining() > 0 {
			tx, ok := s.txRing.Pop()
			if !ok {
				if stopped() {
					return
				}
				runtime.Gosched()
				continue
			}
			u.delivered[tx.Slot]++
			u.deliveredT++
			if s.delivered != nil {
				s.delivered.Inc()
			}
		}
	}()

	// Scheduler loop. Ends the segment by closing stop on every exit path.
	defer func() {
		cancel()
		wg.Wait()
	}()
	idleBatches := 0
	var chargeErr error
	for u.crash == nil {
		// remaining() already subtracts deliveries the engine is making
		// concurrently; gate on scheduled work instead: schedule until the
		// total ever scheduled covers the target minus definite losses.
		lost := s.manager.LiveDropped()
		total := u.ownTarget + u.adoptedTarget
		if u.scheduled+lost >= total {
			break
		}
		progressed := false
		s.sched.RunCycles(schedulerBatchCycles, func(cr *core.CycleResult) bool {
			if cr.Idle {
				runtime.Gosched()
				return true
			}
			for _, tx := range cr.Transmissions {
				if agg := u.aggs[tx.Slot]; agg != nil {
					if _, _, chargeErr = agg.OnTransmit(cfg.FrameBytes); chargeErr != nil {
						return false
					}
				}
				for !s.txRing.Push(tx) {
					runtime.Gosched() // engine backpressure
				}
				u.scheduled++
				progressed = true
				u.sinceBatch++
				if u.sinceBatch == uint64(cfg.TransferBatch) {
					u.sinceBatch = 0
					if err := u.meterBatch(cfg.TransferBatch); err != nil {
						u.crash = &crashInfo{err: err}
						return false
					}
				}
				if u.plan.CrashAt(u.scheduled) {
					at, _ := u.plan.ConsumeCrash()
					u.crash = &crashInfo{injected: true, at: at}
					return false
				}
			}
			lost := s.manager.LiveDropped()
			return u.scheduled+lost < u.ownTarget+u.adoptedTarget
		})
		if chargeErr != nil {
			return fmt.Errorf("re-aggregated slot: %w", chargeErr)
		}
		if progressed {
			idleBatches = 0
		} else {
			idleBatches++
			if idleBatches > segIdleLimit {
				return fmt.Errorf("pipeline wedged: %d/%d scheduled after %d idle batches",
					u.scheduled, u.ownTarget+u.adoptedTarget, idleBatches)
			}
		}
	}
	return nil
}

// reaggregate salvages a dead shard's undelivered flows and re-homes them,
// one streamlet backlog per dead stream-slot, round-robin across the
// survivors' occupied stream-slots. Each target slot's head source is
// rebuilt as a streamlet aggregator over its own queue plus every backlog
// it has adopted, and swapped in with a counter-preserving scheduler rebind
// (bumping the target's rebind epoch). It returns how many dead slots were
// re-homed.
func (r *Router) reaggregate(dead *supShard, sup []*supShard, rrCursor *int, policy qm.Policy, round int, trace *fault.Trace) (int, error) {
	// The survivor slot pool, in (shard, slot) index order — the round-robin
	// the paper uses between streamlets, applied here to placement.
	type pair struct {
		u    *supShard
		slot int
	}
	var pool []pair
	for _, v := range sup {
		if v.dead {
			continue
		}
		for slot := range v.s.streams {
			pool = append(pool, pair{v, slot})
		}
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("shard %d dead with no surviving stream-slots to re-aggregate onto", dead.s.index)
	}

	n := len(dead.s.streams)
	// built counts salvaged heads; the gap to the shard's remaining work is
	// frames in flight inside the dead scheduler, synthesized below.
	heads := make([][]regblock.Head, n)
	var built uint64
	for slot := 0; slot < n; slot++ {
		dead.s.manager.Drain(slot, func(f qm.Frame) {
			heads[slot] = append(heads[slot], regblock.Head{Arrival: f.Arrival})
		})
		for k := dead.subPerSlot[slot]; k < dead.fps; k++ {
			heads[slot] = append(heads[slot], regblock.Head{Arrival: k})
			dead.subPerSlot[slot]++
		}
		for _, bl := range dead.orphans[slot] {
			for {
				h, ok := bl.NextHead()
				if !ok {
					break
				}
				heads[slot] = append(heads[slot], h)
			}
		}
		built += uint64(len(heads[slot]))
	}
	if gap := dead.remaining(); gap > built {
		for i := built; i < gap; i++ {
			heads[n-1] = append(heads[n-1], regblock.Head{Arrival: dead.fps})
		}
	}

	for slot := 0; slot < n; slot++ {
		t := pool[*rrCursor%len(pool)]
		*rrCursor++
		bl := streamlet.NewBacklog(heads[slot])
		t.u.orphans[t.slot] = append(t.u.orphans[t.slot], bl)
		t.u.adoptedTarget += uint64(len(heads[slot]))

		srcs := []regblock.HeadSource{t.u.s.manager.Source(t.slot)}
		for _, b := range t.u.orphans[t.slot] {
			srcs = append(srcs, b)
		}
		set, err := streamlet.NewSet(1, srcs)
		if err != nil {
			return 0, err
		}
		agg, err := streamlet.New(set)
		if err != nil {
			return 0, err
		}
		flushed, err := t.u.s.sched.Rebind(t.slot, agg)
		if err != nil {
			return 0, err
		}
		t.u.aggs[t.slot] = agg
		if flushed {
			// The target slot held an in-flight head of its own; the rebind
			// flushed it, so a replacement rides in on the adopted backlog.
			bl.Push(regblock.Head{Arrival: dead.fps})
		}
		trace.Addf("round=%d shard=%d slot=%d reaggregate -> shard=%d slot=%d epoch=%d",
			round, dead.s.index, slot, t.u.s.index, t.slot, t.u.s.sched.RebindEpoch())
	}
	_ = policy
	return n, nil
}

// Bus returns shard k's PCI bus (nil when k is out of range) — the seam
// chaos drivers use to install injectors and read fault counters.
func (r *Router) Bus(k int) *pci.Bus {
	if k < 0 || k >= len(r.shards) {
		return nil
	}
	return r.shards[k].bus
}

// Manager returns shard k's Queue Manager (nil when k is out of range).
func (r *Router) Manager(k int) *qm.Manager {
	if k < 0 || k >= len(r.shards) {
		return nil
	}
	return r.shards[k].manager
}
