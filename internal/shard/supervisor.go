package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
	"repro/internal/stats"
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

// RunSupervised pushes framesPerStream frames through every admitted stream
// under a fault schedule, supervising the shard pipelines: a crashed
// pipeline (injected crash or PCI transfer giveup) is restarted with capped
// exponential backoff in virtual ns, and after MaxRestarts the shard is
// declared dead — its undelivered flows are salvaged and re-aggregated as
// streamlets onto the surviving shards' stream-slots, round-robin (§4.2:
// per-stream QoS degrades, service continues).
//
// The run proceeds in barrier-phased rounds: every live shard runs its
// pipeline (pipeline.go) concurrently on its own pinned thread until
// completion or crash, then the supervisor (single-threaded, in shard-index
// order) applies recovery and appends to trace — so the same seed yields a
// byte-identical trace. When nothing crashes the first round is also the
// last. Each loaded shard carries a bandwidth meter over modeled time, and
// the wall-clock time of the rounds is reported beside the modeled time.
// schedule may be nil (no faults) and trace may be nil (discard).
// RunSupervised (or Run) may be called once per Router.
func (r *Router) RunSupervised(framesPerStream int, schedule *fault.Schedule, rcfg RecoveryConfig, trace *fault.Trace) (*Result, error) {
	res, _, err := r.runSupervised(framesPerStream, schedule, rcfg, trace)
	return res, err
}

// runSupervised is RunSupervised, also returning the per-shard pipelines
// the run ended with.
func (r *Router) runSupervised(framesPerStream int, schedule *fault.Schedule, rcfg RecoveryConfig, trace *fault.Trace) (*Result, []*pipeline, error) {
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

	// One window size for every shard keeps the per-shard bandwidth
	// series index-aligned, so the aggregator can sum them window by
	// window.
	maxStreams := 0
	for _, s := range r.shards {
		maxStreams = max(maxStreams, int(s.occupied.Load()))
	}
	windowNs := float64(maxStreams*framesPerStream) * r.cfg.HostNs / float64(r.cfg.MeterWindows)

	pipes := make([]*pipeline, len(r.shards))
	for k, s := range r.shards {
		if err := s.sched.Start(); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", k, err)
		}
		s.manager.SetPolicy(rcfg.Policy)
		streams := int(s.occupied.Load())
		p := &pipeline{
			s:          s,
			cfg:        &r.cfg,
			fps:        uint64(framesPerStream),
			plan:       schedule.Shard(k),
			armed:      make([]uint64, streams),
			produced:   make([]uint64, streams),
			perSlot:    make([]uint64, r.cfg.SlotsPerShard),
			orphans:    make([][]*streamlet.Backlog, r.cfg.SlotsPerShard),
			meterBatch: s.bus.BatchMeter(r.cfg.Mode),
			target:     uint64(streams) * uint64(framesPerStream),
		}
		// Only a real injector is installed: a nil *fault.Injector in the
		// interface would defeat the bus's no-fault fast path.
		if inj := p.plan.Bus(); inj != nil {
			s.bus.Injector = inj
		}
		if p.target > 0 { // an empty shard idles out the run and reports no series
			var err error
			if p.meter, err = stats.NewBandwidthMeter(1, windowNs); err != nil {
				return nil, nil, err
			}
		}
		pipes[k] = p
	}

	// Round bound: every round but the last retires at least one crash, and
	// crashes come from the finite schedule (injected crashes plus at most
	// one PCI giveup per bus event).
	maxRounds := 3
	if schedule != nil {
		maxRounds += len(schedule.Events())
	}

	out := &Result{
		Shards:  len(r.shards),
		Streams: len(r.byID),
		Target:  uint64(len(r.byID)) * uint64(framesPerStream),
	}
	rrCursor := 0
	start := time.Now() //sslint:allow walltime — aggregate throughput is reported in real wall-clock terms
	for round := 0; ; round++ {
		var active []*pipeline
		for _, p := range pipes {
			if !p.dead && p.owed() > 0 {
				active = append(active, p)
			}
		}
		if len(active) == 0 {
			out.Rounds = round
			break
		}
		if round >= maxRounds {
			return nil, nil, fmt.Errorf("shard: recovery did not converge in %d rounds", maxRounds)
		}

		// One pipeline segment per live shard, to completion or crash.
		// runToCompletion drains the tx-ring residue a crash strands, so
		// delivered equals scheduled at every barrier (conservation
		// bookkeeping is exact between rounds).
		var wg sync.WaitGroup
		errs := make([]error, len(active))
		for i, p := range active {
			wg.Add(1)
			go func(i int, p *pipeline) {
				defer wg.Done()
				if err := p.runToCompletion(); err != nil {
					errs[i] = fmt.Errorf("shard %d: %w", p.s.index, err)
				}
			}(i, p)
		}
		wg.Wait()
		// Every failure is reported, annotated with its shard index, in
		// shard order (Join drops the nils).
		if err := errors.Join(errs...); err != nil {
			return nil, nil, err
		}

		// Recovery decisions: single-threaded, shard-index order.
		for _, p := range active {
			if p.crash == nil {
				continue
			}
			c := p.crash
			p.crash = nil
			if c.injected {
				trace.Addf("round=%d shard=%d crash injected at=%d", round, p.s.index, c.at)
			} else {
				trace.Addf("round=%d shard=%d crash pipeline: %v", round, p.s.index, c.err)
			}
			if p.restarts < rcfg.MaxRestarts {
				p.restarts++
				out.Restarts++
				backoff := rcfg.BackoffNs
				for i := 1; i < p.restarts; i++ {
					backoff *= 2
				}
				if backoff > rcfg.MaxBackoffNs {
					backoff = rcfg.MaxBackoffNs
				}
				p.backoffNs += backoff
				trace.Addf("round=%d shard=%d restart n=%d backoff=%gns", round, p.s.index, p.restarts, backoff)
				continue
			}
			p.dead = true
			out.DeadShards = append(out.DeadShards, p.s.index)
			trace.Addf("round=%d shard=%d dead after %d restarts", round, p.s.index, p.restarts)
			n, err := r.reaggregate(p, pipes, &rrCursor, round, trace)
			if err != nil {
				return nil, nil, err
			}
			out.ReaggregatedSlots += n
		}
	}
	out.WallNs = float64(time.Since(start)) //sslint:allow walltime — wall-clock scaling: aggregate throughput is reported in real elapsed time by design

	series := make([][]stats.Point, 0, len(pipes))
	for _, p := range pipes {
		// The trailing partial PCI batch is metered once, when the run is
		// over — never between rounds, where it would shift the bus
		// operation indices the fault schedule keys on. A fault abandoning
		// this last transfer is charged to the bus and traced, but crashes
		// nothing: no work is left to restart.
		if err := p.flushTail(); err != nil {
			trace.Addf("shard=%d tail batch abandoned: %v", p.s.index, err)
		}
		sr := p.result()
		out.PerShard = append(out.PerShard, sr)
		out.Frames += sr.Frames
		out.Dropped += p.s.manager.LiveDropped()
		out.RebindEpochs += p.s.sched.RebindEpoch()
		out.Counters = MergeCounters(out.Counters, sr.Counters)
		out.VirtualNs = max(out.VirtualNs, sr.VirtualNs)
		series = append(series, sr.Bandwidth)
	}
	out.Bandwidth = stats.SumSeries(series...)
	if out.VirtualNs > 0 {
		out.PacketsPerS = float64(out.Frames) / out.VirtualNs * 1e9
	}
	if out.WallNs > 0 {
		out.WallPacketsPerS = float64(out.Frames) / out.WallNs * 1e9
	}
	return out, pipes, nil
}

// reaggregate salvages a dead shard's undelivered flows and re-homes them,
// one streamlet backlog per dead stream-slot, round-robin across the
// survivors' occupied stream-slots. Each target slot's head source is
// rebuilt as a streamlet aggregator over its own queue plus every backlog
// it has adopted, and swapped in with a counter-preserving scheduler rebind
// (bumping the target's rebind epoch). It returns how many dead slots were
// re-homed.
func (r *Router) reaggregate(dead *pipeline, pipes []*pipeline, rrCursor *int, round int, trace *fault.Trace) (int, error) {
	// The survivor slot pool, in (shard, slot) index order — the round-robin
	// the paper uses between streamlets, applied here to placement.
	type pair struct {
		u    *pipeline
		slot int
	}
	var pool []pair
	for _, v := range pipes {
		if v.dead {
			continue
		}
		for slot := 0; slot < int(v.s.occupied.Load()); slot++ {
			pool = append(pool, pair{v, slot})
		}
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("shard %d dead with no surviving stream-slots to re-aggregate onto", dead.s.index)
	}

	n := len(dead.produced)
	// built counts salvaged heads; the gap to the shard's remaining work is
	// frames in flight inside the dead scheduler, synthesized below.
	heads := make([][]regblock.Head, n)
	var built uint64
	for slot := 0; slot < n; slot++ {
		dead.s.manager.Drain(slot, func(f qm.Frame) {
			heads[slot] = append(heads[slot], regblock.Head{Arrival: f.Arrival})
		})
		for k := dead.produced[slot]; k < dead.fps; k++ {
			heads[slot] = append(heads[slot], regblock.Head{Arrival: k})
			dead.produced[slot]++
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
	if gap := dead.owed(); gap > built {
		for i := built; i < gap; i++ {
			heads[n-1] = append(heads[n-1], regblock.Head{Arrival: dead.fps})
		}
	}

	for slot := 0; slot < n; slot++ {
		t := pool[*rrCursor%len(pool)]
		*rrCursor++
		bl := streamlet.NewBacklog(heads[slot])
		t.u.orphans[t.slot] = append(t.u.orphans[t.slot], bl)
		t.u.target += uint64(len(heads[slot]))

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
		if t.u.aggs == nil {
			t.u.aggs = make([]*streamlet.Aggregator, r.cfg.SlotsPerShard)
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

// Instrument attaches a core.* metrics bundle to shard k's scheduler (nil
// detaches) — the seam a one-shard driver uses to publish the scheduler's
// own view beside the router's shard.* metrics.
func (r *Router) Instrument(k int, m *core.Metrics) error {
	if k < 0 || k >= len(r.shards) {
		return fmt.Errorf("shard: shard %d out of range [0, %d)", k, len(r.shards))
	}
	return r.shards[k].sched.Instrument(m)
}
