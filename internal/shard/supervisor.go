package shard

import (
	"errors"
	"fmt"
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

// supShard is one shard's supervision state: its pipeline, which persists
// across rounds, plus the recovery bookkeeping.
type supShard struct {
	*pipeline
	restarts  int
	dead      bool
	backoffNs float64
	orphans   [][]*streamlet.Backlog // adopted backlogs per scheduler slot
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
	pipes, err := r.begin(framesPerStream, schedule)
	if err != nil {
		return nil, nil, err
	}
	rcfg = rcfg.withDefaults()

	sup := make([]*supShard, len(pipes))
	for k, p := range pipes {
		p.s.manager.SetPolicy(rcfg.Policy)
		p.s.bus.Injector = p.plan.Bus()
		sup[k] = &supShard{pipeline: p, orphans: make([][]*streamlet.Backlog, r.cfg.SlotsPerShard)}
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
			if !u.dead && u.owed() > 0 {
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

		// One pipeline segment per live shard, to completion or crash.
		// runToCompletion drains the tx-ring residue a crash strands, so
		// delivered equals scheduled at every barrier (conservation
		// bookkeeping is exact between rounds).
		var wg sync.WaitGroup
		errs := make([]error, len(active))
		for i, u := range active {
			wg.Add(1)
			go func(i int, u *supShard) {
				defer wg.Done()
				if err := u.runToCompletion(); err != nil {
					errs[i] = fmt.Errorf("shard %d: %w", u.s.index, err)
				}
			}(i, u)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, nil, err
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
			n, err := r.reaggregate(u, sup, &rrCursor, round, trace)
			if err != nil {
				return nil, nil, err
			}
			result.ReaggregatedSlots += n
		}
	}

	for _, u := range sup {
		// The trailing partial PCI batch is metered once, when the run is
		// over, exactly as Run does — never between rounds, where it would
		// shift the bus operation indices the fault schedule keys on. A
		// fault abandoning this last transfer is charged to the bus and
		// traced, but crashes nothing: no work is left to restart.
		if err := u.flushTail(); err != nil {
			trace.Addf("shard=%d tail batch abandoned: %v", u.s.index, err)
		}
		result.Delivered += u.delivered
		result.Dropped += u.s.manager.LiveDropped()
		result.RebindEpochs += u.s.sched.RebindEpoch()
		result.Counters = MergeCounters(result.Counters, u.s.sched.Totals())
		result.PerShardDelivered = append(result.PerShardDelivered, u.delivered)
		if vns := u.virtualNs() + u.backoffNs; vns > result.VirtualNs {
			result.VirtualNs = vns
		}
	}
	if result.VirtualNs > 0 {
		result.PacketsPerS = float64(result.Delivered) / result.VirtualNs * 1e9
	}
	return result, sup, nil
}

// reaggregate salvages a dead shard's undelivered flows and re-homes them,
// one streamlet backlog per dead stream-slot, round-robin across the
// survivors' occupied stream-slots. Each target slot's head source is
// rebuilt as a streamlet aggregator over its own queue plus every backlog
// it has adopted, and swapped in with a counter-preserving scheduler rebind
// (bumping the target's rebind epoch). It returns how many dead slots were
// re-homed.
func (r *Router) reaggregate(dead *supShard, sup []*supShard, rrCursor *int, round int, trace *fault.Trace) (int, error) {
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
