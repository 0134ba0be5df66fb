package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
	"repro/internal/ringbuf"
	"repro/internal/shard"
	"repro/internal/shuffle"
	"repro/internal/stats"
	"repro/internal/streamlet"
	"repro/internal/traffic"
	"repro/internal/txengine"
)

// A kernel is an isolated loop over one layer's exported functions, at the
// sizes and programs the workloads use. The driver cannot see inside
// RunShardedOpts or Engine.Step, so the traced run measures each layer this
// way and multiplies by the exact operation counts the untraced run's result
// structs report (budget.go). Every kernel runs in every traced run,
// whatever the workload: the per-layer rows are one table.

// Sinks keep the compiler from deleting a kernel's measured call.
var (
	sinkKey  attr.Key
	sinkBool bool
	sinkInt  int
)

// kernels is one traced run's kernel suite.
type kernels struct {
	seed   int64
	per    time.Duration // wall budget of one timed loop
	sz     sizes
	dir    string
	served string
	tr     *tracer
	out    map[string]summary
}

// loop times fn(n) in chunks until the kernel's budget is spent (five chunks
// at least) and records ns per iteration under name.
func (k *kernels) loop(name string, n int, fn func(n int)) {
	sp := k.tr.begin(name)
	defer k.tr.end(sp)
	fn(n) // warm-up chunk
	var perOp []float64
	deadline := time.Now().Add(k.per)
	for len(perOp) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		fn(n)
		perOp = append(perOp, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	k.out[name] = summarize(perOp)
}

// repeat times whole calls of fn (at least three, until the budget is spent)
// and returns their durations in seconds.
func (k *kernels) repeat(name string, fn func() error) ([]float64, error) {
	sp := k.tr.begin(name)
	defer k.tr.end(sp)
	var secs []float64
	deadline := time.Now().Add(k.per)
	for len(secs) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// run executes the whole suite.
func (k *kernels) run() error {
	steps := []func() error{
		k.attrDecision, k.shuffle, k.regblock, k.core, k.ringbuf, k.qm, k.pci,
		k.aggregation, k.shard, k.sharded, k.ctlplane, k.obs, k.ssserved,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// words synthesizes n valid attribute words around virtual time now.
func words(rng *rand.Rand, n int, now uint64) []attr.Attributes {
	ws := make([]attr.Attributes, n)
	for i := range ws {
		ws[i] = attr.Attributes{
			Deadline: attr.WrapTime(now + uint64(rng.Intn(4096))),
			LossNum:  uint8(rng.Intn(3)),
			LossDen:  uint8(3 + rng.Intn(4)),
			Arrival:  attr.WrapTime(now + uint64(rng.Intn(64))),
			Slot:     attr.SlotID(i % 256),
			Valid:    true,
		}
	}
	return ws
}

func (k *kernels) attrDecision() error {
	rng := rand.New(rand.NewSource(k.seed))
	const now, table = 40_000, 1024
	ref := attr.WrapTime(now) - 0x8000
	ws := words(rng, table, now)
	cs := make([]attr.Key, table)
	ks := make([]attr.Key, table)
	for i, w := range ws {
		cs[i] = attr.KeyConstraint(w.LossNum, w.LossDen)
		ks[i] = w.Key(ref)
	}
	k.loop("attr.key_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			sinkKey ^= ws[i%table].KeyWith(cs[i%table], ref)
		}
	})
	k.loop("decision.rank_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			sinkKey ^= decision.ProgramDWCS.Rank(ws[i%table], ref)
		}
	})
	var bl decision.Block
	k.loop("decision.compare_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			a, b := i%table, (i*7+1)%table
			sinkBool = bl.CompareKeyed(ws[a], ws[b], ks[a], ks[b]) != sinkBool
		}
	})
	return nil
}

// shufflePass times one decision's worth of network work at n slots: the
// serviced slots relatch their next words — one winner under Tournament, the
// whole block under the BA schedule — then the network runs. The words and
// their rank keys are laid out beforehand (each slot's deadline advancing one
// period per service), because packing a key is regblock's work, not the
// network's.
func (k *kernels) shufflePass(name string, n int, schedule shuffle.Schedule) error {
	nw, err := shuffle.New(n, decision.DWCS, schedule)
	if err != nil {
		return err
	}
	const now, gens = 40_000, 64
	ref := attr.WrapTime(now) - 0x8000
	ws := make([][gens]attr.Attributes, n)
	ks := make([][gens]attr.Key, n)
	gen := make([]int, n)
	for i := range ws {
		for g := 0; g < gens; g++ {
			w := attr.Attributes{
				Deadline: attr.WrapTime(now + uint64(i+g*n)), Arrival: attr.WrapTime(now + uint64(g)),
				Slot: attr.SlotID(i), Valid: true,
			}
			ws[i][g], ks[i][g] = w, w.Key(ref)
		}
		nw.SetInput(i, ws[i][0], ks[i][0])
	}
	advance := func(i int) {
		g := (gen[i] + 1) % gens
		gen[i] = g
		nw.SetInput(i, ws[i][g], ks[i][g])
	}
	k.loop(name, k.sz.kernelOps/n*4+16, func(iters int) {
		for c := 0; c < iters; c++ {
			res := nw.RunLoaded()
			if schedule == shuffle.Tournament {
				advance(int(res.Winner.Slot))
				continue
			}
			for i := 0; i < n; i++ {
				advance(i)
			}
		}
	})
	return nil
}

func (k *kernels) shuffle() error {
	if err := k.shufflePass("shuffle.wr_pass_ns.n256", 256, shuffle.Tournament); err != nil {
		return err
	}
	return k.shufflePass("shuffle.ba_pass_ns.n32", baSlots, shuffle.PaperLogN)
}

func (k *kernels) regblock() error {
	src := &traffic.Periodic{Gap: 1, Backlogged: true}
	b, err := regblock.New(0, attr.Spec{Class: attr.EDF, Period: 4}, src)
	if err != nil {
		return err
	}
	b.Load(0)
	now := uint64(0)
	k.loop("regblock.update_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			now++
			src.Advance(now)
			b.Service(false, true)
			sinkBool = b.ExpireCheck(now)
			sinkKey ^= b.Key()
		}
	})
	return nil
}

// batchScheduler is the scheduler a batch workload's shard runs: n EDF
// streams of period n, arrivals 0, 1, 2, … (shard.Run's frame stamps),
// always backlogged.
func batchScheduler(n int) (*core.Scheduler, error) {
	s, err := core.New(core.Config{Slots: n, Routing: core.WinnerOnly})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		src := &traffic.Periodic{Gap: 1, Backlogged: true}
		if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: uint16(n)}, src); err != nil {
			return nil, err
		}
	}
	return s, s.Start()
}

// decisionKernel times RunCycles with a visitor on s, then counts the heap
// allocations of one more batch with nothing of the harness's in between.
func (k *kernels) decisionKernel(name string, s *core.Scheduler) (allocsPerCycle float64) {
	visit := func(cr *core.CycleResult) bool {
		sinkInt += len(cr.Transmissions)
		return true
	}
	chunk := k.sz.kernelOps*4/s.Config().Slots + 64
	k.loop(name, chunk, func(n int) { s.RunCycles(n, visit) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycles := s.RunCycles(4*chunk, visit)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(cycles)
}

func (k *kernels) core() error {
	var allocs float64
	for _, n := range []int{4, 256} {
		s, err := batchScheduler(n)
		if err != nil {
			return err
		}
		a := k.decisionKernel(fmt.Sprintf("core.wr_decision_ns.n%d", n), s)
		if a > allocs {
			allocs = a
		}
		if n == 256 {
			nw := s.Network()
			k.out["decision.fastpath_hit_ratio"] = point(1 - float64(nw.CascadeFallbacks())/float64(nw.Compares()))
			k.out["shuffle.compares_per_decision"] = point(float64(nw.Compares()) / float64(s.Decisions()))
		}
	}
	s, err := newBlockScheduler()
	if err != nil {
		return err
	}
	if a := k.decisionKernel("core.ba_decision_ns.n32", s); a > allocs {
		allocs = a
	}
	k.out["core.allocs_per_cycle"] = point(allocs)
	return nil
}

func (k *kernels) ringbuf() error {
	r, err := ringbuf.New[core.Transmission](1024)
	if err != nil {
		return err
	}
	k.loop("ringbuf.pushpop_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			r.Push(core.Transmission{Slot: attr.SlotID(i & 3)})
			tx, _ := r.Pop()
			sinkInt += int(tx.Slot)
		}
	})
	// Handoff: one goroutine pushes, the other pops, both spinning — the
	// threaded shard loop's cost per frame crossing a ring.
	k.loop("ringbuf.handoff_ns", k.sz.kernelOps*4, func(n int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; {
				if r.Push(core.Transmission{Rank: i}) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}()
		for got := 0; got < n; {
			if _, ok := r.Pop(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
		wg.Wait()
	})
	return nil
}

func (k *kernels) qm() error {
	// Fixed rings, the batch workloads' organization: fill, then drain.
	const streams, capacity = 4, 1024
	m, err := qm.New(streams, capacity)
	if err != nil {
		return err
	}
	heads := make([]regblock.HeadSource, streams)
	for i := range heads {
		if err := m.Describe(i, attr.Spec{Class: attr.EDF, Period: streams}); err != nil {
			return err
		}
		heads[i] = m.Source(i)
	}
	var offerNs, dequeueNs []float64
	sp := k.tr.begin("qm.offer_ns+qm.dequeue_ns")
	deadline := time.Now().Add(2 * k.per)
	for round := uint64(0); len(offerNs) < 5 || time.Now().Before(deadline); round++ {
		start := time.Now()
		for f := 0; f < capacity; f++ {
			for i := 0; i < streams; i++ {
				m.Offer(i, qm.Frame{Size: 1500, Arrival: round*capacity + uint64(f)})
			}
		}
		mid := time.Now()
		for f := 0; f < capacity; f++ {
			for i := 0; i < streams; i++ {
				h, _ := heads[i].NextHead()
				sinkInt += int(h.Arrival)
			}
		}
		end := time.Now()
		offerNs = append(offerNs, float64(mid.Sub(start).Nanoseconds())/(streams*capacity))
		dequeueNs = append(dequeueNs, float64(end.Sub(mid).Nanoseconds())/(streams*capacity))
	}
	k.tr.end(sp)
	k.out["qm.offer_ns"] = summarize(offerNs)
	k.out["qm.dequeue_ns"] = summarize(dequeueNs)

	// Shared pool, the live service's organization, under a rotating hot
	// stream: each round one stream bursts 40 frames past its reservation of
	// 8 while the rest offer one, and the card drains 56 heads — the load is
	// sustainable on average, but a burst outlives several rounds and the
	// pool only covers two at once. The pool lends, refuses when it is empty
	// or the stream's measured delay shows a standing queue, and DropOldest
	// sheds the rest, so all three ratios below are exercised, and exact.
	// Frames are stamped with the manager's modeled service round, the clock
	// the pool measures delay on.
	const slots = 16
	sm, err := qm.NewShared(slots, qm.SharedConfig{Reservation: 8, Burst: 64, DelayTarget: 64})
	if err != nil {
		return err
	}
	sm.SetPolicy(qm.DropOldest)
	sheads := make([]regblock.HeadSource, slots)
	for i := range sheads {
		if err := sm.Describe(i, attr.Spec{Class: attr.EDF, Period: slots}); err != nil {
			return err
		}
		sheads[i] = sm.Source(i)
	}
	var offers uint64
	round := uint64(0)
	k.loop("qm.offer_shared_ns", 64, func(n int) {
		for r := 0; r < n; r++ {
			round++
			hot := int(round % slots)
			for i := 0; i < slots; i++ {
				burst := 1
				if i == hot {
					burst = 40
				}
				for f := 0; f < burst; f++ {
					sm.Offer(i, qm.Frame{Size: 1500, Arrival: sm.Dequeued / slots})
					offers++
				}
			}
			for d := 0; d < 56; d++ {
				h, _ := sheads[d%slots].NextHead()
				sinkInt += int(h.Arrival)
			}
		}
	})
	// loop reports ns per round; an Offer is 1/55 of one.
	const perRound = slots - 1 + 40
	k.out["qm.offer_shared_ns"] = k.out["qm.offer_shared_ns"].scaled(1.0 / perRound)
	tot := sm.Totals()
	k.out["qm.refused_ratio"] = point(float64(tot.Refused) / float64(offers))
	k.out["qm.dropped_ratio"] = point(float64(tot.Dropped) / float64(offers))
	ps, _ := sm.PoolStats()
	k.out["qm.pool_borrow_ratio"] = point(float64(ps.Borrows) / float64(ps.Borrows+ps.Denials))
	return nil
}

func (k *kernels) pci() error {
	bus, err := pci.New(pci.DefaultConfig())
	if err != nil {
		return err
	}
	meter := bus.BatchMeter(pci.ModePIO)
	var merr error
	k.loop("pci.batch_meter_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			if err := meter(endsystem.TransferBatch); err != nil {
				merr = err
			}
		}
	})
	if merr != nil {
		return merr
	}
	res, err := endsystem.RunShardedOpts(1, 4, 3200, batchOpts)
	if err != nil {
		return err
	}
	k.out["pci.modeled_pps_error"] = point(ppsError(res.PacketsPerS))
	return nil
}

// aggregation covers the layers only the aggregate workload touches.
func (k *kernels) aggregation() error {
	const streams, frameBytes = 4, 1000
	var terr error
	newEngine := func() *txengine.Engine {
		e, err := txengine.New(streams, 128e6, 1e7)
		if err != nil {
			terr = err
		}
		return e
	}
	k.loop("txengine.transmit_ns", k.sz.kernelOps, func(n int) {
		e := newEngine() // fresh per chunk: the delay recorder keeps every sample
		if e == nil {
			return
		}
		for i := 0; i < n; i++ {
			t := float64(i) * 62500
			if _, err := e.Transmit(i%streams, frameBytes, t, t-1000); err != nil {
				terr = err
			}
		}
	})
	if terr != nil {
		return terr
	}

	srcs := make([]regblock.HeadSource, k.sz.aggStreamlets)
	for i := range srcs {
		srcs[i] = &traffic.Periodic{Gap: 1, Backlogged: true}
	}
	set, err := streamlet.NewSet(1, srcs)
	if err != nil {
		return err
	}
	agg, err := streamlet.New(set)
	if err != nil {
		return err
	}
	// The scheduler advances every timed source once per decision cycle,
	// and an aggregator forwards that to each of its streamlets.
	now := uint64(0)
	k.loop("streamlet.advance_ns", k.sz.kernelOps/16, func(n int) {
		for i := 0; i < n; i++ {
			now++
			agg.Advance(now)
		}
	})
	k.loop("streamlet.head_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			h, _ := agg.NextHead()
			sinkInt += int(h.Arrival)
			if _, _, err := agg.OnTransmit(frameBytes); err != nil {
				terr = err
			}
		}
	})
	if terr != nil {
		return terr
	}
	lo, hi := set.Streamlet(0).Bytes, set.Streamlet(0).Bytes
	for i := 1; i < set.Size(); i++ {
		b := set.Streamlet(i).Bytes
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	k.out["streamlet.fairness"] = point(float64(lo) / float64(hi))

	meter, err := stats.NewBandwidthMeter(streams, 1e7)
	if err != nil {
		return err
	}
	at := 0.0
	k.loop("stats.meter_record_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			at += 62500
			if err := meter.Record(i%streams, frameBytes, at); err != nil {
				terr = err
			}
		}
	})
	return terr
}

// liveRouter builds the live service's router (4×16, shared pool,
// DropOldest) with prefill streams of mixed class admitted.
func liveRouter(seed int64, prefill int) (*shard.Router, error) {
	r, err := shard.New(shard.Config{
		Shards: liveShards, SlotsPerShard: 16,
		BufferPool: qm.SharedConfig{Reservation: 8, Burst: 64, DelayTarget: 64},
	})
	if err != nil {
		return nil, err
	}
	if err := r.StartLive(qm.DropOldest); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// An admission is refused when the stream's home shard is full; the next
	// ID hashes elsewhere.
	for id := shard.StreamID(1); r.Streams() < prefill && id < shard.StreamID(4*prefill); id++ {
		_, _, _ = r.AdmitLive(id, randomSpec(rng, churnClasses[int(id)%len(churnClasses)]))
	}
	return r, nil
}

func (k *kernels) shard() error {
	r, err := liveRouter(k.seed, k.sz.livePrefill)
	if err != nil {
		return err
	}
	const cycles = 128
	var idle, total uint64
	visit := func(cr *core.CycleResult) bool {
		total++
		if cr.Idle {
			idle++
		}
		return true
	}
	epoch := uint64(0)
	var stepNs []float64
	sp := k.tr.begin("shard.step_ns_per_cycle")
	deadline := time.Now().Add(k.per)
	for len(stepNs) < 64 || time.Now().Before(deadline) {
		epoch++
		for s := 0; s < liveShards; s++ {
			m := r.Manager(s)
			for slot := 0; slot < 16; slot++ {
				if _, ok := r.SlotStream(s, slot); !ok {
					continue
				}
				for f := 0; f < liveOffering; f++ {
					m.Offer(slot, qm.Frame{Size: 1500, Arrival: epoch})
				}
			}
		}
		start := time.Now()
		for s := 0; s < liveShards; s++ {
			if _, err := r.StepShard(s, cycles, visit); err != nil {
				return err
			}
		}
		stepNs = append(stepNs, float64(time.Since(start).Nanoseconds())/(liveShards*cycles))
	}
	k.tr.end(sp)
	k.out["shard.step_ns_per_cycle"] = summarize(stepNs)
	k.out["core.idle_cycle_ratio"] = point(float64(idle) / float64(total))

	// Admit and evict one stream over and over on the loaded router.
	const probe = shard.StreamID(1 << 30)
	spec := attr.Spec{Class: attr.EDF, Period: 8}
	var admitNs, evictNs []float64
	sp = k.tr.begin("shard.admit_live_ns+shard.evict_live_ns")
	deadline = time.Now().Add(k.per)
	for len(admitNs) < 64 || time.Now().Before(deadline) {
		start := time.Now()
		_, _, err := r.AdmitLive(probe, spec)
		mid := time.Now()
		if err != nil {
			return err
		}
		if _, err := r.EvictLive(probe); err != nil {
			return err
		}
		end := time.Now()
		admitNs = append(admitNs, float64(mid.Sub(start).Nanoseconds()))
		evictNs = append(evictNs, float64(end.Sub(mid).Nanoseconds()))
	}
	k.tr.end(sp)
	k.out["shard.admit_live_ns"] = summarize(admitNs)
	k.out["shard.evict_live_ns"] = summarize(evictNs)
	return nil
}

// sharded covers what RunShardedOpts does around and instead of the
// batch-host loop: router build, the threaded loop, multi-shard scaling.
func (k *kernels) sharded() error {
	build, err := k.repeat("endsystem.router_build_s", func() error {
		r, err := shard.New(shard.Config{
			Shards: 1, SlotsPerShard: 256, HostNs: endsystem.HostCostNs,
			Mode: pci.ModePIO, TransferBatch: endsystem.TransferBatch, RunToCompletion: true,
		})
		if err != nil {
			return err
		}
		_, err = r.AdmitBalanced(256, attr.Spec{Class: attr.EDF, Period: 256})
		return err
	})
	if err != nil {
		return err
	}
	k.out["endsystem.router_build_s"] = summarize(build)
	k.out[keyBuildSlot] = point(median(build) * 1e9 / 256)

	// Every configuration pushes the same number of frames per shard.
	perShard := k.sz.hostFrames / 4
	rate := func(name string, shards, slots int, opts endsystem.ShardedOptions) (summary, *shard.Result, error) {
		frames := perShard / slots
		var last *shard.Result
		secs, err := k.repeat(name, func() error {
			res, err := endsystem.RunShardedOpts(shards, slots, frames, opts)
			last = res
			return err
		})
		if err != nil {
			return summary{}, nil, err
		}
		per := float64(shards * slots * frames)
		rates := make([]float64, len(secs))
		for i, s := range secs {
			rates[i] = per / s
		}
		return summarize(rates), last, nil
	}
	threaded, _, err := rate("shard.threaded_frames_per_s", 1, 4, endsystem.ShardedOptions{Mode: pci.ModePIO})
	if err != nil {
		return err
	}
	k.out["shard.threaded_frames_per_s"] = threaded

	width := min(runtime.NumCPU(), 4)
	single, _, err := rate("shard.single_frames_per_s", 1, 32, batchOpts)
	if err != nil {
		return err
	}
	scaled, res, err := rate("shard.scaled_frames_per_s", width, 32, batchOpts)
	if err != nil {
		return err
	}
	k.out["shard.scaled_frames_per_s"] = scaled
	k.out["shard.parallel_efficiency"] = point(scaled.Value / (float64(width) * single.Value))
	var max uint64
	for _, sr := range res.PerShard {
		if sr.Frames > max {
			max = sr.Frames
		}
	}
	k.out["shard.imbalance"] = point(float64(max) * float64(len(res.PerShard)) / float64(res.Frames))
	return nil
}

// timeStep runs one epoch of eng and returns its wall time in µs.
func timeStep(eng *ctlplane.Engine) (float64, ctlplane.EpochReport) {
	start := time.Now()
	rep := eng.Step()
	return float64(time.Since(start).Nanoseconds()) / 1e3, rep
}

// miniEngine is the live service with the datapath all but switched off —
// one decision cycle per epoch, nothing offered, no journal sink — so a step
// is the fence, the ledger and the journal lines, and little else.
func miniEngine(seed int64, prefill int) (*ctlplane.Engine, *churn, error) {
	eng, gen, err := newService(endsystem.ServiceConfig{CyclesPerEpoch: 1}, seed, prefill)
	if err != nil {
		return nil, nil, err
	}
	eng.SetOffering(0)
	return eng, gen, nil
}

// ctlplane steps engines of the live-churn configuration in rotation, so
// drift on the box lands on all alike. Two see the same churn, one
// journaling to a file (live-churn itself) and one with the sink detached:
// the difference is the file's share of a step. Two more run with the
// datapath switched off, one churned and one not: the difference is the
// fence's. (A quiet full engine is no baseline for the fence — churn drains
// shards, which makes a churned step cheaper than a quiet one.)
func (k *kernels) ctlplane() error {
	sp := k.tr.begin("ctlplane kernels")
	defer k.tr.end(sp)
	steps := k.sz.kernelSteps
	path := filepath.Join(k.dir, "kernel.journal")
	defer os.Remove(path)

	filed, genF, f, err := newLiveEngine(k.seed, path, k.sz.livePrefill)
	if err != nil {
		return err
	}
	defer f.Close()
	bare, genB, err := newService(endsystem.ServiceConfig{FramesPerStream: liveOffering}, k.seed, k.sz.livePrefill)
	if err != nil {
		return err
	}
	fenced, genM, err := miniEngine(k.seed, k.sz.livePrefill)
	if err != nil {
		return err
	}
	unfenced, _, err := miniEngine(k.seed, k.sz.livePrefill)
	if err != nil {
		return err
	}

	churned := make([]float64, steps)
	sink := make([]float64, steps)
	fence := make([]float64, steps)
	for s := 0; s < steps; s++ {
		for r := 0; r < k.sz.liveRequests; r++ {
			filed.Enqueue(genF.request())
			bare.Enqueue(genB.request())
			fenced.Enqueue(genM.request())
		}
		us, rep := timeStep(filed)
		genF.digest(rep.Responses)
		usBare, rep := timeStep(bare)
		genB.digest(rep.Responses)
		usFenced, rep := timeStep(fenced)
		genM.digest(rep.Responses)
		usUnfenced, _ := timeStep(unfenced)
		churned[s], sink[s], fence[s] = us, us-usBare, usFenced-usUnfenced
	}
	cs := summarize(churned)
	k.out["ctlplane.step_p99_us"] = point(p99(churned))
	k.out[keyStepP50] = point(cs.Value)
	k.out["ctlplane.requests_per_s"] = point(float64(steps*k.sz.liveRequests) / (sum(churned) / 1e6))
	k.out[keySinkUs] = point(median(sink))
	k.out["ctlplane.file_sink_overhead_ratio"] = point(median(sink) / (cs.Value - median(sink)))
	k.out["ctlplane.fence_ns_per_request"] = point(median(fence) * 1e3 / float64(k.sz.liveRequests))
	// Heap bytes per epoch, read around each Step of a further stretch so
	// that nothing of the harness's is counted (and so that no
	// stop-the-world read lands inside the timed rotation above).
	const allocEpochs = 64
	var before, after runtime.MemStats
	var allocated uint64
	for s := 0; s < allocEpochs; s++ {
		for r := 0; r < k.sz.liveRequests; r++ {
			filed.Enqueue(genF.request())
		}
		runtime.ReadMemStats(&before)
		rep := filed.Step()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		genF.digest(rep.Responses)
	}
	k.out["ctlplane.alloc_bytes_per_epoch"] = point(float64(allocated) / allocEpochs)
	_, lines := filed.JournalSum()
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	k.out["ctlplane.journal_bytes_per_epoch"] = point(float64(st.Size()) / float64(filed.Epoch()))

	// Checkpoint assembly on the churned engine.
	k.loop("ctlplane.checkpoint_us", 64, func(n int) {
		for i := 0; i < n; i++ {
			sinkInt += len(filed.Checkpoint().Streams)
		}
	})
	k.out["ctlplane.checkpoint_us"] = k.out["ctlplane.checkpoint_us"].scaled(1e-3) // loop reports ns

	// Recovery of that journal: checkpoint scan, then full replay.
	open := func(fn func(*os.File) error) (float64, error) {
		jf, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer jf.Close()
		start := time.Now()
		err = fn(jf)
		return time.Since(start).Seconds(), err
	}
	scan, err := open(func(jf *os.File) error {
		_, _, err := ctlplane.LatestCheckpoint(jf)
		return err
	})
	if err != nil {
		return err
	}
	k.out["ctlplane.latest_checkpoint_s"] = point(scan)
	k.out[keyScanLine] = point(scan * 1e9 / float64(lines))
	replay, err := open(func(jf *os.File) error {
		_, _, err := ctlplane.Replay(jf)
		return err
	})
	if err != nil {
		return err
	}
	k.out["ctlplane.recovery_s"] = point(replay)
	k.out["ctlplane.replay_ns_per_line"] = point(replay * 1e9 / float64(lines))
	// The journal also holds the prefill and warm-up epochs, which replay
	// re-executes; charge live for them at the churned rate.
	liveS := sum(churned) / 1e6 * float64(filed.Epoch()) / float64(steps)
	k.out["ctlplane.replay_vs_live_ratio"] = point(replay / liveS)

	// Nothing offered, nothing asked, every shard running: an epoch of pure
	// idle cycles.
	for shard := 0; shard < liveShards; shard++ {
		bare.Enqueue(ctlplane.Request{Op: ctlplane.OpRestartShard, Shard: shard})
	}
	bare.SetOffering(0)
	idle := make([]float64, 0, steps)
	for s := 0; s < 64+steps; s++ {
		us, _ := timeStep(bare)
		if s >= 64 { // the first epochs run the backlog out
			idle = append(idle, us)
		}
	}
	k.out["ctlplane.idle_step_us"] = summarize(idle)
	return nil
}

func (k *kernels) obs() error {
	h := obs.NewHistogram()
	k.loop("obs.histogram_observe_ns", k.sz.kernelOps, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i))
		}
	})

	// A registry as populated as the daemon's.
	eng, _, err := newService(endsystem.ServiceConfig{FramesPerStream: liveOffering}, k.seed, k.sz.livePrefill)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	eng.RegisterMetrics(reg, "ctl")
	eng.Router().RegisterMetrics(reg, "shard")
	k.loop("obs.snapshot_us", 16, func(n int) {
		for i := 0; i < n; i++ {
			sinkInt += len(reg.Snapshot().Metrics)
		}
	})
	k.out["obs.snapshot_us"] = k.out["obs.snapshot_us"].scaled(1e-3) // loop reports ns

	// batch-host's call with and without a registry attached, alternating.
	frames := k.sz.hostFrames / 16
	var with, without []float64
	sp := k.tr.begin("obs.instrumented_overhead_ratio")
	deadline := time.Now().Add(2 * k.per)
	for len(with) < 3 || time.Now().Before(deadline) {
		for _, instrumented := range []bool{false, true} {
			opts := batchOpts
			if instrumented {
				opts.Registry = obs.NewRegistry()
			}
			start := time.Now()
			if _, err := endsystem.RunShardedOpts(1, 4, frames, opts); err != nil {
				return err
			}
			d := time.Since(start).Seconds()
			if instrumented {
				with = append(with, d)
			} else {
				without = append(without, d)
			}
		}
	}
	k.tr.end(sp)
	k.out["obs.instrumented_overhead_ratio"] = point(median(with)/median(without) - 1)
	return nil
}

func (k *kernels) ssserved() error {
	sp := k.tr.begin("ssserved kernels")
	defer k.tr.end(sp)
	perClient := k.sz.ackRequests
	ackP50 := func(extra ...string) ([]float64, float64, *daemon, error) {
		journal := filepath.Join(k.dir, "kernel-served.journal")
		d, boot, err := startDaemon(k.served, k.dir, append([]string{"-journal", journal}, extra...)...)
		if err != nil {
			return nil, 0, nil, err
		}
		k.out[keyBootS] = point(boot.Seconds())
		start := time.Now()
		acks, bad, _ := load(d, k.seed, k.sz.servedClients, nil, func(done int) bool { return done >= perClient })
		wall := time.Since(start).Seconds()
		if bad > 0 {
			d.kill()
			return nil, 0, nil, fmt.Errorf("ssserved kernel: %d unexpected answers", bad)
		}
		return scale(acks, 1e6), float64(len(acks)) / wall, d, nil
	}
	fence, rate, d, err := ackP50()
	if err != nil {
		return err
	}
	defer d.kill()
	k.out["ssserved.ack_p99_us"] = point(p99(fence))
	k.out["ssserved.requests_per_s"] = point(rate)
	timeGets := func(path string, n int) (summary, error) {
		us := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			code, _, err := d.get(path)
			if err != nil || code != 200 {
				return summary{}, fmt.Errorf("GET %s: HTTP %d, %v", path, code, err)
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return summarize(us), nil
	}
	if k.out["ssserved.ledger_get_us"], err = timeGets("/admin/ledger", k.sz.ackRequests); err != nil {
		return err
	}
	if k.out["ssserved.metrics_scrape_us"], err = timeGets("/metrics", k.sz.ackRequests/4); err != nil {
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	// -sync is last on the command line, so it overrides servedFlags'.
	none, _, d2, err := ackP50("-sync", "none")
	if err != nil {
		return err
	}
	defer d2.kill()
	k.out["ssserved.sync_fence_cost_us"] = point(median(fence) - median(none))
	_, err = d2.stop()
	return err
}
