package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	ss "repro"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/endsystem"
	"repro/internal/experiments"
	"repro/internal/pci"
	"repro/internal/traffic"
)

// paperPIOpps is §5.2's endsystem operating point with PIO transfers: the
// modeled packets/s every batch run must reproduce.
const paperPIOpps = 299_065

// ppsError is how far a run's modeled packets/s lands from the paper's
// operating point (whole packets/s; 0 on a correct model).
func ppsError(modeled float64) float64 { return math.Abs(math.Round(modeled) - paperPIOpps) }

// batchSlots is each batch workload's stream-slot count: the paper's 4-slot
// prototype, and a fabric-sized 256.
var batchSlots = map[string]int{"batch-host": 4, "batch-fabric": 256}

func runBatchHost(e *env) error   { return runBatch(e, batchSlots["batch-host"], e.sz.hostFrames) }
func runBatchFabric(e *env) error { return runBatch(e, batchSlots["batch-fabric"], e.sz.fabricFrames) }

// batchOpts is the batch workloads' driver configuration: one shard, the
// run-to-completion loop, PIO transfers metered per 32-frame batch.
var batchOpts = endsystem.ShardedOptions{Mode: pci.ModePIO, RunToCompletion: true}

// runBatch times whole RunShardedOpts calls: router build, balanced
// admission and the produce → schedule → PCI-batch → transmit loop for
// slots × frames frames.
func runBatch(e *env, slots, frames int) error {
	// Set-up: one short run, so the first timed call finds the heap grown
	// and the code paged in.
	if _, err := endsystem.RunShardedOpts(1, slots, frames/16+1, batchOpts); err != nil {
		return err
	}
	if e.ready() {
		return nil
	}
	want := uint64(slots) * uint64(frames)
	for e.more() {
		sp := e.tr.begin("endsystem.RunShardedOpts")
		start := time.Now()
		res, err := endsystem.RunShardedOpts(1, slots, frames, batchOpts)
		d := time.Since(start)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		e.op(d, res.Frames)
		e.expect("frames delivered", res.Frames, want)
		e.check(ppsError(res.PacketsPerS) == 0, "modeled %.1f pps, want %d", res.PacketsPerS, paperPIOpps)
		sr := res.PerShard[0]
		e.counts["frames"] += float64(res.Frames)
		e.counts["decisions"] += float64(sr.Decisions)
		e.counts["calls"]++
		e.exact["frames_per_op"] = fmt.Sprint(res.Frames)
		e.exact["decisions_per_op"] = fmt.Sprint(sr.Decisions)
		e.exact["modeled_pps"] = fmt.Sprintf("%.0f", res.PacketsPerS)
	}
	return nil
}

// baSlots is block-ba's block size: the paper's largest single-chip design.
const baSlots = 32

// newBlockScheduler builds the block-ba scheduler — 32 slots, block routing,
// max-first — over Table 3's stream set: EDF, request period 1, stream i's
// arrivals i, i+1, …, fully backlogged.
func newBlockScheduler() (*ss.Scheduler, error) {
	s, err := ss.NewScheduler(ss.Config{Slots: baSlots, Routing: core.BlockRouting, Circulate: core.MaxFirst})
	if err != nil {
		return nil, err
	}
	for i := 0; i < baSlots; i++ {
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if err := s.Admit(i, ss.EDFStream(1), src); err != nil {
			return nil, err
		}
	}
	return s, s.Start()
}

// runBlockBA times batches of block decisions with a visitor attached, the
// way every driver in the tree consumes them: each cycle materializes the
// sorted block (shuffle.RunLoaded) and services all 32 members.
func runBlockBA(e *env) error {
	s, err := newBlockScheduler()
	if err != nil {
		return err
	}
	var frames uint64
	visit := func(cr *core.CycleResult) bool {
		frames += uint64(len(cr.Transmissions))
		return true
	}
	s.RunCycles(e.sz.baDecisions/8+16, visit) // warm-up past the first key refresh
	if e.ready() {
		return nil
	}
	for e.more() {
		frames = 0
		before := s.Decisions()
		sp := e.tr.begin("core.Scheduler.RunCycles")
		start := time.Now()
		s.RunCycles(e.sz.baDecisions, visit)
		d := time.Since(start)
		e.tr.end(sp)
		e.op(d, frames)
		decisions := s.Decisions() - before
		e.expect("decisions per op", decisions, uint64(e.sz.baDecisions))
		e.expect("frames per decision", frames, decisions*baSlots)
		e.counts["frames"] += float64(frames)
		e.counts["decisions"] += float64(decisions)
		e.exact["frames_per_op"] = fmt.Sprint(frames)
	}
	tot := s.Totals()
	e.check(tot.Missed == 0, "block max-first missed %d deadlines", tot.Missed)
	return nil
}

// runAggregate times whole Figure 10 runs: 4 slots at 2:2:4:8 MB/s, 100
// streamlets per slot, the last slot carrying two sets at 2:1.
func runAggregate(e *env) error {
	cfg := experiments.Fig10Config{FramesPerSlot: e.sz.aggFrames, StreamletsPer: e.sz.aggStreamlets}
	warm := cfg
	warm.FramesPerSlot = cfg.FramesPerSlot/16 + 1
	if _, err := experiments.Fig10(warm); err != nil {
		return err
	}
	if e.ready() {
		return nil
	}
	rates := []float64{2, 2, 4, 8}
	for e.more() {
		sp := e.tr.begin("experiments.Fig10")
		start := time.Now()
		res, err := experiments.Fig10(cfg)
		d := time.Since(start)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		e.op(d, res.Sent)
		e.expect("frames sent", res.Sent, res.Expected)
		e.check(res.Expected == 4*cfg.FramesPerSlot, "expected %d frames, want %d", res.Expected, 4*cfg.FramesPerSlot)
		for i, w := range rates {
			e.check(math.Abs(res.SlotMBps[i]-w)/w <= 0.05, "slot %d at %.3f MB/s, want %.0f", i+1, res.SlotMBps[i], w)
		}
		share := res.SetShare[len(rates)-1]
		e.check(len(share) == 2 && math.Abs(share[0]-2.0/3) <= 0.02 && math.Abs(share[1]-1.0/3) <= 0.02,
			"slot 4 set shares %v, want 2:1", share)
		e.counts["frames"] += float64(res.Sent)
		e.counts["calls"]++
		e.exact["frames_per_op"] = fmt.Sprint(res.Sent)
		e.exact["slot_mbps"] = fmt.Sprintf("%.6f", res.SlotMBps)
	}
	return nil
}

// liveShards is the service default's shard count (endsystem.NewService).
const liveShards = 4

// liveOffering is the frames offered to every occupied slot each epoch.
const liveOffering = 2

// newService builds a live engine from cfg, admits prefill streams of mixed
// class through the fence and steps a few warm-up epochs. The generator it
// returns has seen every response.
func newService(cfg endsystem.ServiceConfig, seed int64, prefill int) (*ctlplane.Engine, *churn, error) {
	eng, err := endsystem.NewService(cfg)
	if err != nil {
		return nil, nil, err
	}
	gen := newChurn(seed, liveShards, prefill)
	for i := 0; i < prefill; i++ {
		eng.Enqueue(gen.admit(churnClasses[i%len(churnClasses)]))
	}
	for i := 0; i < 16; i++ {
		gen.digest(eng.Step().Responses)
	}
	return eng, gen, nil
}

// newLiveEngine is live-churn's engine: the service defaults at liveOffering,
// journaling to a file at path.
func newLiveEngine(seed int64, path string, prefill int) (*ctlplane.Engine, *churn, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, gen, err := newService(endsystem.ServiceConfig{FramesPerStream: liveOffering, Journal: f}, seed, prefill)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return eng, gen, f, nil
}

// runLiveChurn times individual Engine.Step calls under seeded control
// churn. A trial is a fresh engine stepped liveSteps times; every trial of a
// run uses the same seed, so every trial must write the same journal. After
// the timed section the first trial's journal is replayed and the rebuilt
// engine compared with the one that wrote it.
func runLiveChurn(e *env) error {
	var refHash, refLines uint64
	var refPath string
	var refEng *ctlplane.Engine
	for trial := 0; trial == 0 || e.more() || trial < 2; trial++ {
		path := filepath.Join(e.dir, fmt.Sprintf("live-%d.journal", trial))
		eng, gen, f, err := newLiveEngine(e.seed, path, e.sz.livePrefill)
		if err != nil {
			return err
		}
		if e.ready() {
			f.Close()
			return os.Remove(path)
		}
		before := eng.Ledger()
		var requests, refused uint64
		for s := 0; s < e.sz.liveSteps; s++ {
			for r := 0; r < e.sz.liveRequests; r++ {
				sp := e.tr.begin("ctlplane.Engine.Enqueue")
				eng.Enqueue(gen.request())
				e.tr.end(sp)
			}
			sp := e.tr.begin("ctlplane.Engine.Step")
			start := time.Now()
			rep := eng.Step()
			d := time.Since(start)
			e.tr.end(sp)
			e.op(d, 0)
			gen.digest(rep.Responses)
			e.counts["shard_epochs"] += float64(gen.running())
			e.check(rep.Balanced, "E%d ledger unbalanced: %+v", rep.Epoch, rep.Ledger)
			requests += uint64(len(rep.Responses))
			for _, r := range rep.Responses {
				if !r.OK() {
					refused++
				}
			}
		}
		after := eng.Ledger()
		e.frames += after.Delivered - before.Delivered
		e.expect("requests answered", requests, uint64(e.sz.liveSteps*e.sz.liveRequests))
		e.check(eng.Violations() == 0, "%d conservation violations", eng.Violations())
		e.check(eng.SinkErrors() == 0, "%d journal sink errors", eng.SinkErrors())
		e.counts["steps"] += float64(e.sz.liveSteps)
		e.counts["requests"] += float64(requests)
		e.counts["offered"] += float64(after.Offered - before.Offered)
		e.counts["frames"] += float64(after.Delivered - before.Delivered)
		hash, lines := eng.JournalSum()
		if err := f.Close(); err != nil {
			return err
		}
		if trial == 0 {
			refHash, refLines, refPath, refEng = hash, lines, path, eng
			e.exact["journal_hash"] = fmt.Sprintf("%016x", hash)
			e.exact["journal_lines"] = fmt.Sprint(lines)
			e.exact["refused_requests"] = fmt.Sprint(refused)
			e.exact["frames_per_trial"] = fmt.Sprint(after.Delivered - before.Delivered)
			continue
		}
		e.check(hash == refHash && lines == refLines,
			"trial %d journal %016x/%d lines, trial 0 wrote %016x/%d", trial, hash, lines, refHash, refLines)
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	if err := checkReplay(e, refPath, refEng); err != nil {
		return err
	}
	return os.Remove(refPath)
}

// checkReplay rebuilds an engine from the journal at path and requires the
// replay identity — hash, lines, ledger and offering — to equal live's.
func checkReplay(e *env, path string, live *ctlplane.Engine) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sp := e.tr.begin("ctlplane.Replay")
	eng, rep, err := ctlplane.Replay(f)
	e.tr.end(sp)
	if err != nil {
		e.check(false, "replay: %v", err)
		return nil
	}
	hash, lines := live.JournalSum()
	e.check(rep.Hash == hash && rep.Lines == lines,
		"replayed journal %016x/%d lines, live wrote %016x/%d", rep.Hash, rep.Lines, hash, lines)
	e.check(rep.TornBytes == 0, "replay dropped %d bytes of a cleanly closed journal", rep.TornBytes)
	e.check(eng.Ledger() == live.Ledger(), "replayed ledger %+v, live %+v", eng.Ledger(), live.Ledger())
	e.check(reflect.DeepEqual(eng.Offering(), live.Offering()), "replayed offering differs from live")
	return nil
}

// specQuery renders a spec as ssserved's admin query parameters.
func specQuery(s attr.Spec) string {
	switch s.Class {
	case attr.WindowConstrained:
		return fmt.Sprintf("class=wc&period=%d&num=%d&den=%d", s.Period, s.Constraint.Num, s.Constraint.Den)
	case attr.StaticPriority:
		return fmt.Sprintf("class=static&priority=%d", s.Priority)
	case attr.FairTag:
		return fmt.Sprintf("class=fair&weight=%d", s.Weight)
	default:
		return fmt.Sprintf("class=edf&period=%d", s.Period)
	}
}
