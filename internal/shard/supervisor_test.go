package shard

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
)

// barrierInjector synchronizes two shards' buses so both reach their fault
// point before either is allowed to fail — making "two concurrently failing
// shards" deterministic instead of a race with sibling cancellation.
type barrierInjector struct {
	wg *sync.WaitGroup
}

func (b *barrierInjector) OnTransfer(op uint64) pci.Fault {
	if op != 0 {
		return pci.Fault{}
	}
	b.wg.Done()
	b.wg.Wait()
	return pci.Fault{Fails: 100} // far past any retry budget
}

func TestRunJoinsAllShardErrors(t *testing.T) {
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4, Mode: pci.ModePIO, TransferBatch: 1})
	if _, err := r.AdmitBalanced(4, edfSpec(4)); err != nil {
		t.Fatal(err)
	}
	var barrier sync.WaitGroup
	barrier.Add(2)
	for k := 0; k < 2; k++ {
		r.Bus(k).Injector = &barrierInjector{wg: &barrier}
	}
	_, err := r.Run(64)
	if err == nil {
		t.Fatal("both shards failed; Run must error")
	}
	for _, want := range []string{"shard 0", "shard 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "canceled") {
		t.Errorf("sibling cancellations must be dropped when root causes exist: %v", err)
	}
	var count int
	for _, line := range strings.Split(err.Error(), "\n") {
		if strings.Contains(line, "retry budget") {
			count++
		}
	}
	if count != 2 {
		t.Errorf("want both root-cause failures in the join, got %d:\n%v", count, err)
	}
}

func supervisedRouter(t *testing.T, shards, slots, streams int) *Router {
	t.Helper()
	r := mustRouter(t, Config{Shards: shards, SlotsPerShard: slots})
	if _, err := r.AdmitBalanced(streams, edfSpec(slots)); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSupervisedNoFaultsMatchesPlainRun(t *testing.T) {
	// 201 frames × 4 streams per shard is not a multiple of TransferBatch:
	// the metered cases pin that the supervisor, too, meters the trailing
	// partial PCI batch, so modeled time matches the plain run's exactly.
	for _, tc := range []struct {
		mode   pci.Mode
		frames int
	}{
		{pci.ModeNone, 200},
		{pci.ModePIO, 201},
		{pci.ModeDMA, 201},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			build := func() *Router {
				r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4, Mode: tc.mode})
				if _, err := r.AdmitBalanced(8, edfSpec(4)); err != nil {
					t.Fatal(err)
				}
				return r
			}
			plain := build()
			res, err := plain.Run(tc.frames)
			if err != nil {
				t.Fatal(err)
			}
			supd := build()
			var tr fault.Trace
			sres, err := supd.RunSupervised(tc.frames, nil, RecoveryConfig{}, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Delivered != res.Frames || sres.Delivered != sres.Target {
				t.Fatalf("supervised delivered %d, plain %d, target %d", sres.Delivered, res.Frames, sres.Target)
			}
			if sres.Rounds != 1 || sres.Restarts != 0 || len(sres.DeadShards) != 0 || sres.Dropped != 0 {
				t.Fatalf("fault-free run took recovery actions: %+v", sres)
			}
			if tr.Len() != 0 {
				t.Fatalf("fault-free run wrote a trace:\n%s", tr.String())
			}
			if sres.Counters.Services != res.Counters.Services {
				t.Fatalf("supervised services %d, plain %d", sres.Counters.Services, res.Counters.Services)
			}
			if sres.VirtualNs != res.VirtualNs || sres.PacketsPerS != res.PacketsPerS {
				t.Fatalf("modeled time: supervised %v ns / %v pps, plain %v ns / %v pps",
					sres.VirtualNs, sres.PacketsPerS, res.VirtualNs, res.PacketsPerS)
			}
			for k := 0; k < 2; k++ {
				if got, want := supd.Bus(k).BusyNs, plain.Bus(k).BusyNs; got != want {
					t.Fatalf("shard %d bus BusyNs: supervised %v, plain %v", k, got, want)
				}
			}
		})
	}
}

func TestSupervisedRestartsRecoverCrash(t *testing.T) {
	sched, err := fault.NewSchedule(fault.Profile{Seed: 11, Shards: 2, ShardCrashes: 1, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	r := supervisedRouter(t, 2, 4, 8)
	var tr fault.Trace
	res, err := r.RunSupervised(100, sched, RecoveryConfig{}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || len(res.DeadShards) != 0 {
		t.Fatalf("one injected crash must cost one restart, no deaths: %+v\n%s", res, tr.String())
	}
	if res.Delivered != res.Target || res.Dropped != 0 {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d", res.Delivered, res.Dropped, res.Target)
	}
	if !strings.Contains(tr.String(), "crash injected") || !strings.Contains(tr.String(), "restart n=1") {
		t.Fatalf("trace missing recovery record:\n%s", tr.String())
	}
	if res.Rounds != 2 {
		t.Fatalf("crash+restart takes 2 rounds, got %d", res.Rounds)
	}
}

func TestSupervisedDeadShardReaggregates(t *testing.T) {
	// Seed 3 splits the 4 crash points 3/1 across the 2 shards: with
	// MaxRestarts 1 the 3-crash shard dies on its second crash and its
	// flows re-home onto the survivor, which itself restarts once.
	sched2, err := fault.NewSchedule(fault.Profile{Seed: 3, Shards: 2, ShardCrashes: 4, Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	r := supervisedRouter(t, 2, 4, 8)
	var tr fault.Trace
	res, err := r.RunSupervised(100, sched2, RecoveryConfig{MaxRestarts: 1}, &tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, tr.String())
	}
	if len(res.DeadShards) == 0 {
		t.Fatalf("8 crash points across 2 shards with MaxRestarts 1 must kill a shard:\n%s", tr.String())
	}
	if res.ReaggregatedSlots == 0 || res.RebindEpochs == 0 {
		t.Fatalf("dead shard must re-aggregate with rebind epochs: %+v", res)
	}
	if res.Delivered+res.Dropped != res.Target {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d\n%s",
			res.Delivered, res.Dropped, res.Target, tr.String())
	}
	if !strings.Contains(tr.String(), "reaggregate -> shard=") {
		t.Fatalf("trace missing re-aggregation records:\n%s", tr.String())
	}
}

func TestSupervisedPCIFaultsRetryOrCrash(t *testing.T) {
	// Heavy stall pressure within the retry budget: the bus recovers via
	// backoff; giveups crash the pipeline and the supervisor restarts it.
	sched, err := fault.NewSchedule(fault.Profile{
		Seed: 21, Shards: 2, PCIFails: 4, BankTimeouts: 2, Horizon: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := supervisedRouter(t, 2, 4, 8)
	r.cfg.Mode = pci.ModePIO
	var tr fault.Trace
	res, err := r.RunSupervised(200, sched, RecoveryConfig{}, &tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, tr.String())
	}
	if res.Delivered+res.Dropped != res.Target {
		t.Fatalf("conservation: %+v", res)
	}
	var retries uint64
	for k := 0; k < 2; k++ {
		retries += r.Bus(k).Retries
	}
	if retries == 0 {
		t.Fatal("injected PCI failures must exercise the retry path")
	}
}

func TestSupervisedSaturationUnderRejectNew(t *testing.T) {
	sched, err := fault.NewSchedule(fault.Profile{
		Seed: 31, Shards: 2, QMSaturations: 3, SaturationBurst: 4, Horizon: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := supervisedRouter(t, 2, 4, 8)
	var tr fault.Trace
	res, err := r.RunSupervised(100, sched, RecoveryConfig{Policy: qm.RejectNew}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("forced saturation under RejectNew must shed with accounting")
	}
	if res.Delivered+res.Dropped != res.Target {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d", res.Delivered, res.Dropped, res.Target)
	}
}

func TestSupervisedValidation(t *testing.T) {
	r := supervisedRouter(t, 2, 4, 4)
	if _, err := r.RunSupervised(0, nil, RecoveryConfig{}, nil); err == nil {
		t.Fatal("0 frames accepted")
	}
	if _, err := r.RunSupervised(10, nil, RecoveryConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSupervised(10, nil, RecoveryConfig{}, nil); err == nil {
		t.Fatal("second run accepted")
	}
	empty := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4})
	if _, err := empty.RunSupervised(10, nil, RecoveryConfig{}, nil); err == nil {
		t.Fatal("no-stream run accepted")
	}
	if empty.Bus(-1) != nil || empty.Bus(5) != nil || empty.Manager(-1) != nil || empty.Manager(5) != nil {
		t.Fatal("out-of-range accessors must return nil")
	}
	if empty.Bus(0) == nil || empty.Manager(0) == nil {
		t.Fatal("in-range accessors must not return nil")
	}
}

func TestSupervisedAllShardsDead(t *testing.T) {
	// Every shard saturated with crashes and no restart budget: recovery
	// must fail with a clear error, not hang.
	sched, err := fault.NewSchedule(fault.Profile{Seed: 2, Shards: 1, ShardCrashes: 6, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, Config{Shards: 1, SlotsPerShard: 4})
	if _, err := r.AdmitBalanced(4, edfSpec(4)); err != nil {
		t.Fatal(err)
	}
	var tr fault.Trace
	_, err = r.RunSupervised(100, sched, RecoveryConfig{MaxRestarts: 1}, &tr)
	if err == nil {
		t.Fatalf("sole shard died; run must fail:\n%s", tr.String())
	}
	if !strings.Contains(err.Error(), "no surviving") {
		t.Fatalf("unexpected failure: %v", err)
	}
}

// TestSupervisedErrorIsNotCanceled: with no supervisor, one shard's bus
// giving up fails the run, and the sibling Run halts stops quietly — the
// error names the failed shard alone.
func TestSupervisedErrorIsNotCanceled(t *testing.T) {
	const frames = 100_000 // far more than shard 0 can deliver before shard 1 fails
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4, Mode: pci.ModePIO})
	if _, err := r.AdmitBalanced(8, edfSpec(4)); err != nil {
		t.Fatal(err)
	}
	r.Bus(1).Injector = giveupInjector{at: 4}
	_, err := r.Run(frames)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error = %v, want shard 1's bus giving up", err)
	}
	if strings.Contains(err.Error(), "shard 0") || strings.Contains(err.Error(), "canceled") {
		t.Fatalf("the halted sibling must add nothing: %v", err)
	}
	if got := r.shards[0].sched.Totals().Services; got >= 4*frames {
		t.Fatalf("shard 0 ran all %d frames out instead of halting", got)
	}
}

// TestSupervisedReaggregationChargesTransmissions kills a shard early in a
// long run, so the survivor's re-aggregated slots serve well over 10⁵
// decision cycles through their streamlet aggregators. An aggregator
// remembers each head it hands out until the transmission is charged; the
// scheduler loop must charge them, leaving at most each slot's one
// in-flight head outstanding.
func TestSupervisedReaggregationChargesTransmissions(t *testing.T) {
	const frames = 30_000
	sched, err := fault.NewSchedule(fault.Profile{Seed: 3, Shards: 2, ShardCrashes: 4, Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	r := supervisedRouter(t, 2, 4, 8)
	var tr fault.Trace
	res, sup, err := r.runSupervised(frames, sched, RecoveryConfig{MaxRestarts: 1}, &tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, tr.String())
	}
	if len(res.DeadShards) != 1 || res.Delivered != res.Target {
		t.Fatalf("want one dead shard and full delivery: %+v\n%s", res, tr.String())
	}
	reaggregated := 0
	for _, u := range sup {
		for slot, agg := range u.aggs {
			if agg == nil {
				continue
			}
			reaggregated++
			if agg.Served < 10_000 {
				t.Errorf("shard %d slot %d: aggregator served only %d heads", u.s.index, slot, agg.Served)
			}
			if agg.Pending() > 1 {
				t.Errorf("shard %d slot %d: %d of %d served heads still outstanding, want at most the one in flight",
					u.s.index, slot, agg.Pending(), agg.Served)
			}
		}
	}
	if reaggregated != res.ReaggregatedSlots {
		t.Fatalf("%d aggregators for %d re-aggregated slots", reaggregated, res.ReaggregatedSlots)
	}
	if d := res.Counters.Services; d < 100_000 {
		t.Fatalf("run too short to show growth: %d services", d)
	}
}
