package shard

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
)

func supervisedRouter(t *testing.T, shards, slots, streams int) *Router {
	t.Helper()
	r := mustRouter(t, Config{Shards: shards, SlotsPerShard: slots})
	if _, err := r.AdmitBalanced(streams, edfSpec(slots)); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSupervisedNoFaultsMatchesPlainRun: a fault-free supervised run is the
// plain run — one round, no recovery actions, an empty trace — and it meters
// the trailing partial PCI batch, so modeled time is host cost plus every
// batch. 201 frames × 4 streams per shard is not a multiple of
// TransferBatch.
func TestSupervisedNoFaultsMatchesPlainRun(t *testing.T) {
	for _, tc := range []struct {
		mode   pci.Mode
		frames int
	}{
		{pci.ModeNone, 200},
		{pci.ModePIO, 201},
		{pci.ModeDMA, 201},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4, Mode: tc.mode})
			if _, err := r.AdmitBalanced(8, edfSpec(4)); err != nil {
				t.Fatal(err)
			}
			var tr fault.Trace
			res, err := r.RunSupervised(tc.frames, nil, RecoveryConfig{}, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Frames != res.Target || res.Target != uint64(8*tc.frames) {
				t.Fatalf("delivered %d of target %d, want %d", res.Frames, res.Target, 8*tc.frames)
			}
			if res.Rounds != 1 || res.Restarts != 0 || len(res.DeadShards) != 0 || res.Dropped != 0 {
				t.Fatalf("fault-free run took recovery actions: %+v", res)
			}
			if tr.Len() != 0 {
				t.Fatalf("fault-free run wrote a trace:\n%s", tr.String())
			}
			full := uint64(4 * tc.frames / 32) // full PCI batches per shard
			for k, sr := range res.PerShard {
				bus := r.Bus(k)
				if host := float64(sr.Frames) * DefaultHostNs; sr.VirtualNs != host+bus.BusyNs {
					t.Fatalf("shard %d modeled %v ns, want host %v + bus %v", k, sr.VirtualNs, host, bus.BusyNs)
				}
				// Each metered batch is two bus transfers: arrival times
				// in, stream IDs back.
				if tc.mode != pci.ModeNone && bus.Batches != 2*(full+1) {
					t.Fatalf("shard %d made %d bus transfers, want 2×(%d full batches + the trailing partial one)",
						k, bus.Batches, full)
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
	if res.Frames != res.Target || res.Dropped != 0 {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d", res.Frames, res.Dropped, res.Target)
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
	if res.Frames+res.Dropped != res.Target {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d\n%s",
			res.Frames, res.Dropped, res.Target, tr.String())
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
	if res.Frames+res.Dropped != res.Target {
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
	if res.Frames+res.Dropped != res.Target {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d", res.Frames, res.Dropped, res.Target)
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
	if len(res.DeadShards) != 1 || res.Frames != res.Target {
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
