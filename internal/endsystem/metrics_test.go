package endsystem

import (
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/shard"
)

// TestPipelineInstrumented runs the single Figure 3 pipeline (a one-shard
// balanced router, as RunShardedOpts builds it) with the scheduler's core.*
// bundle (tracer depth 256) and the Queue Manager's qm.* gauges on one
// registry, and checks the scraped view against the returned result. It runs
// under -race in CI, so it also proves the scrape path (atomic core
// counters, observer-safe backlog) does not race the pipeline goroutines.
func TestPipelineInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	const slots, frames = 8, 500
	router, err := balancedRouter(1, slots, attr.Spec{Class: attr.EDF, Period: slots}, shard.Config{Mode: pci.ModePIO})
	if err != nil {
		t.Fatal(err)
	}
	router.Manager(0).RegisterMetrics(reg, "qm")
	m, err := core.NewMetrics(reg, "core", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Instrument(0, m); err != nil {
		t.Fatal(err)
	}
	res, err := router.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != slots*frames {
		t.Fatalf("delivered %d, want %d", res.Frames, slots*frames)
	}
	snap := reg.Snapshot()
	byName := map[string]obs.MetricSnap{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if got := byName["core.transmissions"].Value; got != float64(res.Frames) {
		t.Fatalf("core.transmissions = %v, want %v", got, res.Frames)
	}
	if byName["core.decisions"].Value <= 0 {
		t.Fatal("core.decisions not recorded")
	}
	// Quiescent now: the qm gauges must be exact — every frame submitted and
	// dequeued, nothing queued.
	if got := byName["qm.submitted"].Value; got != float64(slots*frames) {
		t.Fatalf("qm.submitted = %v, want %v", got, slots*frames)
	}
	if got := byName["qm.dequeued"].Value; got != float64(slots*frames) {
		t.Fatalf("qm.dequeued = %v, want %v", got, slots*frames)
	}
	if got := byName["qm.backlog"].Value; got != 0 {
		t.Fatalf("qm.backlog = %v, want 0 after drain", got)
	}
	// The tracer kept the tail of the run.
	if len(snap.Traces) != 1 || snap.Traces[0].Recorded == 0 {
		t.Fatalf("trace snap = %+v, want a populated core.cycles trace", snap.Traces)
	}
}

// TestShardedInstrumented checks the dispatcher metrics of a balanced
// sharded run: every frame counted, imbalance exactly 1.0 under even fill.
func TestShardedInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	const shards, slotsPer, frames = 4, 4, 200
	res, err := RunShardedOpts(shards, slotsPer, frames, ShardedOptions{Mode: pci.ModeNone, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(shards * slotsPer * frames)
	if res.Frames != want {
		t.Fatalf("frames = %d, want %d", res.Frames, want)
	}
	snap := reg.Snapshot()
	byName := map[string]obs.MetricSnap{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if got := byName["shard.delivered"].Value; got != float64(want) {
		t.Fatalf("shard.delivered = %v, want %v", got, want)
	}
	for k := 0; k < shards; k++ {
		name := fmt.Sprintf("shard.shard%d.delivered", k)
		if got := byName[name].Value; got != float64(slotsPer*frames) {
			t.Fatalf("%s = %v, want %v", name, got, slotsPer*frames)
		}
	}
	if got := byName["shard.placement_imbalance"].Value; got != 1 {
		t.Fatalf("placement imbalance = %v, want 1 (balanced admission)", got)
	}
	if got := byName["shard.delivery_imbalance"].Value; got != 1 {
		t.Fatalf("delivery imbalance = %v, want 1 (even load, complete run)", got)
	}
}

// TestAllocationInstrumented attaches a registry to a Figure-8-style run and
// checks the scheduler bundle saw every transmission.
func TestAllocationInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunAllocation(AllocationConfig{
		RatesMBps:     []float64{2, 2, 4, 8},
		FramesPerSlot: 400,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("allocation run truncated")
	}
	snap := reg.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == "core.transmissions" {
			if m.Value != float64(res.Sent) {
				t.Fatalf("core.transmissions = %v, want %v", m.Value, res.Sent)
			}
			return
		}
	}
	t.Fatal("core.transmissions missing from snapshot")
}
