package endsystem

import (
	"math"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/pci"
	"repro/internal/regblock"
	"repro/internal/shard"
)

func TestOperatingPoints(t *testing.T) {
	// §5.2: 469,483 pps excluding transfers; 299,065 pps with PIO.
	none, err := Throughput(pci.ModeNone)
	if err != nil {
		t.Fatal(err)
	}
	if int(none.PacketsPerS) != 469483 {
		t.Errorf("no-transfer rate = %d pps, want 469483", int(none.PacketsPerS))
	}
	pio, err := Throughput(pci.ModePIO)
	if err != nil {
		t.Fatal(err)
	}
	if int(pio.PacketsPerS) != 299065 {
		t.Errorf("PIO rate = %d pps, want 299065", int(pio.PacketsPerS))
	}
	dma, err := Throughput(pci.ModeDMA)
	if err != nil {
		t.Fatal(err)
	}
	if dma.PacketsPerS <= pio.PacketsPerS || dma.PacketsPerS >= none.PacketsPerS {
		t.Errorf("DMA rate %v should sit between PIO %v and no-transfer %v",
			dma.PacketsPerS, pio.PacketsPerS, none.PacketsPerS)
	}
}

// onePipeline runs the single Figure 3 pipeline — the one-shard case of
// RunShardedOpts, built the same way (balancedRouter, stream i in slot i) —
// and returns the router too, so tests can read the metered bus.
func onePipeline(t *testing.T, slots, framesPerStream int, mode pci.Mode) (*shard.Result, *shard.Router) {
	t.Helper()
	router, err := balancedRouter(1, slots, attr.Spec{Class: attr.EDF, Period: uint16(slots)}, shard.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.Run(framesPerStream)
	if err != nil {
		t.Fatal(err)
	}
	return res, router
}

func TestRunPipelineConservesFrames(t *testing.T) {
	res, err := RunShardedOpts(1, 4, 2000, ShardedOptions{Mode: pci.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 8000 {
		t.Fatalf("delivered %d frames, want 8000", res.Frames)
	}
	for i, n := range res.PerShard[0].PerSlot {
		if n != 2000 {
			t.Errorf("stream %d delivered %d, want 2000", i, n)
		}
	}
	if res.PacketsPerS <= 0 || res.VirtualNs <= 0 {
		t.Fatalf("degenerate timing: %+v", res)
	}
	if math.Abs(res.VirtualNs-8000*HostCostNs) > 1e-6 {
		t.Errorf("virtual time = %v, want %v", res.VirtualNs, 8000*HostCostNs)
	}
}

func TestRunPipelineValidation(t *testing.T) {
	if _, err := RunShardedOpts(1, 1, 10, ShardedOptions{}); err == nil {
		t.Error("accepted 1 slot")
	}
	if _, err := RunShardedOpts(1, 4, 0, ShardedOptions{}); err == nil {
		t.Error("accepted 0 frames")
	}
}

func TestRunAllocationRatios(t *testing.T) {
	// The Figure 8 scenario scaled down: 1:1:2:4 over 16 MB/s.
	res, err := RunAllocation(AllocationConfig{
		RatesMBps:     []float64{2, 2, 4, 8},
		FramesPerSlot: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equal per-queue frame budgets mean the high-rate streams finish
	// first, so the allocation shows while all streams are active: average
	// the first fifth of the windows.
	want := []float64{2, 2, 4, 8}
	for i, w := range want {
		pts := res.TE.Bandwidth(i)
		n := len(pts) / 5
		if n == 0 {
			t.Fatalf("slot %d: only %d windows", i, len(pts))
		}
		var got float64
		for _, p := range pts[:n] {
			got += p.Y
		}
		got /= float64(n)
		if math.Abs(got-w)/w > 0.1 {
			t.Errorf("slot %d bandwidth = %.2f MB/s, want ≈%.1f", i, got, w)
		}
	}
	// The link runs at essentially full utilization under backlog.
	horizon := float64(res.Cycles) * res.CycleNs
	if u := res.TE.Link().Utilization(horizon); u < 0.9 {
		t.Errorf("link utilization = %.2f, want ≈1 under backlog", u)
	}
}

func TestRunAllocationValidation(t *testing.T) {
	if _, err := RunAllocation(AllocationConfig{RatesMBps: []float64{1}}); err == nil {
		t.Error("accepted a single slot")
	}
	if _, err := RunAllocation(AllocationConfig{RatesMBps: []float64{1, -1}}); err == nil {
		t.Error("accepted a negative rate")
	}
	if _, err := RunAllocation(AllocationConfig{RatesMBps: []float64{3, 7}}); err == nil {
		t.Error("accepted a non-integer period ratio")
	}
}

func TestRunAllocationBurstyDelaysRampAndReset(t *testing.T) {
	res, err := RunAllocation(AllocationConfig{
		RatesMBps:        []float64{2, 2, 4, 8},
		FramesPerSlot:    3000,
		Bursty:           true,
		BurstFrames:      1000,
		InterBurstCycles: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0 (lowest share, overdriven during bursts) must show a
	// sawtooth: a peak well above its trough.
	d0 := res.TE.Delays(0)
	if len(d0) < 2000 {
		t.Fatalf("stream 0 delay points = %d", len(d0))
	}
	var peak float64
	for _, p := range d0 {
		if p.Y > peak {
			peak = p.Y
		}
	}
	mean0, _ := res.TE.DelayStats(0)
	if peak < 2*mean0 {
		t.Errorf("stream 0 delay peak %.2f ms vs mean %.2f ms — no zig-zag", peak, mean0)
	}
	// Stream 4 (highest share, rate-matched) shows the lowest delay, as
	// in Figure 9.
	mean3, _ := res.TE.DelayStats(3)
	if mean3 >= mean0 {
		t.Errorf("stream 4 mean delay %.2f ms not below stream 1's %.2f ms", mean3, mean0)
	}
}

func TestRunAllocationObserver(t *testing.T) {
	seen := make(map[int]int)
	var lastNs float64
	_, err := RunAllocation(AllocationConfig{
		RatesMBps:     []float64{1, 1},
		FramesPerSlot: 100,
		Observer: func(slot int, tx core.Transmission, endNs float64) {
			seen[slot]++
			if endNs < lastNs {
				t.Errorf("completions went backwards: %v after %v", endNs, lastNs)
			}
			lastNs = endNs
			if int(tx.Slot) != slot {
				t.Errorf("observer slot %d vs tx slot %d", slot, tx.Slot)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen[0] != 100 || seen[1] != 100 {
		t.Fatalf("observer saw %v, want 100 per slot", seen)
	}
}

func TestRunPipelineMeteredPIOMatchesAnalytic(t *testing.T) {
	// 4 streams x 1600 frames = 6400 = 200 exact batches of 32: the
	// metered bus must land exactly on the calibrated §5.2 operating
	// point.
	res, router := onePipeline(t, 4, 1600, pci.ModePIO)
	if res.Frames != 6400 {
		t.Fatalf("delivered %d frames, want 6400", res.Frames)
	}
	bus := router.Bus(0)
	if bus.Batches != 400 { // 200 pushes + 200 reads
		t.Fatalf("bus batches = %d, want 400", bus.Batches)
	}
	if bus.BankSwitches != 800 {
		t.Fatalf("bank switches = %d, want 800", bus.BankSwitches)
	}
	if int(res.PacketsPerS) != 299065 {
		t.Fatalf("metered rate = %d pps, want 299065", int(res.PacketsPerS))
	}
	wantTransfer := 1213.75 * 6400
	if got := res.PerShard[0].TransferNs; math.Abs(got-wantTransfer) > 1 {
		t.Fatalf("metered transfer = %v ns, want %v", got, wantTransfer)
	}
}

func TestRunPipelineDMABetweenPIOAndNone(t *testing.T) {
	pio, _ := onePipeline(t, 4, 800, pci.ModePIO)
	dma, _ := onePipeline(t, 4, 800, pci.ModeDMA)
	none, router := onePipeline(t, 4, 800, pci.ModeNone)
	if !(pio.PacketsPerS < dma.PacketsPerS && dma.PacketsPerS < none.PacketsPerS) {
		t.Fatalf("ordering: pio %v dma %v none %v", pio.PacketsPerS, dma.PacketsPerS, none.PacketsPerS)
	}
	if none.PerShard[0].TransferNs != 0 || router.Bus(0).Batches != 0 {
		t.Fatalf("ModeNone metered transfers: %v ns over %d batches",
			none.PerShard[0].TransferNs, router.Bus(0).Batches)
	}
}

// trickle releases one head every gap decision cycles, forever — slow
// enough that an allocation run never completes, frequent enough that the
// idle-streak exhaustion exit never fires. It drives RunAllocation into its
// runaway-cycle guard.
type trickle struct {
	gap      uint64
	now      uint64
	released uint64
}

func (s *trickle) Advance(now uint64) { s.now = now }

func (s *trickle) NextHead() (regblock.Head, bool) {
	due := s.released * s.gap
	if s.now < due {
		return regblock.Head{}, false
	}
	s.released++
	return regblock.Head{Arrival: due}, true
}

func TestRunAllocationSurfacesTruncation(t *testing.T) {
	res, err := RunAllocation(AllocationConfig{
		RatesMBps:     []float64{8, 8},
		FramesPerSlot: 100,
		Sources:       []regblock.HeadSource{&trickle{gap: 600}, &trickle{gap: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("truncated run not flagged: sent %d of %d in %d cycles",
			res.Sent, res.Expected, res.Cycles)
	}
	if res.Expected != 200 {
		t.Fatalf("Expected = %d, want 200", res.Expected)
	}
	if res.Sent >= res.Expected {
		t.Fatalf("guard should have tripped with frames outstanding: sent %d of %d",
			res.Sent, res.Expected)
	}
}

func TestRunAllocationCompletenessAccounting(t *testing.T) {
	res, err := RunAllocation(AllocationConfig{
		RatesMBps:     []float64{2, 2, 4, 8},
		FramesPerSlot: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("complete run flagged truncated: %d of %d", res.Sent, res.Expected)
	}
	if res.Sent != res.Expected || res.Expected != 4000 {
		t.Fatalf("sent %d of expected %d, want 4000/4000", res.Sent, res.Expected)
	}
}

func TestRunShardedReproducesOperatingPoint(t *testing.T) {
	// One shard must land exactly on the §5.2 ModeNone operating point.
	res1, err := RunShardedOpts(1, 4, 500, ShardedOptions{Mode: pci.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e9 / HostCostNs // 469,483 pps
	if math.Abs(res1.PacketsPerS-want) > 1 {
		t.Fatalf("1-shard pps = %v, want ≈%v", res1.PacketsPerS, want)
	}
	if res1.Frames != 4*500 {
		t.Fatalf("1-shard delivered %d frames, want %d", res1.Frames, 4*500)
	}

	// K evenly loaded shards complete in the same modeled time, so the
	// aggregate modeled throughput is K× the single-pipeline rate.
	res4, err := RunShardedOpts(4, 4, 500, ShardedOptions{Mode: pci.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res4.PacketsPerS-4*want) > 4 {
		t.Fatalf("4-shard pps = %v, want ≈%v", res4.PacketsPerS, 4*want)
	}
	if res4.VirtualNs != res1.VirtualNs {
		t.Fatalf("evenly loaded shards changed modeled completion: %v vs %v",
			res4.VirtualNs, res1.VirtualNs)
	}
}

func TestRunShardedPIOSlowerThanModeNone(t *testing.T) {
	none, err := RunShardedOpts(2, 4, 320, ShardedOptions{Mode: pci.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	pio, err := RunShardedOpts(2, 4, 320, ShardedOptions{Mode: pci.ModePIO})
	if err != nil {
		t.Fatal(err)
	}
	if pio.PacketsPerS >= none.PacketsPerS {
		t.Fatalf("PIO (%v pps) not slower than ModeNone (%v pps)",
			pio.PacketsPerS, none.PacketsPerS)
	}
}
