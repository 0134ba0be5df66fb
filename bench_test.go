package sharestreams

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (§5), plus the §3/§4 supporting comparisons. Each benchmark
// regenerates its table/figure from scratch and reports the headline
// quantities as custom metrics so `go test -bench=.` reproduces the
// paper's rows; EXPERIMENTS.md records paper-vs-measured.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fpga"
)

// BenchmarkTable3_MaxFinding regenerates Table 3's max-finding (winner-only
// routing) column: 4 EDF streams, deadlines one unit apart, requested every
// cycle, 64000 frames in 64000 decision cycles, ≈255,950/256,000 deadlines
// missed.
func BenchmarkTable3_MaxFinding(b *testing.B) {
	var missed, cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.DefaultTable3())
		if err != nil {
			b.Fatal(err)
		}
		missed, cycles = 0, res.TotalCyclesMax
		for _, row := range res.Rows {
			missed += row.MissedMax
		}
	}
	b.ReportMetric(float64(missed), "missed")
	b.ReportMetric(float64(cycles), "decision-cycles")
}

// BenchmarkTable3_BlockMaxFirst regenerates Table 3's block (max-first)
// column: 64000 frames in 16000 decision cycles, zero missed deadlines.
func BenchmarkTable3_BlockMaxFirst(b *testing.B) {
	var missed, cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.DefaultTable3())
		if err != nil {
			b.Fatal(err)
		}
		missed, cycles = 0, res.TotalCyclesBlock
		for _, row := range res.Rows {
			missed += row.MissedMaxFirst
		}
	}
	b.ReportMetric(float64(missed), "missed")
	b.ReportMetric(float64(cycles), "decision-cycles")
}

// BenchmarkTable3_BlockMinFirst regenerates Table 3's min-first column:
// circulating (and transmitting from) the block tail violates the
// earliest-deadline stream every cycle.
func BenchmarkTable3_BlockMinFirst(b *testing.B) {
	var missed uint64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.DefaultTable3())
		if err != nil {
			b.Fatal(err)
		}
		missed = 0
		for _, row := range res.Rows {
			missed += row.MissedMinFirst
		}
	}
	b.ReportMetric(float64(missed), "missed")
}

// BenchmarkFig7_AreaClock regenerates Figure 7: area and clock rate of the
// BA and WR configurations from 4 to 32 stream-slots on the Virtex-I.
func BenchmarkFig7_AreaClock(b *testing.B) {
	var ba32Slices int
	var ba32Clock float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(nil, fpga.VirtexI)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Slots == 32 && r.Routing == fpga.BA {
				ba32Slices, ba32Clock = r.Slices, r.ClockMHz
			}
		}
	}
	b.ReportMetric(float64(ba32Slices), "BA32-slices")
	b.ReportMetric(ba32Clock, "BA32-MHz")
}

// BenchmarkFig8_FairBandwidth regenerates Figure 8: four streams allocated
// 1:1:2:4 (2/2/4/8 MB/s), 64000 frames per queue.
func BenchmarkFig8_FairBandwidth(b *testing.B) {
	var mean [4]float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Config{})
		if err != nil {
			b.Fatal(err)
		}
		copy(mean[:], res.MeanActive)
	}
	for i, m := range mean {
		b.ReportMetric(m, []string{"s1-MBps", "s2-MBps", "s3-MBps", "s4-MBps"}[i])
	}
}

// BenchmarkFig9_QueuingDelay regenerates Figure 9: the Figure 8 workload
// under the bursty generator; delay zig-zags and stream 4 sees the least.
func BenchmarkFig9_QueuingDelay(b *testing.B) {
	var mean1, peak1, mean4 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Config{})
		if err != nil {
			b.Fatal(err)
		}
		mean1, peak1, mean4 = res.Mean[0], res.Peak[0], res.Mean[3]
	}
	b.ReportMetric(mean1, "s1-mean-ms")
	b.ReportMetric(peak1, "s1-peak-ms")
	b.ReportMetric(mean4, "s4-mean-ms")
}

// BenchmarkFig10_Aggregation regenerates Figure 10: 100 streamlets per
// stream-slot at 2/2/4/8 MB/s, slot 4 carrying two sets at 2:1.
func BenchmarkFig10_Aggregation(b *testing.B) {
	var sl1, set1, set2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(experiments.Fig10Config{})
		if err != nil {
			b.Fatal(err)
		}
		sl1 = res.StreamletMBps[0][0]
		set1, set2 = res.StreamletMBps[3][0], res.StreamletMBps[3][1]
	}
	b.ReportMetric(sl1, "slot1-streamlet-MBps")
	b.ReportMetric(set1, "slot4-set1-MBps")
	b.ReportMetric(set2, "slot4-set2-MBps")
}

// BenchmarkSec52_Throughput regenerates the §5.2 comparison: line-card
// 7.6 M pps, endsystem 469,483 pps, endsystem+PIO 299,065 pps.
func BenchmarkSec52_Throughput(b *testing.B) {
	var lineCard, none, pio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec52()
		if err != nil {
			b.Fatal(err)
		}
		lineCard, none, pio = rows[0].PacketsPerS, rows[1].PacketsPerS, rows[2].PacketsPerS
	}
	b.ReportMetric(lineCard, "linecard-pps")
	b.ReportMetric(none, "endsystem-pps")
	b.ReportMetric(pio, "endsystem-pio-pps")
}

// BenchmarkSec52_Pipeline drives the functional endsystem pipeline
// (producer → rings → scheduler → tx ring → engine) end to end: the
// one-shard sharded endsystem.
func BenchmarkSec52_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunShardedOpts(1, 4, 8000, ShardedOptions{Mode: TransferPIO})
		if err != nil {
			b.Fatal(err)
		}
		if res.Frames != 32000 {
			b.Fatalf("frames = %d", res.Frames)
		}
	}
}

// BenchmarkSec41_SoftwareSchedulers regenerates the §4.1 comparison:
// processor-resident scheduler decision latencies against packet-time
// budgets.
func BenchmarkSec41_SoftwareSchedulers(b *testing.B) {
	var dwcsNs float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec41(32, 5000)
		if err != nil {
			b.Fatal(err)
		}
		dwcsNs = rows[0].PerDecisionNs
	}
	b.ReportMetric(dwcsNs, "dwcs-ns/decision")
}

// BenchmarkAblation_PriorityQueues regenerates the §3 architecture
// comparison: comparator replication and per-decision cycles of the
// recirculating shuffle vs heap/systolic/shift-register structures, with
// and without per-cycle priority updates.
func BenchmarkAblation_PriorityQueues(b *testing.B) {
	var shuffleWin, chainWin float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation([]int{32})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Architecture {
			case "recirculating-shuffle":
				shuffleWin = float64(r.CyclesWindow)
			case "shift-register-chain":
				chainWin = float64(r.CyclesWindow)
			}
		}
	}
	b.ReportMetric(shuffleWin, "shuffle-cycles")
	b.ReportMetric(chainWin, "chain-cycles")
}

// BenchmarkFig1_Framework regenerates Figure 1's scheduling-rate
// feasibility sweep.
func BenchmarkFig1_Framework(b *testing.B) {
	var feasible int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		feasible = 0
		for _, r := range rows {
			if r.MeetsBA {
				feasible++
			}
		}
	}
	b.ReportMetric(float64(feasible), "BA-feasible-points")
}

// BenchmarkSec52_LineCardIsolation regenerates the 10 Gbps line-card
// contrast: per-flow queuing (ShareStreams, 32 queues) vs the GSR's 8
// DRR+RED queues vs Teracross's 4 service classes, under a misbehaving
// flow.
func BenchmarkSec52_LineCardIsolation(b *testing.B) {
	var ssLoss, gsrLoss float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GSRComparison(20000)
		if err != nil {
			b.Fatal(err)
		}
		ssLoss, gsrLoss = rows[0].VictimLossPct, rows[1].VictimLossPct
	}
	b.ReportMetric(ssLoss, "sharestreams-victim-loss-%")
	b.ReportMetric(gsrLoss, "gsr-victim-loss-%")
}

// BenchmarkExtensions_ComputeAhead regenerates the §6 extensions ablation:
// compute-ahead Register Base blocks, Virtex-II hard multipliers, exact
// block sorting.
func BenchmarkExtensions_ComputeAhead(b *testing.B) {
	var base, ahead float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extensions([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Label {
			case "baseline (Virtex-I)":
				base = r.DecisionsPerS
			case "compute-ahead":
				ahead = r.DecisionsPerS
			}
		}
	}
	b.ReportMetric(base/1e6, "baseline-Mdec/s")
	b.ReportMetric(ahead/1e6, "computeahead-Mdec/s")
}

// BenchmarkScale_HundredsOfStreams runs the §6 scale demonstration: 512
// streams (64 slots × 8 streamlets) through the cycle-accurate model.
func BenchmarkScale_HundredsOfStreams(b *testing.B) {
	var fairness float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scale(64, 8, 32000)
		if err != nil {
			b.Fatal(err)
		}
		fairness = res.PerSlotFairness
	}
	b.ReportMetric(512, "streams")
	b.ReportMetric(fairness, "win-fairness")
}

// BenchmarkTable3_Sweep runs the Table 3 comparison at larger slot counts
// (the "extension of results" direction: the block advantage scales with
// the block size).
func BenchmarkTable3_Sweep(b *testing.B) {
	for _, streams := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("N%d", streams), func(b *testing.B) {
			var blockCycles, maxCycles uint64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Table3(experiments.Table3Config{Streams: streams, Frames: 32000})
				if err != nil {
					b.Fatal(err)
				}
				blockCycles, maxCycles = res.TotalCyclesBlock, res.TotalCyclesMax
				var missed uint64
				for _, row := range res.Rows {
					missed += row.MissedMaxFirst
				}
				if missed != 0 {
					b.Fatalf("N=%d block max-first missed %d", streams, missed)
				}
			}
			b.ReportMetric(float64(maxCycles)/float64(blockCycles), "speedup")
		})
	}
}

// BenchmarkShardedThroughput measures the sharded endsystem's aggregate
// decision rate as the shard count grows, holding total streams fixed (16
// streams spread over k pipelines). Wall-clock decisions/s should scale
// roughly monotonically 1 → NumCPU shards on a multi-core runner; on a
// single core the shards time-slice and the curve flattens.
func BenchmarkShardedThroughput(b *testing.B) {
	const (
		totalStreams    = 16
		framesPerStream = 2000
	)
	for _, k := range []int{1, 2, 4, 8} {
		slotsPerShard := totalStreams / k
		b.Run(fmt.Sprintf("shards%d", k), func(b *testing.B) {
			var modeled, wall float64
			for i := 0; i < b.N; i++ {
				res, err := RunShardedOpts(k, slotsPerShard, framesPerStream, ShardedOptions{Mode: TransferNone})
				if err != nil {
					b.Fatal(err)
				}
				if res.Frames != totalStreams*framesPerStream {
					b.Fatalf("frames = %d", res.Frames)
				}
				modeled, wall = res.PacketsPerS, res.WallPacketsPerS
			}
			b.ReportMetric(modeled, "modeled-pps")
			b.ReportMetric(wall, "decisions/s")
		})
	}
}

// BenchmarkDecisionCycle measures the simulator's own hot path: one full
// decision cycle of the hardware model.
func BenchmarkDecisionCycle(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"WR4", Config{Slots: 4, Routing: WinnerOnly}},
		{"BA4", Config{Slots: 4, Routing: BlockRouting}},
		{"WR32", Config{Slots: 32, Routing: WinnerOnly}},
		{"BA32", Config{Slots: 32, Routing: BlockRouting}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sched, err := NewScheduler(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < c.cfg.Slots; i++ {
				src := &PeriodicTraffic{Gap: 1, Phase: uint64(i), Backlogged: true}
				if err := sched.Admit(i, EDFStream(1), src); err != nil {
					b.Fatal(err)
				}
			}
			if err := sched.Start(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.RunCycle()
			}
		})
	}
}
