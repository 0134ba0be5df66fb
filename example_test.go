package sharestreams_test

import (
	"fmt"

	sharestreams "repro"
)

// The package-level example: build a block-routing scheduler, admit four
// EDF streams with staggered deadlines, run one decision cycle and read the
// sorted block transaction.
func Example() {
	sched, _ := sharestreams.NewScheduler(sharestreams.Config{
		Slots:   4,
		Routing: sharestreams.BlockRouting,
	})
	for i := 0; i < 4; i++ {
		src := &sharestreams.PeriodicTraffic{Gap: 1, Phase: uint64(i), Backlogged: true}
		_ = sched.Admit(i, sharestreams.EDFStream(1), src)
	}
	_ = sched.Start()
	cr := sched.RunCycle()
	fmt.Println("winner:", cr.Winner)
	for _, tx := range cr.Transmissions {
		fmt.Printf("rank %d: slot %d late=%v\n", tx.Rank, tx.Slot, tx.Late)
	}
	// Output:
	// winner: 0
	// rank 0: slot 0 late=false
	// rank 1: slot 1 late=false
	// rank 2: slot 2 late=false
	// rank 3: slot 3 late=false
}

// ExampleNewScheduler_winnerOnly shows the max-finding (WR) configuration:
// one frame per decision cycle, losers charged per-cycle misses when due.
func ExampleNewScheduler_winnerOnly() {
	sched, _ := sharestreams.NewScheduler(sharestreams.Config{
		Slots:   4,
		Routing: sharestreams.WinnerOnly,
	})
	for i := 0; i < 4; i++ {
		src := &sharestreams.PeriodicTraffic{Gap: 1, Phase: uint64(i), Backlogged: true}
		_ = sched.Admit(i, sharestreams.EDFStream(1), src)
	}
	_ = sched.Start()
	sched.RunFor(4000)
	tot := sched.Totals()
	fmt.Println("frames:", tot.Services)
	fmt.Println("missed > 3x frames:", tot.Missed > 3*tot.Services)
	// Output:
	// frames: 4000
	// missed > 3x frames: true
}

// ExampleWindowConstrainedStream shows a DWCS loss-tolerance spec.
func ExampleWindowConstrainedStream() {
	spec := sharestreams.WindowConstrainedStream(4, 1, 4)
	fmt.Println(spec.Class, spec.Constraint, spec.Period)
	// Output: window-constrained 1/4 4
}

// ExampleEndsystemThroughput reproduces the §5.2 operating points.
func ExampleEndsystemThroughput() {
	none, _ := sharestreams.EndsystemThroughput(sharestreams.TransferNone)
	pio, _ := sharestreams.EndsystemThroughput(sharestreams.TransferPIO)
	fmt.Printf("no transfers: %d pps\n", int(none.PacketsPerS))
	fmt.Printf("PIO:          %d pps\n", int(pio.PacketsPerS))
	// Output:
	// no transfers: 469483 pps
	// PIO:          299065 pps
}

// ExampleRunShardedOpts runs the Figure 3 pipeline — producer, per-stream
// rings, scheduler, tx ring, transmission engine — as one shard and as two
// evenly loaded shards. Modeled time is the slowest shard's, so one shard
// lands on the §5.2 operating point and two report twice it.
func ExampleRunShardedOpts() {
	for _, k := range []int{1, 2} {
		res, _ := sharestreams.RunShardedOpts(k, 4, 500,
			sharestreams.ShardedOptions{Mode: sharestreams.TransferNone})
		fmt.Printf("%d shard(s): %d frames, %d pps modeled\n", k, res.Frames, int(res.PacketsPerS))
	}
	// Output:
	// 1 shard(s): 2000 frames, 469483 pps modeled
	// 2 shard(s): 4000 frames, 938967 pps modeled
}

// ExampleAggregate binds six streamlets (two weighted sets) to one
// stream-slot.
func ExampleAggregate() {
	mk := func(n int) []sharestreams.HeadSource {
		srcs := make([]sharestreams.HeadSource, n)
		for i := range srcs {
			srcs[i] = &sharestreams.PeriodicTraffic{Gap: 1, Backlogged: true}
		}
		return srcs
	}
	set1, _ := sharestreams.NewStreamletSet(2, mk(3))
	set2, _ := sharestreams.NewStreamletSet(1, mk(3))
	agg, _ := sharestreams.Aggregate(set1, set2)
	for i := 0; i < 9; i++ {
		agg.NextHead()
	}
	s1 := set1.Streamlet(0).Served + set1.Streamlet(1).Served + set1.Streamlet(2).Served
	s2 := set2.Streamlet(0).Served + set2.Streamlet(1).Served + set2.Streamlet(2).Served
	fmt.Printf("set1:set2 = %d:%d\n", s1, s2)
	// Output: set1:set2 = 6:3
}

// ExampleEstimateArea reproduces the §5.1 area accounting.
func ExampleEstimateArea() {
	area, _ := sharestreams.EstimateArea(32, 0) // BA
	fmt.Println("slices:", area.TotalSlices())
	fmt.Println("fits Virtex-1000:", area.FitsVirtex1000())
	// Output:
	// slices: 8630
	// fits Virtex-1000: true
}
