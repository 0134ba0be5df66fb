// Command ssbench regenerates every table and figure from the paper's
// evaluation (§5) and the supporting comparisons:
//
//	ssbench table3       Table 3  — block decisions vs max-finding, then the
//	                     same overload under DWCS loss tolerances
//	ssbench fig1         Figure 1 — scheduling-rate feasibility framework
//	ssbench fig7         Figure 7 — area/clock of BA vs WR, 4–32 slots
//	ssbench fig8         Figure 8 — 1:1:2:4 fair bandwidth allocation
//	ssbench fig9         Figure 9 — queuing delay under bursty traffic
//	ssbench fig10        Figure 10 — 100 streamlets per stream-slot
//	ssbench throughput   §5.2 — line-card & endsystem vs software routers
//	ssbench latency      §4.1 — processor-resident scheduler latencies
//	ssbench ablation     §3   — shuffle vs heap/systolic/shift-register
//	ssbench extensions   §6   — microarchitectural extensions ablation
//	ssbench scale        §6   — hundreds of streams, 64 slots × 8 streamlets
//	ssbench gsr          §5.2 — 10Gbps line-card isolation vs DRR+RED classes
//	ssbench sortquality  block orderedness: log2(N) passes vs exact bitonic
//	ssbench sharded      sharded endsystem: K scheduler pipelines in parallel
//	ssbench faults       chaos sweep: fault injection vs throughput/drops
//	ssbench soak         control-plane churn soak: -events seeded admin events
//	                     twice, requiring conservation and a byte-identical
//	                     journal replay (-journal names the failure artifact)
//	ssbench crash        crash-recovery soak: one churn run, then simulated
//	                     crashes at -points journal offsets, each replayed
//	                     and resumed to the reference identity
//	ssbench all          table3 through faults above (soak and crash are
//	                     gates; run them explicitly)
//
// Flags: -csv FILE writes the active figure's series as CSV; -shards K sets
// the shard count for the sharded and faults commands (default: host
// cores); -seed N sets the faults, soak and crash commands' deterministic
// schedule seed — the same seed replays the same fault and recovery
// sequence; -events, -points and -journal size the soak and crash gates;
// -metrics ADDR serves the observability registry (JSON /metrics plus
// net/http/pprof) for the duration of the run and instruments the sharded
// command; -cpuprofile/-memprofile FILE write pprof profiles of whichever
// command ran. Performance is measured by cmd/ssspine, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/endsystem"
	"repro/internal/experiments"
	"repro/internal/fpga"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/stats"
)

func main() {
	csvPath := flag.String("csv", "", "write the figure's series to this CSV file (fig8/fig9/fig10/sharded)")
	shards := flag.Int("shards", runtime.NumCPU(), "scheduler shard count for the sharded command")
	metricsAddr := flag.String("metrics", "", "serve the obs registry and pprof on this address (e.g. :9090) for the run")
	seed := flag.Int64("seed", 1, "faults/soak/crash commands: base seed for the deterministic schedule")
	events := flag.Int("events", 1000000, "soak/crash commands: control events to churn through the live engine")
	soakJournal := flag.String("journal", "", "soak/crash commands: write the journal text here on failure (CI's artifact)")
	points := flag.Int("points", 100, "crash command: crash offsets to sample over the reference journal")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		bound, closeFn, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssbench: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ssbench: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
		defer closeFn()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ssbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(cmd, runConfig{
		csvPath:     *csvPath,
		shards:      *shards,
		reg:         reg,
		seed:        *seed,
		events:      *events,
		journalPath: *soakJournal,
		points:      *points,
	})

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "ssbench: -memprofile: %v\n", ferr)
			os.Exit(1)
		}
		runtime.GC() // materialize the live heap before snapshotting
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintf(os.Stderr, "ssbench: -memprofile: %v\n", werr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintf(os.Stderr, "ssbench %s: %v\n", cmd, err)
		pprof.StopCPUProfile() // deferred exit path: flush any open profile
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ssbench [-csv file] [-shards K] [-seed n] [-events n] [-points n] [-journal file] [-metrics addr] [-cpuprofile file] [-memprofile file] {table3|fig1|fig7|fig8|fig9|fig10|throughput|latency|ablation|extensions|scale|gsr|sortquality|sharded|faults|soak|crash|all}")
}

// runConfig carries the flag values down to the per-command drivers.
type runConfig struct {
	csvPath     string
	shards      int
	reg         *obs.Registry
	seed        int64
	events      int
	journalPath string
	points      int
}

func run(cmd string, rc runConfig) error {
	csvPath, shards := rc.csvPath, rc.shards
	switch cmd {
	case "table3":
		return table3()
	case "fig1":
		return fig1()
	case "fig7":
		return fig7(csvPath)
	case "fig8":
		return fig8(csvPath)
	case "fig9":
		return fig9(csvPath)
	case "fig10":
		return fig10(csvPath)
	case "throughput":
		return throughput()
	case "latency":
		return latency()
	case "ablation":
		return ablation()
	case "extensions":
		return extensions()
	case "scale":
		return scale()
	case "gsr":
		return gsr()
	case "sortquality":
		return sortQuality()
	case "sharded":
		return sharded(csvPath, shards, rc.reg)
	case "faults":
		return faults(csvPath, shards, rc.seed)
	case "soak":
		return soakCmd(rc)
	case "crash":
		return crashCmd(rc)
	case "all":
		for _, c := range []string{"table3", "fig1", "fig7", "fig8", "fig9", "fig10", "throughput", "latency", "ablation", "extensions", "scale", "gsr", "sortquality", "sharded", "faults"} {
			fmt.Printf("════ %s ════\n", c)
			sub := rc
			sub.csvPath = ""
			if err := run(c, sub); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func table3() error {
	fmt.Println("Table 3 — Comparing Block Decisions and Max-finding")
	fmt.Println("(4 EDF streams, deadlines 1 apart, requested every cycle, 64000 frames)")
	res, err := experiments.Table3(experiments.DefaultTable3())
	if err != nil {
		return err
	}
	fmt.Print(res.Format())

	// The same overload under DWCS loss tolerances: a stream may lose 3 of
	// any 4 consecutive frames, which makes the 4× overload exactly
	// feasible, so its misses become tolerated drops.
	rows, err := experiments.Table3WindowConstrained(experiments.DefaultTable3(), 3, 4)
	if err != nil {
		return err
	}
	fmt.Println("\nTable 3 under DWCS tolerances — the same overload, W = 3/4 (feasible: Σ(1−W)/T = 1)")
	fmt.Printf("%-8s %10s %10s %12s\n", "Stream", "Wins", "Missed", "Violations")
	for _, r := range rows {
		fmt.Printf("Stream %-2d %10d %10d %12d\n", r.Stream, r.Wins, r.Missed, r.Violations)
	}
	return nil
}

func fig1() error {
	fmt.Println("Figure 1 — ShareStreams architectural-solutions framework")
	rows, err := experiments.Fig1(nil, nil, nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig1(rows))
	return nil
}

func fig7(csvPath string) error {
	fmt.Println("Figure 7 — Area/clock-rate characteristics (Virtex-I)")
	rows, err := experiments.Fig7(nil, fpga.VirtexI)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig7(rows))
	if csvPath != "" {
		series := make([][]stats.Point, 4)
		labels := []string{"BA_slices", "BA_MHz", "WR_slices", "WR_MHz"}
		for _, r := range rows {
			base := 0
			if r.Routing == fpga.WR {
				base = 2
			}
			series[base] = append(series[base], stats.Point{X: float64(r.Slots), Y: float64(r.Slices)})
			series[base+1] = append(series[base+1], stats.Point{X: float64(r.Slots), Y: r.ClockMHz})
		}
		if err := writeCSV(csvPath, "slots", labels, series, 1); err != nil {
			return err
		}
	}
	fmt.Println("\nVirtex-II extension (§6, hard multipliers):")
	rows2, err := experiments.Fig7(nil, fpga.VirtexII)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig7(rows2))
	return nil
}

func fig8(csvPath string) error {
	fmt.Println("Figure 8 — Fair bandwidth allocation 1:1:2:4 (2/2/4/8 MB/s)")
	res, err := experiments.Fig8(experiments.Fig8Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if csvPath != "" {
		return writeCSV(csvPath, "time_s",
			[]string{"stream1_MBps", "stream2_MBps", "stream3_MBps", "stream4_MBps"},
			res.Bandwidth, 1)
	}
	return nil
}

func fig9(csvPath string) error {
	fmt.Println("Figure 9 — Queuing delay under bursty traffic (zig-zag)")
	res, err := experiments.Fig9(experiments.Fig9Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if csvPath != "" {
		return writeCSV(csvPath, "packet",
			[]string{"stream1_ms", "stream2_ms", "stream3_ms", "stream4_ms"},
			res.Delays, 64)
	}
	return nil
}

func fig10(csvPath string) error {
	fmt.Println("Figure 10 — Aggregation of 100 streamlets into a stream-slot")
	res, err := experiments.Fig10(experiments.Fig10Config{})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if csvPath != "" {
		// Streamlet means as single-point series.
		var series [][]stats.Point
		var labels []string
		for i, sets := range res.StreamletMBps {
			for s, v := range sets {
				labels = append(labels, fmt.Sprintf("slot%d_set%d_MBps", i+1, s+1))
				series = append(series, []stats.Point{{X: 0, Y: v}})
			}
		}
		return writeCSV(csvPath, "x", labels, series, 1)
	}
	return nil
}

func throughput() error {
	fmt.Println("§5.2 — Performance comparison")
	rows, err := experiments.Sec52()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatThroughput(rows))
	fmt.Println("\nLine-card scaling:")
	lc, err := experiments.LineCardRates()
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatThroughput(lc))
	return nil
}

func latency() error {
	fmt.Println("§4.1 — Processor-resident scheduler latencies")
	rows, err := experiments.Sec41(32, 20000)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatLatency(rows))
	return nil
}

func ablation() error {
	fmt.Println("§3 — Queuing/scheduling architecture comparison")
	rows, err := experiments.Ablation(nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation(rows))
	return nil
}

func extensions() error {
	fmt.Println("§6 — Microarchitectural extensions ablation (BA configuration)")
	rows, err := experiments.Extensions(nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatExtensions(rows))
	return nil
}

func sortQuality() error {
	fmt.Println("Block orderedness: the paper's log2(N) passes vs the exact bitonic schedule")
	rows, err := experiments.SortQuality(nil, 5000, 1)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatSortQuality(rows))
	fmt.Println("(the head and tail of the block — the circulation targets — are always exact)")
	return nil
}

func gsr() error {
	fmt.Println("§5.2 — 10Gbps line-card isolation (per-flow vs 8-queue DRR+RED vs 4-class)")
	rows, err := experiments.GSRComparison(50000)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatGSR(rows))
	return nil
}

func scale() error {
	fmt.Println("§6 — Hundreds of streams (64 slots × 8 streamlets)")
	res, err := experiments.Scale(64, 8, 64000)
	if err != nil {
		return err
	}
	fmt.Printf("streams: %d across %d stream-slots; %d decision cycles, %d services, win fairness (max/min) %.3f\n",
		res.AggregatedStreams, res.DirectSlots, res.Cycles, res.Services, res.PerSlotFairness)
	return nil
}

func sharded(csvPath string, shards int, reg *obs.Registry) error {
	if shards < 1 {
		return fmt.Errorf("-shards %d", shards)
	}
	const (
		slotsPerShard   = 4
		framesPerStream = 5000
	)
	fmt.Printf("Sharded endsystem — %d scheduler pipelines × %d streams, %d frames/stream, PIO batching\n",
		shards, slotsPerShard, framesPerStream)
	res, err := endsystem.RunShardedOpts(shards, slotsPerShard, framesPerStream,
		endsystem.ShardedOptions{Mode: pci.ModePIO, Registry: reg})
	if err != nil {
		return err
	}
	fmt.Println("shard  streams  frames    decisions  transfer_ms  virtual_ms")
	for _, sr := range res.PerShard {
		fmt.Printf("%5d  %7d  %8d  %9d  %11.2f  %10.2f\n",
			sr.Shard, sr.Streams, sr.Frames, sr.Decisions, sr.TransferNs/1e6, sr.VirtualNs/1e6)
	}
	fmt.Printf("aggregate: %d frames, counters %+v\n", res.Frames, res.Counters)
	fmt.Printf("modeled:    %10.0f packets/s (completion = max over shards, §5.2-comparable)\n", res.PacketsPerS)
	// Host-timed numbers go to stderr so stdout is a function of the code
	// alone; the CSV keeps both series.
	fmt.Fprintf(os.Stderr, "wall-clock: %10.0f packets/s (simulation itself, %.1f ms on %d cores)\n",
		res.WallPacketsPerS, res.WallNs/1e6, runtime.NumCPU())

	fmt.Println("\nScaling sweep (ModeNone):")
	fmt.Println("shards  modeled_pps")
	var modeled, wall []stats.Point
	for k := 1; k <= shards; k *= 2 {
		r, err := endsystem.RunShardedOpts(k, slotsPerShard, framesPerStream,
			endsystem.ShardedOptions{Mode: pci.ModeNone})
		if err != nil {
			return err
		}
		fmt.Printf("%6d  %11.0f\n", k, r.PacketsPerS)
		fmt.Fprintf(os.Stderr, "shards=%d wall_pps=%.0f\n", k, r.WallPacketsPerS)
		modeled = append(modeled, stats.Point{X: float64(k), Y: r.PacketsPerS})
		wall = append(wall, stats.Point{X: float64(k), Y: r.WallPacketsPerS})
	}
	if csvPath != "" {
		return writeCSV(csvPath, "shards",
			[]string{"modeled_pps", "wall_pps"},
			[][]stats.Point{modeled, wall}, 1)
	}
	return nil
}

func writeCSV(path, xLabel string, labels []string, series [][]stats.Point, downsample int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds := make([][]stats.Point, len(series))
	for i, s := range series {
		ds[i] = stats.Downsample(s, downsample)
	}
	if err := stats.WriteCSV(f, xLabel, labels, ds); err != nil {
		return err
	}
	fmt.Printf("(series written to %s)\n", path)
	return nil
}
