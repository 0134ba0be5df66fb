// Command sssim runs a one-shot ShareStreams scheduler simulation with a
// configurable design point and workload, printing per-slot counters and
// rate estimates. It is the exploration companion to ssbench's fixed
// paper reproductions.
//
//	sssim -slots 8 -routing ba -circulate max -cycles 100000
//	sssim -slots 4 -routing wr -mix -cycles 50000
//	sssim -slots 32 -exact -trace 20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/obs"
	"repro/internal/traffic"
)

func main() {
	var (
		slots     = flag.Int("slots", 4, "stream-slot count (power of two, 2..1024)")
		routing   = flag.String("routing", "wr", "routing: wr (winner-only/max-finding) or ba (block)")
		circulate = flag.String("circulate", "max", "block circulation: max (max-first) or min (min-first)")
		exact     = flag.Bool("exact", false, "use the exact bitonic sort schedule (BA extension)")
		ahead     = flag.Bool("computeahead", false, "enable compute-ahead Register Base blocks (§6)")
		cycles    = flag.Int("cycles", 10000, "decision cycles to run")
		mix       = flag.Bool("mix", false, "admit a mixed workload (EDF + window-constrained + static + fair) instead of all-EDF")
		device    = flag.String("device", "v1", "clock model device: v1 (Virtex-I) or v2 (Virtex-II)")
		trace     = flag.Int("trace", 0, "print the first N decision cycles")
		vcdPath   = flag.String("vcd", "", "dump the control-unit trace as a VCD waveform file")
		metrics   = flag.String("metrics", "", "serve the obs registry and pprof on this address (e.g. :9090) for the run, and print the metrics summary at exit")
	)
	flag.Parse()

	cfg := core.Config{Slots: *slots, ExactSort: *exact, ComputeAhead: *ahead}
	if *vcdPath != "" {
		cfg.TraceDepth = 1 << 16
	}
	switch *routing {
	case "wr":
		cfg.Routing = core.WinnerOnly
	case "ba":
		cfg.Routing = core.BlockRouting
	default:
		fatal("unknown -routing %q (wr or ba)", *routing)
	}
	switch *circulate {
	case "max":
		cfg.Circulate = core.MaxFirst
	case "min":
		cfg.Circulate = core.MinFirst
	default:
		fatal("unknown -circulate %q (max or min)", *circulate)
	}
	var dev fpga.Device
	switch *device {
	case "v1":
		dev = fpga.VirtexI
	case "v2":
		dev = fpga.VirtexII
	default:
		fatal("unknown -device %q (v1 or v2)", *device)
	}

	sched, err := core.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if err := admit(sched, cfg.Slots, *mix, *cycles); err != nil {
		fatal("%v", err)
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		m, err := core.NewMetrics(reg, "core", 256)
		if err != nil {
			fatal("%v", err)
		}
		if err := sched.Instrument(m); err != nil {
			fatal("%v", err)
		}
		bound, closeFn, err := obs.Serve(*metrics, reg)
		if err != nil {
			fatal("-metrics: %v", err)
		}
		fmt.Fprintf(os.Stderr, "sssim: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
		defer closeFn()
	}
	if err := sched.Start(); err != nil {
		fatal("%v", err)
	}

	for i := 0; i < *cycles; i++ {
		cr := sched.RunCycle()
		if i < *trace {
			fmt.Printf("cycle %4d: winner slot %2d, %d tx, %d hw clocks\n",
				cr.Decision, cr.Winner, len(cr.Transmissions), cr.HWCycles)
		}
	}

	fmt.Printf("\n%s configuration, %d stream-slots, %d decision cycles (%d hardware clocks)\n",
		cfg.Routing, cfg.Slots, sched.Decisions(), sched.HWCycles())
	fmt.Printf("%-6s %-22s %10s %10s %10s %10s %10s %12s\n",
		"Slot", "Class", "Wins", "Services", "Met", "Missed", "Drops", "Violations")
	for i := 0; i < cfg.Slots; i++ {
		c := sched.SlotCounters(i)
		fmt.Printf("%-6d %-22s %10d %10d %10d %10d %10d %12d\n",
			i, sched.SlotSpec(i).Class, c.Wins, c.Services, c.Met, c.Missed, c.Drops, c.Violations)
	}
	tot := sched.Totals()
	fmt.Printf("%-6s %-22s %10d %10d %10d %10d %10d %12d\n",
		"total", "", tot.Wins, tot.Services, tot.Met, tot.Missed, tot.Drops, tot.Violations)

	// Rate estimate on the modeled silicon.
	fr := fpga.BA
	if cfg.Routing == core.WinnerOnly {
		fr = fpga.WR
	}
	if mhz, err := fpga.ClockMHz(cfg.Slots, fr, dev); err == nil {
		rate := fpga.DecisionRate(mhz, sched.CyclesPerDecision())
		block := 1
		if cfg.Routing == core.BlockRouting {
			block = cfg.Slots
		}
		fmt.Printf("\n%s @ %.0f MHz: %.2fM decisions/s, %.2fM frames/s (%d clocks/decision, block %d)\n",
			dev, mhz, rate/1e6, fpga.PacketRate(mhz, sched.CyclesPerDecision(), block)/1e6,
			sched.CyclesPerDecision(), block)
	}
	if area, err := fpga.EstimateArea(cfg.Slots, fr); err == nil {
		fmt.Printf("area: %d slices (%d CLBs), %.0f%% of a Virtex-1000, fits=%v\n",
			area.TotalSlices(), area.CLBs(), area.Utilization()*100, area.FitsVirtex1000())
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := sched.Trace().WriteVCD(f, "sharestreams"); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("control-unit waveform written to %s (%d events)\n", *vcdPath, sched.Trace().Len())
	}

	if reg != nil {
		fmt.Println("\nObservability summary:")
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}
}

// admit fills the scheduler with a workload: all-EDF (staggered deadlines,
// backlogged) or a 4-way mixed-discipline rotation. A slot serves at most
// one frame per decision cycle, so a fair-share slot's tag trace needs no
// more than cycles+1 entries (capped at 2²⁰).
func admit(sched *core.Scheduler, slots int, mix bool, cycles int) error {
	for i := 0; i < slots; i++ {
		var spec attr.Spec
		switch {
		case !mix:
			spec = attr.Spec{Class: attr.EDF, Period: 1}
		default:
			switch i % 4 {
			case 0:
				spec = attr.Spec{Class: attr.EDF, Period: uint16(2 + i%3)}
			case 1:
				spec = attr.Spec{Class: attr.WindowConstrained, Period: uint16(2 + i%3),
					Constraint: attr.Constraint{Num: 1, Den: uint8(2 + i%4)}}
			case 2:
				spec = attr.Spec{Class: attr.StaticPriority, Priority: uint16(20000 + i)}
			case 3:
				spec = attr.Spec{Class: attr.FairTag, Weight: uint16(1 + i%4)}
			}
		}
		if spec.Class == attr.FairTag {
			n := max(1, min(cycles+1, 1<<20))
			arr := make([]uint64, n)
			tags := make([]uint64, n)
			for k := range arr {
				arr[k] = uint64(k)
				tags[k] = uint64(10000 + 10*k)
			}
			tagged, err := traffic.NewTagged(arr, tags)
			if err != nil {
				return err
			}
			if err := sched.Admit(i, spec, tagged); err != nil {
				return err
			}
			continue
		}
		src := &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		if mix && (spec.Class == attr.EDF || spec.Class == attr.WindowConstrained) {
			// Rate-gated real-time sources: the mix stays schedulable and
			// the background classes absorb the residual capacity.
			src = &traffic.Periodic{Gap: uint64(spec.Period), Phase: uint64(i)}
		}
		if err := sched.Admit(i, spec, src); err != nil {
			return err
		}
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sssim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
