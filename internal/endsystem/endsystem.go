// Package endsystem assembles the ShareStreams Endsystem/Host-router
// realization (Figure 3): the Stream processor's Queue Manager and
// Transmission Engine around the FPGA scheduler, with the PCI/SRAM transfer
// substrate in between.
//
// Two drivers are provided:
//
//   - Throughput computes the §5.2 operating points: packets/second with
//     transfers excluded (the paper's 469,483 pps), with PIO transfers
//     (299,065 pps) and with DMA pulls (the peer-peer enhancement §5.2
//     anticipates). RunShardedOpts (a one-shard call is the single
//     pipeline) and RunShardedSupervised additionally drive the real
//     concurrent pipeline — producer → per-stream rings → scheduler → tx
//     ring → transmission engine, the one in package shard — over an evenly
//     loaded router, to validate the synchronization-free structure end to
//     end (frame conservation, no locks), while the timing itself comes
//     from the calibrated cost model so results stay deterministic.
//
//   - RunAllocation drives the bandwidth-allocation experiments of Figures
//     8–10: backlogged or bursty streams with rate ratios enforced by EDF
//     request periods, an output link that serializes frames at a fixed
//     rate, and per-stream bandwidth/delay measurement.
package endsystem

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/regblock"
	"repro/internal/shard"
	"repro/internal/traffic"
	"repro/internal/txengine"
)

// HostCostNs is the calibrated per-packet Stream-processor cost, 2130 ns:
// the §5.2 operating point of 469,483 packets/s when PCI transfer time is
// excluded. It is shard.DefaultHostNs under the name the drivers use.
const HostCostNs = shard.DefaultHostNs

// TransferBatch is the arrival-time/stream-ID batching factor used by the
// §5.2 calibration (32 packets per PIO/DMA batch).
const TransferBatch = 32

// schedulerBatchCycles is how many decision cycles RunAllocation — the only
// scheduler loop left in this package; the pipeline's lives in shard — hands
// the scheduler per core.RunCycles call: large enough to amortize the batch
// entry over the hoisted per-cycle work, small enough that completion and
// error conditions (checked in the visit callback) stop the run promptly.
const schedulerBatchCycles = 256

// OperatingPoint is one §5.2 throughput row.
type OperatingPoint struct {
	Mode        pci.Mode
	HostNs      float64 // per-packet host cost
	TransferNs  float64 // per-packet transfer cost under Mode
	PacketsPerS float64
}

// Throughput computes the endsystem operating point for a transfer mode.
func Throughput(mode pci.Mode) (OperatingPoint, error) {
	bus, err := pci.New(pci.DefaultConfig())
	if err != nil {
		return OperatingPoint{}, err
	}
	per, err := bus.PerPacketNs(mode, TransferBatch)
	if err != nil {
		return OperatingPoint{}, err
	}
	return OperatingPoint{
		Mode:        mode,
		HostNs:      HostCostNs,
		TransferNs:  per,
		PacketsPerS: 1e9 / (HostCostNs + per),
	}, nil
}

// AllocationConfig parameterizes a bandwidth-allocation run (Figures 8–10).
type AllocationConfig struct {
	// RatesMBps is the per-slot target allocation; its sum is the output
	// link rate (the paper's Figure 8 uses 2:2:4:8 MB/s over a 16 MB/s
	// budget).
	RatesMBps []float64
	// FrameBytes is the fixed frame size (default 1000).
	FrameBytes int
	// FramesPerSlot bounds each slot's traffic (the paper transfers 64000
	// arrival-times per queue).
	FramesPerSlot uint64
	// Bursty switches the generators to the Figure 9 pattern: bursts of
	// BurstFrames at the stream's nominal spacing, separated by
	// InterBurstCycles of silence.
	Bursty           bool
	BurstFrames      uint64
	InterBurstCycles uint64
	// Sources, when non-nil, overrides the generated traffic for each slot
	// (Figure 10 passes streamlet aggregators here). Overridden slots
	// ignore Bursty/FramesPerSlot.
	Sources []regblock.HeadSource
	// MeterWindows is the number of measurement windows across the run
	// (default 64).
	MeterWindows int
	// Observer, when non-nil, sees every transmission with its wire
	// completion time (Figure 10 charges streamlets here).
	Observer func(slot int, tx core.Transmission, completionNs float64)
	// Obs, when non-nil, attaches the scheduler's core.* observability
	// bundle (tracer depth 256) to this registry for the run.
	Obs *obs.Registry
}

// AllocationResult reports a bandwidth-allocation run.
type AllocationResult struct {
	TE      *txengine.Engine
	Sched   *core.Scheduler
	CycleNs float64 // virtual duration of one decision cycle (one frame time)
	Cycles  uint64
	// Sent is the number of frames actually transmitted; Expected is the
	// number the configuration promised (slots × FramesPerSlot).
	Sent     uint64
	Expected uint64
	// Truncated reports that the runaway-cycle guard tripped before Sent
	// reached Expected — the results cover only part of the configured
	// run and must not be read as a complete figure.
	Truncated bool
}

// RunAllocation executes the run: an N-slot winner-only scheduler in EDF
// mode with request periods inversely proportional to the target rates
// (deadline synthesis then yields service frequencies proportional to the
// rates), over an output link whose frame time equals one decision cycle.
func RunAllocation(cfg AllocationConfig) (*AllocationResult, error) {
	n := len(cfg.RatesMBps)
	if n < 2 {
		return nil, fmt.Errorf("endsystem: need ≥2 slots, got %d", n)
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 1000
	}
	if cfg.FramesPerSlot == 0 {
		cfg.FramesPerSlot = 64000
	}
	if cfg.MeterWindows == 0 {
		cfg.MeterWindows = 64
	}
	slots := 1
	for slots < n {
		slots *= 2
	}

	var totalMBps float64
	for i, r := range cfg.RatesMBps {
		if r <= 0 {
			return nil, fmt.Errorf("endsystem: slot %d rate %v", i, r)
		}
		totalMBps += r
	}
	linkBps := totalMBps * 8e6
	cycleNs := float64(cfg.FrameBytes*8) / linkBps * 1e9

	// Request periods: T_i = total/rate_i decision cycles (integer).
	periods := make([]uint16, n)
	for i, r := range cfg.RatesMBps {
		p := totalMBps / r
		rounded := math.Round(p)
		if math.Abs(p-rounded) > 1e-9 || rounded < 1 || rounded > 65535 {
			return nil, fmt.Errorf("endsystem: rate ratio for slot %d yields non-integer period %v", i, p)
		}
		periods[i] = uint16(rounded)
	}

	sched, err := core.New(core.Config{Slots: slots, Routing: core.WinnerOnly})
	if err != nil {
		return nil, err
	}
	expected := uint64(n) * cfg.FramesPerSlot
	for i := 0; i < n; i++ {
		src := cfg.source(i, periods[i])
		if err := sched.Admit(i, attr.Spec{Class: attr.EDF, Period: periods[i]}, src); err != nil {
			return nil, err
		}
	}
	if cfg.Obs != nil {
		m, err := core.NewMetrics(cfg.Obs, "core", 256)
		if err != nil {
			return nil, err
		}
		if err := sched.Instrument(m); err != nil {
			return nil, err
		}
	}
	if err := sched.Start(); err != nil {
		return nil, err
	}

	// Run length estimate: every frame takes one cycle, plus slack for
	// gated arrivals (bursty gaps) — bounded by the last arrival.
	runNs := float64(expected) * cycleNs * 1.05
	windowNs := runNs / float64(cfg.MeterWindows)
	te, err := txengine.New(slots, linkBps, windowNs)
	if err != nil {
		return nil, err
	}

	res := &AllocationResult{TE: te, Sched: sched, CycleNs: cycleNs, Expected: expected}
	var sent uint64
	var txErr error
	idleStreak := 0
	drained := false
	maxCycles := expected*4 + 1000
	for !drained && txErr == nil && sent < expected && res.Cycles < maxCycles {
		sched.RunCycles(schedulerBatchCycles, func(cr *core.CycleResult) bool {
			res.Cycles++
			if cr.Idle {
				idleStreak++
				if uint64(idleStreak) > cfg.InterBurstCycles+1000 {
					drained = true // sources exhausted
					return false
				}
				return sent < expected && res.Cycles < maxCycles
			}
			idleStreak = 0
			for _, tx := range cr.Transmissions {
				readyNs := float64(cr.Time) * cycleNs
				arrivalNs := float64(tx.Arrival64) * cycleNs
				end, err := te.Transmit(int(tx.Slot), cfg.FrameBytes, readyNs, arrivalNs)
				if err != nil {
					txErr = err
					return false
				}
				if cfg.Observer != nil {
					cfg.Observer(int(tx.Slot), tx, end)
				}
				sent++
			}
			return sent < expected && res.Cycles < maxCycles
		})
	}
	if txErr != nil {
		return nil, txErr
	}
	te.Finish()
	res.Sent = sent
	// The guard tripping with frames outstanding means the sources kept
	// trickling without ever draining — partial results that would
	// otherwise look complete.
	res.Truncated = sent < expected && res.Cycles >= maxCycles
	return res, nil
}

// source builds slot i's generator.
func (cfg AllocationConfig) source(i int, period uint16) regblock.HeadSource {
	if cfg.Sources != nil && i < len(cfg.Sources) && cfg.Sources[i] != nil {
		return cfg.Sources[i]
	}
	if cfg.Bursty {
		// Within a burst, packets arrive ~33% faster than the stream's
		// fair share drains them (gap = ceil(3T/4)), so backlog and
		// queuing delay ramp across each burst and drain during the
		// inter-burst silence — Figure 9's zig-zag. The highest-rate
		// stream's gap rounds back to its period, which is why stream 4
		// shows the flattest, lowest delay, consistent with the figure.
		gap := (uint64(period)*3 + 3) / 4
		if gap < 1 {
			gap = 1
		}
		return &traffic.Bursty{
			BurstLen:   cfg.BurstFrames,
			Gap:        gap,
			InterBurst: cfg.InterBurstCycles,
			Phase:      uint64(i),
			Limit:      cfg.FramesPerSlot,
		}
	}
	return &traffic.Periodic{
		Gap:        uint64(period),
		Phase:      uint64(i),
		Limit:      cfg.FramesPerSlot,
		Backlogged: true,
	}
}
