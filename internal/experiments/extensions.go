package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/fpga"
	"repro/internal/regblock"
	"repro/internal/streamlet"
	"repro/internal/traffic"
)

// ExtensionRow is one design point of the §6 extensions ablation:
// compute-ahead Register Base blocks, the Virtex-II device with hard
// multipliers, and the exact-sort steering schedule.
type ExtensionRow struct {
	Label         string
	Slots         int
	Device        fpga.Device
	ComputeAhead  bool
	ExactSort     bool
	CyclesPerDec  int
	ClockMHz      float64
	DecisionsPerS float64
	FramesPerS    float64 // with block transactions
}

// Extensions sweeps the §6 microarchitectural extensions over the given
// slot counts (defaults 4..32), always in the BA configuration.
func Extensions(slotCounts []int) ([]ExtensionRow, error) {
	if len(slotCounts) == 0 {
		slotCounts = []int{4, 8, 16, 32}
	}
	variants := []struct {
		label string
		dev   fpga.Device
		ahead bool
		exact bool
	}{
		{"baseline (Virtex-I)", fpga.VirtexI, false, false},
		{"compute-ahead", fpga.VirtexI, true, false},
		{"exact-sort block", fpga.VirtexI, false, true},
		{"Virtex-II", fpga.VirtexII, false, false},
		{"Virtex-II + compute-ahead", fpga.VirtexII, true, false},
	}
	var rows []ExtensionRow
	for _, n := range slotCounts {
		for _, v := range variants {
			sched, err := core.New(core.Config{
				Slots:        n,
				Routing:      core.BlockRouting,
				ComputeAhead: v.ahead,
				ExactSort:    v.exact,
			})
			if err != nil {
				return nil, err
			}
			mhz, err := fpga.ClockMHz(n, fpga.BA, v.dev)
			if err != nil {
				return nil, err
			}
			cycles := sched.CyclesPerDecision()
			rows = append(rows, ExtensionRow{
				Label:         v.label,
				Slots:         n,
				Device:        v.dev,
				ComputeAhead:  v.ahead,
				ExactSort:     v.exact,
				CyclesPerDec:  cycles,
				ClockMHz:      mhz,
				DecisionsPerS: fpga.DecisionRate(mhz, cycles),
				FramesPerS:    fpga.PacketRate(mhz, cycles, n),
			})
		}
		// Pipelined fair-queuing (Table 1's concurrency row): the TagOnly
		// mapping has no winner-to-priority feedback, so successive
		// decisions pipeline down to the slowest FSM stage.
		tag, err := core.New(core.Config{Slots: n, Routing: core.BlockRouting, Mode: decision.TagOnly})
		if err != nil {
			return nil, err
		}
		mhz, err := fpga.ClockMHz(n, fpga.BA, fpga.VirtexI)
		if err != nil {
			return nil, err
		}
		ii := tag.PipelinedInitiationInterval()
		rows = append(rows, ExtensionRow{
			Label:         "pipelined fair-queuing",
			Slots:         n,
			Device:        fpga.VirtexI,
			CyclesPerDec:  ii,
			ClockMHz:      mhz,
			DecisionsPerS: fpga.DecisionRate(mhz, ii),
			FramesPerS:    fpga.PacketRate(mhz, ii, n),
		})
	}
	return rows, nil
}

// FormatExtensions renders the ablation table.
func FormatExtensions(rows []ExtensionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %12s %10s %14s %14s\n",
		"Variant", "Slots", "Clocks/dec", "MHz", "Mdecisions/s", "Mframes/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %6d %12d %10.0f %14.2f %14.2f\n",
			r.Label, r.Slots, r.CyclesPerDec, r.ClockMHz, r.DecisionsPerS/1e6, r.FramesPerS/1e6)
	}
	return b.String()
}

// ScaleResult reports the §6 "system with hundreds of streams"
// demonstration: a large direct design plus streamlet aggregation carrying
// many streams per slot, validated functionally.
type ScaleResult struct {
	DirectSlots       int
	AggregatedStreams int
	Cycles            uint64
	Services          uint64
	PerSlotFairness   float64 // max/min win ratio across slots (1 = perfect)
}

// Scale runs a large configuration: `slots` direct stream-slots (beyond the
// prototype's 32, exercising the extrapolated design space) each carrying
// `perSlot` aggregated streamlets, for the given number of decision cycles.
func Scale(slots, perSlot, cycles int) (*ScaleResult, error) {
	res, _, err := scale(slots, perSlot, cycles)
	return res, err
}

// scale is Scale, also returning each slot's aggregator.
func scale(slots, perSlot, cycles int) (*ScaleResult, []*streamlet.Aggregator, error) {
	if slots < 2 || perSlot < 1 || cycles < slots {
		return nil, nil, fmt.Errorf("experiments: bad scale config (%d slots, %d per slot, %d cycles)", slots, perSlot, cycles)
	}
	sched, err := core.New(core.Config{Slots: slots, Routing: core.WinnerOnly})
	if err != nil {
		return nil, nil, err
	}
	aggs := make([]*streamlet.Aggregator, slots)
	for i := 0; i < slots; i++ {
		srcs := make([]regblock.HeadSource, perSlot)
		for k := range srcs {
			srcs[k] = &traffic.Periodic{Gap: 1, Phase: uint64(i), Backlogged: true}
		}
		set, err := streamlet.NewSet(1, srcs)
		if err != nil {
			return nil, nil, err
		}
		aggs[i], err = streamlet.New(set)
		if err != nil {
			return nil, nil, err
		}
		if err := sched.Admit(i, attr.Spec{Class: attr.EDF, Period: uint16(slots)}, aggs[i]); err != nil {
			return nil, nil, err
		}
	}
	if err := sched.Start(); err != nil {
		return nil, nil, err
	}
	// Charge every transmission to the streamlet that supplied it, as Fig10
	// does: an aggregator remembers each head it hands out until then.
	const frameBytes = 1000
	var chargeErr error
	sched.RunCycles(cycles, func(cr *core.CycleResult) bool {
		for _, tx := range cr.Transmissions {
			if _, _, chargeErr = aggs[tx.Slot].OnTransmit(frameBytes); chargeErr != nil {
				return false
			}
		}
		return true
	})
	if chargeErr != nil {
		return nil, nil, chargeErr
	}

	var minW, maxW uint64
	for i := 0; i < slots; i++ {
		w := sched.SlotCounters(i).Wins
		if i == 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	fair := 0.0
	if minW > 0 {
		fair = float64(maxW) / float64(minW)
	}
	return &ScaleResult{
		DirectSlots:       slots,
		AggregatedStreams: slots * perSlot,
		Cycles:            sched.Decisions(),
		Services:          sched.Totals().Services,
		PerSlotFairness:   fair,
	}, aggs, nil
}
