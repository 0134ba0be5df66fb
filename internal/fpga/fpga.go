// Package fpga models the Virtex-I realization of ShareStreams: area in
// slices, achievable clock rate, and the packet-time feasibility arithmetic
// behind Figure 1's architectural-solutions framework and Figure 7's
// area/clock-rate characteristics.
//
// # Calibration
//
// The paper states the synthesized block areas directly (§5.1): the
// Control/Steering logic block is 22 Virtex-I slices, a Decision block 190
// slices and a Register Base block 150 slices; a Virtex-1000 part has 64×96
// CLBs at 2 slices per CLB (12288 slices, ≈1M system gates); total area
// grows linearly in the stream-slot count for both the BA and WR
// configurations, with shuffle-network wiring and pass-through CLBs
// proportional to the slot count.
//
// The paper does not tabulate Figure 7's clock rates, so the model encodes a
// clock table satisfying every quantitative claim in the text:
//
//   - the Celoxica RC1000 card clocks designs up to 100 MHz;
//   - the WR (winner-only) variant shows less clock-rate variation from 4 to
//     32 slots than BA (routing only winners eases physical routing);
//   - BA degrades ≈20% from WR at 8 and 16 slots but only ≈10% at 32;
//   - a 4-slot BA design sustains the paper's 7.6 M decisions/s line-card
//     rate under the FSM cost model (8 clocks per decision at N=4);
//   - the Virtex-I implementation meets the packet-time of 64-byte and
//     1500-byte frames on 1 Gbps links, and of 1500-byte (but not 64-byte)
//     frames on 10 Gbps links.
//
// The Virtex-II extension (§6) models the hard 18×18 multipliers taking over
// the window-constraint cross-multiplication and the finer speed grade,
// lifting clock rates by a calibrated factor.
package fpga

import (
	"fmt"
	"math"
	"math/bits"
)

// Slice counts stated in §5.1 for the Virtex-I synthesis.
const (
	SlicesControl  = 22  // Control & Steering logic block
	SlicesDecision = 190 // one Decision block
	SlicesRegBase  = 150 // one Register Base block (stream-slot)

	// Virtex-1000: 64×96 CLB array, 2 slices per CLB.
	Virtex1000CLBRows = 64
	Virtex1000CLBCols = 96
	SlicesPerCLB      = 2
	Virtex1000Slices  = Virtex1000CLBRows * Virtex1000CLBCols * SlicesPerCLB

	// Shuffle wiring and pass-through CLB overhead per stream-slot. The
	// paper gives no number, only that area "grows linearly" with
	// slot count; BA routes winner and loser buses (53 bits each way)
	// while WR routes winners only, so BA carries more pass-through
	// fabric per slot.
	WiringSlicesPerSlotBA = 24
	WiringSlicesPerSlotWR = 14
)

// Routing mirrors core.Routing without importing it (fpga sits below core in
// the dependency order so both core and hwpq can use it).
type Routing uint8

const (
	// BA is the block (sorted-list) configuration.
	BA Routing = iota
	// WR is the winner-only (max-finding) configuration.
	WR
)

// String returns the paper's abbreviation.
func (r Routing) String() string {
	if r == WR {
		return "WR"
	}
	return "BA"
}

// Device selects the FPGA family model.
type Device uint8

const (
	// VirtexI is the prototype device (Celoxica RC1000, Virtex-1000).
	VirtexI Device = iota
	// VirtexII is the §6 extension: hard multipliers and a finer speed
	// grade.
	VirtexII
)

// virtexIIClockFactor is the modeled Virtex-II speedup: hard multipliers
// remove the LUT cross-multiplier from the critical path and the process
// shrink raises fabric speed.
const virtexIIClockFactor = 1.8

// String returns the device name.
func (d Device) String() string {
	if d == VirtexII {
		return "Virtex-II"
	}
	return "Virtex-I"
}

// Area is a design's slice budget broken down by component.
type Area struct {
	Slots          int
	Routing        Routing
	ControlSlices  int
	DecisionSlices int // N/2 Decision blocks
	RegBaseSlices  int // N Register Base blocks
	WiringSlices   int // shuffle wiring + pass-through CLBs
}

// TotalSlices returns the design's total slice count.
func (a Area) TotalSlices() int {
	return a.ControlSlices + a.DecisionSlices + a.RegBaseSlices + a.WiringSlices
}

// CLBs returns the design's CLB count (2 slices per Virtex-I CLB, rounded
// up).
func (a Area) CLBs() int { return (a.TotalSlices() + SlicesPerCLB - 1) / SlicesPerCLB }

// FitsVirtex1000 reports whether the design fits the prototype part.
func (a Area) FitsVirtex1000() bool { return a.TotalSlices() <= Virtex1000Slices }

// Utilization returns the fraction of the Virtex-1000 consumed.
func (a Area) Utilization() float64 { return float64(a.TotalSlices()) / Virtex1000Slices }

// EstimateArea computes the slice budget for an N-slot design. N must be a
// power of two ≥ 2.
func EstimateArea(slots int, routing Routing) (Area, error) {
	if slots < 2 || bits.OnesCount(uint(slots)) != 1 {
		return Area{}, fmt.Errorf("fpga: slot count %d is not a power of two ≥ 2", slots)
	}
	wiring := WiringSlicesPerSlotBA
	if routing == WR {
		wiring = WiringSlicesPerSlotWR
	}
	return Area{
		Slots:          slots,
		Routing:        routing,
		ControlSlices:  SlicesControl,
		DecisionSlices: slots / 2 * SlicesDecision,
		RegBaseSlices:  slots * SlicesRegBase,
		WiringSlices:   slots * wiring,
	}, nil
}

// clockTable holds the calibrated Figure 7 clock rates (MHz) for the
// synthesized slot counts.
var clockTable = map[Routing]map[int]float64{
	BA: {4: 61, 8: 54, 16: 47, 32: 44},
	WR: {4: 65, 8: 67, 16: 59, 32: 49},
}

// ClockMHz returns the modeled post-place-and-route clock rate for an
// N-slot design. For slot counts outside the synthesized 4–32 range the
// model extrapolates geometrically at the average per-doubling degradation
// of the table (clearly synthetic; used only for design-space exploration).
func ClockMHz(slots int, routing Routing, dev Device) (float64, error) {
	if slots < 2 || bits.OnesCount(uint(slots)) != 1 {
		return 0, fmt.Errorf("fpga: slot count %d is not a power of two ≥ 2", slots)
	}
	table := clockTable[routing]
	mhz, ok := table[slots]
	if !ok {
		mhz = extrapolate(table, slots)
	}
	if dev == VirtexII {
		mhz *= virtexIIClockFactor
	}
	return mhz, nil
}

// extrapolate extends the calibration table geometrically beyond its range.
func extrapolate(table map[int]float64, slots int) float64 {
	// Average per-doubling ratio across the table's 4→32 span.
	ratio := math.Pow(table[32]/table[4], 1.0/3.0)
	switch {
	case slots < 4:
		return table[4] / ratio // one doubling better than 4
	default:
		steps := math.Log2(float64(slots) / 32.0)
		return table[32] * math.Pow(ratio, steps)
	}
}

// DecisionRate returns decisions per second for a design clocked at mhz
// whose FSM consumes cyclesPerDecision clocks per decision cycle.
func DecisionRate(mhz float64, cyclesPerDecision int) float64 {
	if cyclesPerDecision <= 0 {
		return 0
	}
	return mhz * 1e6 / float64(cyclesPerDecision)
}

// PacketRate returns frames per second: in the BA configuration each
// decision cycle transmits a block of `block` frames ("the throughput of the
// scheduler increases by a factor equal to the block size").
func PacketRate(mhz float64, cyclesPerDecision, block int) float64 {
	if block < 1 {
		block = 1
	}
	return DecisionRate(mhz, cyclesPerDecision) * float64(block)
}

// PacketTimeSeconds returns the wire time of a frame: frame length over line
// speed (§1: "packet-length(in bits) / line-speed(bps)").
func PacketTimeSeconds(frameBytes int, linkBps float64) float64 {
	return float64(frameBytes*8) / linkBps
}

// MeetsPacketTime reports whether a design can decide within one packet
// time: the decision latency (cyclesPerDecision at mhz) must not exceed the
// frame's wire time, with effectiveBlock frames amortizing one decision in
// the BA configuration.
func MeetsPacketTime(mhz float64, cyclesPerDecision, effectiveBlock, frameBytes int, linkBps float64) bool {
	if effectiveBlock < 1 {
		effectiveBlock = 1
	}
	decisionSeconds := float64(cyclesPerDecision) / (mhz * 1e6)
	return decisionSeconds <= PacketTimeSeconds(frameBytes, linkBps)*float64(effectiveBlock)
}

// RequiredRate returns the scheduling rate (decisions/s) Figure 1's
// framework demands to serve a link at wire speed with the given frame
// size: one decision per packet time.
func RequiredRate(frameBytes int, linkBps float64) float64 {
	return 1 / PacketTimeSeconds(frameBytes, linkBps)
}

// Common link speeds used throughout the evaluation.
const (
	Gigabit    = 1e9
	TenGigabit = 1e10
)
