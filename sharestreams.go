// Package sharestreams is a Go reproduction of the ShareStreams QoS
// architecture — "Leveraging Block Decisions and Aggregation in the
// ShareStreams QoS Architecture" (Krishnamurthy, Yalamanchili, Schwan,
// West; IPPS 2003).
//
// ShareStreams is a unified canonical architecture for packet scheduling
// disciplines: per-stream state lives in Register Base blocks
// (stream-slots), streams are ordered pairwise by multi-attribute Decision
// blocks arranged in a recirculating shuffle-exchange network (N/2 blocks,
// log₂N cycles per decision), and a winner ID circulates back each decision
// cycle so window-constrained disciplines can adjust priorities every
// cycle. Priority-class, fair-queuing, EDF and DWCS (window-constrained)
// streams all map onto the one datapath.
//
// The original artifact is a Xilinx Virtex-I FPGA on a PCI card driven by
// host software; this package reproduces it as a cycle-accurate hardware
// model plus the endsystem software stack, with calibrated area/clock and
// transfer-cost models standing in for the silicon (see DESIGN.md for the
// substitution table and EXPERIMENTS.md for paper-vs-measured results).
//
// # Quick start
//
//	sched, _ := sharestreams.NewScheduler(sharestreams.Config{
//		Slots:   4,
//		Routing: sharestreams.BlockRouting,
//	})
//	for i := 0; i < 4; i++ {
//		src := &sharestreams.PeriodicTraffic{Gap: 1, Phase: uint64(i), Backlogged: true}
//		_ = sched.Admit(i, sharestreams.EDFStream(1), src)
//	}
//	_ = sched.Start()
//	cr := sched.RunCycle() // one block transaction
//
// The sub-APIs re-exported here:
//
//   - Config/Scheduler — the canonical hardware scheduler (internal/core).
//   - Spec constructors — EDFStream, WindowConstrainedStream,
//     StaticPriorityStream, FairShareStream (internal/attr).
//   - Traffic generators — PeriodicTraffic, BurstyTraffic, TaggedTraffic
//     (internal/traffic).
//   - Aggregation — StreamletSet/Aggregate (internal/streamlet).
//   - The endsystem realization and §5.2 operating points
//     (internal/endsystem).
//   - Experiments — Table3, Fig7…Fig10, Sec41, Sec52, Ablation
//     (internal/experiments), each regenerating one table or figure.
package sharestreams

import (
	"repro/internal/admission"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/fpga"
	"repro/internal/linecard"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
	"repro/internal/shard"
	"repro/internal/streamlet"
	"repro/internal/traffic"
)

// Core scheduler types.
type (
	// Config parameterizes a scheduler instance (slot count, BA/WR
	// routing, circulate mode, extensions).
	Config = core.Config
	// Scheduler is a ShareStreams canonical scheduler.
	Scheduler = core.Scheduler
	// CycleResult reports one decision cycle.
	CycleResult = core.CycleResult
	// Transmission is one frame leaving the scheduler.
	Transmission = core.Transmission
	// Routing selects block (BA) or winner-only (WR) routing.
	Routing = core.Routing
	// Circulate selects max-first or min-first block circulation.
	Circulate = core.Circulate
	// StreamSpec describes an admitted stream's service constraints.
	StreamSpec = attr.Spec
	// Constraint is a DWCS window-constraint (loss-tolerance) x/y.
	Constraint = attr.Constraint
	// Head is one packet head (arrival time plus fair-queuing tag) as
	// delivered by a HeadSource.
	Head = regblock.Head
	// HeadSource feeds a stream-slot with successive packet heads.
	HeadSource = regblock.HeadSource
	// SlotCounters are a slot's hardware performance counters.
	SlotCounters = regblock.Counters
)

// Routing and circulation modes.
const (
	// BlockRouting (BA) routes winners and losers: the sorted block.
	BlockRouting = core.BlockRouting
	// WinnerOnly (WR) routes winners only: max-finding.
	WinnerOnly = core.WinnerOnly
	// MaxFirst circulates/transmits the block head first.
	MaxFirst = core.MaxFirst
	// MinFirst circulates the block tail and transmits tail-first.
	MinFirst = core.MinFirst
)

// NewScheduler builds a scheduler from cfg. Admit streams, then Start, then
// RunCycle/RunFor.
func NewScheduler(cfg Config) (*Scheduler, error) { return core.New(cfg) }

// EDFStream returns the spec of an earliest-deadline-first stream with the
// given request period (time units between successive packet deadlines).
func EDFStream(period uint16) StreamSpec {
	return attr.Spec{Class: attr.EDF, Period: period}
}

// WindowConstrainedStream returns the spec of a DWCS stream: deadline every
// period, tolerating lossNum late/lost packets per window of lossDen.
func WindowConstrainedStream(period uint16, lossNum, lossDen uint8) StreamSpec {
	return attr.Spec{
		Class:      attr.WindowConstrained,
		Period:     period,
		Constraint: attr.Constraint{Num: lossNum, Den: lossDen},
	}
}

// StaticPriorityStream returns the spec of a time-invariant priority stream
// (lower value = served first).
func StaticPriorityStream(priority uint16) StreamSpec {
	return attr.Spec{Class: attr.StaticPriority, Priority: priority}
}

// FairShareStream returns the spec of a fair-queuing stream with the given
// weight; its per-packet service tags come from the head source (computed
// by the Queue Manager).
func FairShareStream(weight uint16) StreamSpec {
	return attr.Spec{Class: attr.FairTag, Weight: weight}
}

// GuardedPriorityStream returns the spec of a static-priority stream with a
// starvation guard: a head that has waited guard time units is boosted to
// priority 0 until served. priority must stay below 2^15 when guarded.
func GuardedPriorityStream(priority, guard uint16) StreamSpec {
	return attr.Spec{Class: attr.StaticPriority, Priority: priority, Guard: guard}
}

// Rank programs (DESIGN.md §8): a discipline, seen from the shuffle
// network, is a pure function from stream state to a packed uint64 rank key.
// RankProgram names one registered program; Program.Rank is the function.
type RankProgram = decision.Program

// The registered rank programs.
const (
	// ProgramDWCS is the full window-constrained (DWCS) Table-2 cascade.
	ProgramDWCS = decision.ProgramDWCS
	// ProgramTagOnly orders by precomputed service tags (WFQ-style).
	ProgramTagOnly = decision.ProgramTagOnly
	// ProgramSTFQ is start-time fair queuing over the qm tag state.
	ProgramSTFQ = decision.ProgramSTFQ
	// ProgramEDF is earliest-deadline-first.
	ProgramEDF = decision.ProgramEDF
	// ProgramStrictPriority is strict priority with a starvation guard.
	ProgramStrictPriority = decision.ProgramStrictPriority
)

// RankPrograms returns every registered rank program.
func RankPrograms() []RankProgram { return decision.Programs() }

// ProgramConfig returns the scheduler Config that runs rank program p over
// the given slot count and routing.
func ProgramConfig(slots int, p RankProgram, routing Routing) Config {
	return core.ProgramConfig(slots, p, routing)
}

// Traffic generators.
type (
	// PeriodicTraffic generates packets every Gap time units starting at
	// Phase; Backlogged releases everything immediately.
	PeriodicTraffic = traffic.Periodic
	// BurstyTraffic generates bursts separated by idle gaps (Figure 9).
	BurstyTraffic = traffic.Bursty
	// TaggedTraffic supplies explicit (arrival, service-tag) heads for
	// fair-share streams.
	TaggedTraffic = traffic.Tagged
)

// NewTaggedTraffic builds a tagged source from parallel arrival/tag slices.
func NewTaggedTraffic(arrivals, tags []uint64) (*TaggedTraffic, error) {
	return traffic.NewTagged(arrivals, tags)
}

// Aggregation.
type (
	// StreamletSet is a weighted group of streamlets within a slot.
	StreamletSet = streamlet.Set
	// StreamletAggregator merges streamlet sets into one stream-slot.
	StreamletAggregator = streamlet.Aggregator
)

// NewStreamletSet groups sources into a weighted set.
func NewStreamletSet(weight int, sources []HeadSource) (*StreamletSet, error) {
	return streamlet.NewSet(weight, sources)
}

// Aggregate binds streamlet sets to one stream-slot head source.
func Aggregate(sets ...*StreamletSet) (*StreamletAggregator, error) {
	return streamlet.New(sets...)
}

// Endsystem realization.
type (
	// TransferMode selects how arrival-times/stream-IDs cross the PCI bus.
	TransferMode = pci.Mode
	// OperatingPoint is a §5.2 endsystem throughput point.
	OperatingPoint = endsystem.OperatingPoint
	// AllocationConfig parameterizes a bandwidth-allocation run.
	AllocationConfig = endsystem.AllocationConfig
	// AllocationResult reports a bandwidth-allocation run.
	AllocationResult = endsystem.AllocationResult
)

// Transfer modes.
const (
	// TransferNone excludes PCI costs (the 469,483 pps §5.2 point).
	TransferNone = pci.ModeNone
	// TransferPIO uses push/read programmed I/O (the 299,065 pps point).
	TransferPIO = pci.ModePIO
	// TransferDMA uses pull DMA bursts.
	TransferDMA = pci.ModeDMA
)

// EndsystemThroughput returns the modeled §5.2 operating point for a
// transfer mode.
func EndsystemThroughput(mode TransferMode) (OperatingPoint, error) {
	return endsystem.Throughput(mode)
}

// RunAllocation executes a Figure 8/9/10-style bandwidth-allocation run.
func RunAllocation(cfg AllocationConfig) (*AllocationResult, error) {
	return endsystem.RunAllocation(cfg)
}

// Sharded endsystem: K independent scheduler pipelines behind a flow-hash
// dispatcher, with per-shard counters and bandwidth series merged into one
// view (internal/shard).
type (
	// ShardedConfig parameterizes a sharded router.
	ShardedConfig = shard.Config
	// ShardedRouter dispatches streams to K scheduler pipelines by flow
	// hash and aggregates their results.
	ShardedRouter = shard.Router
	// ShardedResult is the merged view of a sharded run.
	ShardedResult = shard.Result
	// ShardResult is one shard's slice of a sharded run.
	ShardResult = shard.ShardResult
	// StreamID identifies a stream across the sharded endsystem.
	StreamID = shard.StreamID
)

// NewShardedRouter builds a sharded endsystem router; Admit (or
// AdmitBalanced) streams, then Run.
func NewShardedRouter(cfg ShardedConfig) (*ShardedRouter, error) {
	return shard.New(cfg)
}

type (
	// ShardedOptions selects the optional machinery of a sharded run: PCI
	// metering, an observability registry, the run-to-completion shard loop,
	// and the delay-driven shared buffer pool (DESIGN.md §9).
	ShardedOptions = endsystem.ShardedOptions
	// BufferPoolConfig sizes the Queue Manager's shared buffering: a
	// guaranteed per-stream reservation plus a burst pool lent frame by
	// frame while a stream's measured head delay (in modeled service
	// rounds) stays at or under DelayTarget. A zero value keeps the
	// historical fixed per-stream rings.
	BufferPoolConfig = qm.SharedConfig
)

// RunShardedOpts drives K evenly loaded scheduler pipelines under the §5.2
// calibration and returns the aggregated result: one shard reproduces the
// single-pipeline operating points, K shards report ≈K× the modeled
// throughput (and wall-clock throughput that scales with host cores). opts
// selects the optional machinery: PCI metering, instrumentation, the
// run-to-completion shard loop and shared buffering.
func RunShardedOpts(shards, slotsPerShard, framesPerStream int, opts ShardedOptions) (*ShardedResult, error) {
	return endsystem.RunShardedOpts(shards, slotsPerShard, framesPerStream, opts)
}

// Fault injection and self-healing (internal/fault, DESIGN.md §7): seeded,
// modeled-time fault schedules drive a supervised sharded run that retries
// PCI faults, restarts crashed pipelines with capped backoff, and
// re-aggregates dead shards' flows as streamlets onto survivors (§4.2).
type (
	// FaultProfile parameterizes a deterministic fault schedule.
	FaultProfile = fault.Profile
	// FaultSchedule is the materialized, seed-replayable event list.
	FaultSchedule = fault.Schedule
	// FaultTrace accumulates the deterministic fault/recovery record.
	FaultTrace = fault.Trace
	// RecoveryConfig bounds restarts and backoff and picks the overload
	// policy for a supervised run.
	RecoveryConfig = shard.RecoveryConfig
	// SupervisedResult is the frame ledger and recovery summary of a
	// supervised run (conservation: Delivered + Dropped == Target).
	SupervisedResult = shard.SupervisedResult
)

// NewFaultSchedule draws a deterministic fault schedule from the profile's
// seed; the same profile always yields the same schedule.
func NewFaultSchedule(p FaultProfile) (*FaultSchedule, error) { return fault.NewSchedule(p) }

// RunShardedSupervised is RunShardedOpts under a fault schedule with the
// self-healing supervisor: every shard's scheduler runs rank program p and
// the admitted streams carry p's natural spec. A nil schedule injects
// nothing; a nil trace discards the recovery record.
func RunShardedSupervised(shards, slotsPerShard, framesPerStream int, mode TransferMode, p RankProgram, schedule *FaultSchedule, rcfg RecoveryConfig, trace *FaultTrace) (*SupervisedResult, error) {
	return endsystem.RunShardedSupervised(shards, slotsPerShard, framesPerStream, mode, p, schedule, rcfg, trace)
}

// Line-card realization (Figure 2): the no-host configuration for backbone
// switches, with dual-ported SRAM between the switch fabric and the
// scheduler.
type (
	// LineCard is one switch line card.
	LineCard = linecard.Card
	// LineCardConfig parameterizes it.
	LineCardConfig = linecard.Config
)

// NewLineCard builds a line card; admit streams, Start, feed the fabric via
// card.SRAM().FabricArrival, and RunCycle.
func NewLineCard(cfg LineCardConfig) (*LineCard, error) { return linecard.New(cfg) }

// Switch fabric (the Figure 2 environment): input ports with virtual output
// queues and round-robin crossbar arbitration, delivering into line cards.
type (
	// SwitchFabric is a VOQ crossbar.
	SwitchFabric = fabric.Fabric
	// FabricPacket is one packet crossing the fabric.
	FabricPacket = fabric.Packet
	// SwitchFabricOutput is a fabric delivery target (a line card's
	// SRAM() satisfies it).
	SwitchFabricOutput = fabric.Output
)

// NewSwitchFabric builds a crossbar with the given input-port count whose
// outputs are line-card ingress ports (card.SRAM() satisfies the output
// interface).
func NewSwitchFabric(inputs int, outputs []SwitchFabricOutput) (*SwitchFabric, error) {
	return fabric.New(inputs, outputs)
}

// Admission control (Figure 1's QoS-bounds × scale framework as
// schedulability checks).
type (
	// AdmissionController tracks admitted streams against slot and link
	// capacity.
	AdmissionController = admission.Controller
)

// NewAdmissionController builds a controller for a scheduler with the given
// stream-slot count.
func NewAdmissionController(slots int) (*AdmissionController, error) {
	return admission.New(slots)
}

// AggregateDelayBound returns the delay bound a stream-slot aggregate of n
// round-robin streamlets with request period T can promise (§6).
func AggregateDelayBound(streamlets int, period uint16) (float64, error) {
	return admission.AggregateDelayBound(streamlets, period)
}

// FPGA model.
type (
	// FPGAArea is a design's slice budget.
	FPGAArea = fpga.Area
)

// EstimateArea returns the Virtex-I slice budget of an N-slot design.
func EstimateArea(slots int, routing fpga.Routing) (FPGAArea, error) {
	return fpga.EstimateArea(slots, routing)
}

// Experiments — one per table/figure; see EXPERIMENTS.md.
type (
	// Table3Result is the block-decisions vs max-finding table.
	Table3Result = experiments.Table3Result
	// Fig7Row is one Figure 7 area/clock point.
	Fig7Row = experiments.Fig7Row
	// Fig8Result is the fair-bandwidth run.
	Fig8Result = experiments.Fig8Result
	// Fig9Result is the queuing-delay run.
	Fig9Result = experiments.Fig9Result
	// Fig10Result is the streamlet-aggregation run.
	Fig10Result = experiments.Fig10Result
)

// Table3 reproduces Table 3 at the paper's scale.
func Table3() (Table3Result, error) {
	return experiments.Table3(experiments.DefaultTable3())
}

// Fig7 reproduces Figure 7 for the synthesized 4–32-slot design space.
func Fig7() ([]Fig7Row, error) { return experiments.Fig7(nil, fpga.VirtexI) }

// Fig8 reproduces Figure 8 (1:1:2:4 fair bandwidth allocation).
func Fig8() (*Fig8Result, error) { return experiments.Fig8(experiments.Fig8Config{}) }

// Fig9 reproduces Figure 9 (queuing delay under bursty traffic).
func Fig9() (*Fig9Result, error) { return experiments.Fig9(experiments.Fig9Config{}) }

// Fig10 reproduces Figure 10 (100 streamlets aggregated per stream-slot).
func Fig10() (*Fig10Result, error) { return experiments.Fig10(experiments.Fig10Config{}) }
