package endsystem

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/shard"
)

// balancedRouter builds the evenly loaded endsystem every sharded driver
// here runs: shards schedulers of slotsPerShard slots under the §5.2
// calibration (HostCostNs per packet, TransferBatch frames per metered PCI
// batch), filled with shards×slotsPerShard streams of spec by
// flow-hash-balanced admission. opts carries the caller's optional machinery
// (Mode, Program, BufferPool); the sizing and calibration fields are set
// here.
func balancedRouter(shards, slotsPerShard int, spec attr.Spec, opts shard.Config) (*shard.Router, error) {
	opts.Shards = shards
	opts.SlotsPerShard = slotsPerShard
	opts.HostNs = HostCostNs
	opts.TransferBatch = TransferBatch
	router, err := shard.New(opts)
	if err != nil {
		return nil, err
	}
	if _, err := router.AdmitBalanced(shards*slotsPerShard, spec); err != nil {
		return nil, fmt.Errorf("endsystem: sharded admission: %w", err)
	}
	return router, nil
}

// ShardedOptions selects the optional machinery of a sharded endsystem run:
// PCI metering mode, an observability registry (the router publishes its
// shard.* dispatcher and throughput metrics there; per-shard delivered
// counters are atomic, so scraping mid-run is race-free), and the
// delay-driven shared buffer pool (a zero BufferPool keeps the historical
// fixed per-stream rings).
type ShardedOptions struct {
	Mode     pci.Mode
	Registry *obs.Registry
	// RunToCompletion is kept only for source compatibility.
	//
	// Deprecated: every run is run-to-completion; this field has no effect.
	RunToCompletion bool
	BufferPool      qm.SharedConfig
}

// RunShardedOpts drives the sharded endsystem: shards independent
// scheduler pipelines, each sized slotsPerShard, evenly loaded
// (balancedRouter), pushing framesPerStream frames per stream, with opts
// selecting the optional machinery. Modeled completion time is the maximum
// over shards, so a 1-shard run is the single Figure 3 pipeline on the §5.2
// operating points (469,483 pps ModeNone, 299,065 pps PIO) and K evenly
// loaded shards report ≈K× that.
func RunShardedOpts(shards, slotsPerShard, framesPerStream int, opts ShardedOptions) (*shard.Result, error) {
	spec := attr.Spec{Class: attr.EDF, Period: uint16(slotsPerShard)}
	router, err := balancedRouter(shards, slotsPerShard, spec, shard.Config{
		Mode:       opts.Mode,
		BufferPool: opts.BufferPool,
	})
	if err != nil {
		return nil, err
	}
	if opts.Registry != nil {
		router.RegisterMetrics(opts.Registry, "shard")
	}
	return router.Run(framesPerStream)
}

// programSpec maps a rank program to the uniform stream spec the sharded
// chaos drivers admit under it. The window-constrained class never appears
// here: a regblock expiry drop is invisible to the Queue Manager's loss
// accounting, so it would break the supervisor's frame-conservation
// invariant — chaos runs stick to the non-dropping classes. The DWCS
// program therefore also drives EDF-class specs (full datapath, conserved
// frames), which is exactly how the pre-program chaos jobs ran it.
func programSpec(p decision.Program, slotsPerShard int) attr.Spec {
	switch p {
	case decision.ProgramDWCS, decision.ProgramEDF:
		return attr.Spec{Class: attr.EDF, Period: uint16(slotsPerShard)}
	case decision.ProgramTagOnly, decision.ProgramSTFQ:
		return attr.Spec{Class: attr.FairTag, Weight: 1}
	case decision.ProgramStrictPriority:
		return attr.Spec{Class: attr.StaticPriority, Priority: 5, Guard: 64}
	default:
		panic("endsystem: rank program with no chaos spec: " + p.String())
	}
}

// RunShardedSupervised is the chaos-mode counterpart of RunShardedOpts: the
// same evenly-loaded sharded endsystem with every shard's scheduler running
// rank program p over streams of p's natural spec (programSpec), run under a
// deterministic fault schedule with the self-healing supervisor — crashed
// pipelines restart with capped backoff, shards dead after the restart
// budget have their flows re-aggregated as streamlets onto survivors
// (§4.2), and the whole fault/recovery history lands in trace
// (byte-identical for a given seed). schedule may be nil (no faults), trace
// may be nil (discard), and a zero RecoveryConfig takes the defaults.
// decision.ProgramDWCS over EDF-class specs is the historical chaos
// configuration (full datapath, conserved frames); the chaos CI job iterates
// decision.Programs() so recovery is exercised under every discipline.
func RunShardedSupervised(shards, slotsPerShard, framesPerStream int, mode pci.Mode, p decision.Program, schedule *fault.Schedule, rcfg shard.RecoveryConfig, trace *fault.Trace) (*shard.Result, error) {
	router, err := balancedRouter(shards, slotsPerShard, programSpec(p, slotsPerShard), shard.Config{Mode: mode, Program: p})
	if err != nil {
		return nil, err
	}
	return router.RunSupervised(framesPerStream, schedule, rcfg, trace)
}
