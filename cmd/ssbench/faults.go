package main

import (
	"fmt"

	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/shard"
	"repro/internal/stats"
)

// faultFramesPerStream sizes both fault sweeps to shard.Config's default
// per-stream RingCapacity (1024). Under RejectNew the pipeline sheds
// whatever a top-up offers past a full ring, so a larger count would drop
// frames at level 0, where nothing is injected, and the dropped column
// would measure the ring size instead of the faults.
const faultFramesPerStream = 1024

// faults sweeps fault intensity over the supervised sharded endsystem: at
// each level the deterministic schedule injects proportionally more PCI
// failures, bank-switch timeouts, pipeline crashes and QM saturation
// bursts, and the table reports how throughput and the frame ledger
// degrade as the self-healing machinery absorbs them. The same seed
// reproduces the same sweep bit for bit; the heaviest level's recovery
// trace is printed for inspection.
func faults(csvPath string, shards int, seed int64) error {
	if shards < 1 {
		return fmt.Errorf("-shards %d", shards)
	}
	const (
		slotsPerShard   = 4
		framesPerStream = faultFramesPerStream
		levels          = 5
	)
	fmt.Printf("Fault-injection sweep — %d shards × %d streams, %d frames/stream, seed %d, RejectNew overload policy\n",
		shards, slotsPerShard, framesPerStream, seed)
	fmt.Println("level  crashes  pci  sat  delivered   dropped  restarts  dead  reagg  rounds  modeled_pps")

	var pps, dropped []stats.Point
	var lastTrace string
	for lvl := 0; lvl < levels; lvl++ {
		var sched *fault.Schedule
		profile := fault.Profile{
			Seed:          seed + int64(lvl),
			Shards:        shards,
			ShardCrashes:  lvl,
			PCIFails:      2 * lvl,
			BankTimeouts:  lvl,
			QMSaturations: lvl,
			Horizon:       uint64(framesPerStream),
		}
		if lvl > 0 {
			var err error
			sched, err = fault.NewSchedule(profile)
			if err != nil {
				return err
			}
		}
		var tr fault.Trace
		res, err := endsystem.RunShardedSupervised(
			shards, slotsPerShard, framesPerStream, pci.ModePIO, decision.ProgramDWCS,
			sched, shard.RecoveryConfig{Policy: qm.RejectNew}, &tr)
		if err != nil {
			return fmt.Errorf("level %d: %w\n%s", lvl, err, tr.String())
		}
		if res.Delivered+res.Dropped != res.Target {
			return fmt.Errorf("level %d: conservation violated: %d + %d != %d",
				lvl, res.Delivered, res.Dropped, res.Target)
		}
		fmt.Printf("%5d  %7d  %3d  %3d  %9d  %8d  %8d  %4d  %5d  %6d  %11.0f\n",
			lvl, profile.ShardCrashes, profile.PCIFails+profile.BankTimeouts,
			profile.QMSaturations, res.Delivered, res.Dropped, res.Restarts,
			len(res.DeadShards), res.ReaggregatedSlots, res.Rounds, res.PacketsPerS)
		pps = append(pps, stats.Point{X: float64(lvl), Y: res.PacketsPerS})
		dropped = append(dropped, stats.Point{X: float64(lvl), Y: float64(res.Dropped)})
		if tr.Len() > 0 {
			lastTrace = tr.String()
		}
	}
	fmt.Println("(conservation held at every level: delivered + dropped == streams × frames)")
	if lastTrace != "" {
		fmt.Println("\nRecovery trace of the heaviest faulted level (replayable from the seed):")
		fmt.Print(lastTrace)
	}
	if csvPath != "" {
		if err := writeCSV(csvPath, "fault_level",
			[]string{"modeled_pps", "dropped_frames"},
			[][]stats.Point{pps, dropped}, 1); err != nil {
			return err
		}
	}
	return faultsPerProgram(shards, seed)
}

// faultsPerProgram reruns a mid-intensity fault mix once under every
// registered rank program: recovery and conservation are supervisor
// properties that must hold for all disciplines, so any program whose row
// breaks the ledger is a program bug, not a fault-injection artifact.
func faultsPerProgram(shards int, seed int64) error {
	const (
		slotsPerShard   = 4
		framesPerStream = faultFramesPerStream
	)
	profile := fault.Profile{
		Seed:          seed + 2,
		Shards:        shards,
		ShardCrashes:  2,
		PCIFails:      4,
		BankTimeouts:  2,
		QMSaturations: 2,
		Horizon:       uint64(framesPerStream),
	}
	fmt.Println("\nPer-program conservation pass (level-2 fault mix under every rank program):")
	fmt.Println("program          delivered   dropped  restarts  dead  rounds  modeled_pps")
	for _, p := range decision.Programs() {
		sched, err := fault.NewSchedule(profile)
		if err != nil {
			return err
		}
		var tr fault.Trace
		res, err := endsystem.RunShardedSupervised(
			shards, slotsPerShard, framesPerStream, pci.ModePIO, p,
			sched, shard.RecoveryConfig{Policy: qm.RejectNew}, &tr)
		if err != nil {
			return fmt.Errorf("program %v: %w\n%s", p, err, tr.String())
		}
		if res.Delivered+res.Dropped != res.Target {
			return fmt.Errorf("program %v: conservation violated: %d + %d != %d",
				p, res.Delivered, res.Dropped, res.Target)
		}
		fmt.Printf("%-15s  %9d  %8d  %8d  %4d  %6d  %11.0f\n",
			p, res.Delivered, res.Dropped, res.Restarts,
			len(res.DeadShards), res.Rounds, res.PacketsPerS)
	}
	fmt.Println("(conservation held under every program)")
	return nil
}
