package fault_test

// The chaos suite: end-to-end fault-injection runs through the public
// endsystem facade. Three properties hold for every scenario:
//
//  1. Determinism — the same seed produces a bit-identical fault and
//     recovery trace, run after run, goroutine interleaving be damned.
//  2. Conservation — every admitted frame is accounted for:
//     delivered + dropped-with-accounting == streams × framesPerStream.
//  3. Bounded recovery — the supervisor converges in a bounded number of
//     rounds (no retry-forever, no hang).
//
// And the zeroth property: with no injector, the supervised endsystem is
// figure-identical to the plain sharded run.

import (
	"strings"
	"testing"

	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/shard"
)

// chaosScenarios is the shared scenario table: each entry is a distinct
// fault mix the recovery machinery must survive.
var chaosScenarios = []struct {
	name    string
	mode    pci.Mode
	profile fault.Profile
	rcfg    shard.RecoveryConfig
	frames  int
}{
	{
		name:    "crash and restart",
		mode:    pci.ModeNone,
		profile: fault.Profile{Seed: 11, Shards: 2, ShardCrashes: 1, Horizon: 300},
		frames:  100,
	},
	{
		name:    "dead shard reaggregates",
		mode:    pci.ModeNone,
		profile: fault.Profile{Seed: 3, Shards: 2, ShardCrashes: 4, Horizon: 200},
		rcfg:    shard.RecoveryConfig{MaxRestarts: 1},
		frames:  100,
	},
	{
		name: "pci stalls and giveups",
		mode: pci.ModePIO,
		profile: fault.Profile{
			Seed: 21, Shards: 2, PCIFails: 4, BankTimeouts: 2, Horizon: 40,
		},
		frames: 200,
	},
	{
		name: "qm saturation shed",
		mode: pci.ModeNone,
		profile: fault.Profile{
			Seed: 31, Shards: 2, QMSaturations: 3, SaturationBurst: 4, Horizon: 300,
		},
		rcfg:   shard.RecoveryConfig{Policy: qm.RejectNew},
		frames: 100,
	},
	{
		name: "everything at once",
		mode: pci.ModePIO,
		profile: fault.Profile{
			Seed: 7, Shards: 3, ShardCrashes: 2, PCIFails: 3,
			PCIStalls: 2, BankTimeouts: 1, QMSaturations: 2, Horizon: 250,
		},
		rcfg:   shard.RecoveryConfig{Policy: qm.DropOldest},
		frames: 150,
	},
}

func runScenario(t *testing.T, i int) (*shard.SupervisedResult, *fault.Trace) {
	t.Helper()
	sc := chaosScenarios[i]
	sched, err := fault.NewSchedule(sc.profile)
	if err != nil {
		t.Fatal(err)
	}
	var tr fault.Trace
	res, err := endsystem.RunShardedSupervised(
		sc.profile.Shards, 4, sc.frames, sc.mode, decision.ProgramDWCS, sched, sc.rcfg, &tr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", sc.name, err, tr.String())
	}
	return res, &tr
}

// TestChaosDeterministicTrace reruns every scenario and demands the fault
// and recovery trace be byte-identical — the replay contract that makes a
// chaos failure debuggable from its seed alone.
func TestChaosDeterministicTrace(t *testing.T) {
	for i, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			_, first := runScenario(t, i)
			_, second := runScenario(t, i)
			if first.String() != second.String() {
				t.Fatalf("seed %d trace diverged between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					sc.profile.Seed, first.String(), second.String())
			}
		})
	}
}

// TestChaosConservation checks the frame ledger in every scenario:
// delivered + dropped-with-accounting covers the full admitted load, with
// drops only under a shedding policy.
func TestChaosConservation(t *testing.T) {
	for i, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			res, tr := runScenario(t, i)
			if res.Delivered+res.Dropped != res.Target {
				t.Fatalf("delivered %d + dropped %d != target %d\n%s",
					res.Delivered, res.Dropped, res.Target, tr.String())
			}
			if sc.rcfg.Policy == qm.Backpressure && res.Dropped != 0 {
				t.Fatalf("backpressure must not drop: %d", res.Dropped)
			}
			if len(res.DeadShards) > 0 && res.ReaggregatedSlots == 0 {
				t.Fatalf("dead shards %v with no re-aggregated slots", res.DeadShards)
			}
		})
	}
}

// TestChaosAllPrograms runs the fault schedules under every registered rank
// program: crash/restart recovery and the frame-conservation ledger are
// properties of the supervisor, not of any one discipline, so a program that
// breaks them under faults is a program bug. Determinism holds per program
// too — the trace is replayed once for each.
func TestChaosAllPrograms(t *testing.T) {
	// "crash and restart" and "everything at once": one pure-crash scenario
	// and one mixing every fault class, under shedding.
	for _, i := range []int{0, 4} {
		sc := chaosScenarios[i]
		for _, p := range decision.Programs() {
			t.Run(sc.name+"/"+p.String(), func(t *testing.T) {
				run := func() (*shard.SupervisedResult, *fault.Trace) {
					sched, err := fault.NewSchedule(sc.profile)
					if err != nil {
						t.Fatal(err)
					}
					var tr fault.Trace
					res, err := endsystem.RunShardedSupervised(
						sc.profile.Shards, 4, sc.frames, sc.mode, p, sched, sc.rcfg, &tr)
					if err != nil {
						t.Fatalf("%s/%v: %v\n%s", sc.name, p, err, tr.String())
					}
					return res, &tr
				}
				res, tr := run()
				if res.Delivered+res.Dropped != res.Target {
					t.Fatalf("program %v: delivered %d + dropped %d != target %d\n%s",
						p, res.Delivered, res.Dropped, res.Target, tr.String())
				}
				if sc.rcfg.Policy == qm.Backpressure && res.Dropped != 0 {
					t.Fatalf("program %v: backpressure must not drop: %d", p, res.Dropped)
				}
				_, second := run()
				if tr.String() != second.String() {
					t.Fatalf("program %v: seed %d trace diverged between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
						p, sc.profile.Seed, tr.String(), second.String())
				}
			})
		}
	}
}

// TestChaosBoundedRecovery bounds the supervision rounds: at worst one
// round per scheduled fault event plus the fault-free epilogue — the
// supervisor may never spin.
func TestChaosBoundedRecovery(t *testing.T) {
	for i, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			res, tr := runScenario(t, i)
			sched, err := fault.NewSchedule(sc.profile)
			if err != nil {
				t.Fatal(err)
			}
			bound := 3 + len(sched.Events())
			if res.Rounds > bound {
				t.Fatalf("recovery took %d rounds, bound %d\n%s", res.Rounds, bound, tr.String())
			}
			if res.Restarts > 0 || len(res.DeadShards) > 0 {
				if res.Rounds < 2 {
					t.Fatalf("recovery actions in a single round: %+v", res)
				}
			}
		})
	}
}

// TestChaosNilInjectorMatchesPlainRun pins the zeroth property: with no
// fault schedule, the supervised endsystem reproduces the plain sharded
// run's figures exactly — same frames, same hardware service count, no
// recovery actions, empty trace.
func TestChaosNilInjectorMatchesPlainRun(t *testing.T) {
	const shards, slots = 2, 4
	// 201 frames per stream leaves a trailing partial PCI batch on every
	// shard: the metered case pins that both runs charge it.
	for _, tc := range []struct {
		mode   pci.Mode
		frames int
	}{
		{pci.ModeNone, 200},
		{pci.ModePIO, 201},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			plain, err := endsystem.RunShardedOpts(shards, slots, tc.frames, endsystem.ShardedOptions{Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			var tr fault.Trace
			supd, err := endsystem.RunShardedSupervised(
				shards, slots, tc.frames, tc.mode, decision.ProgramDWCS, nil, shard.RecoveryConfig{}, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if supd.Delivered != plain.Frames {
				t.Fatalf("supervised delivered %d, plain %d", supd.Delivered, plain.Frames)
			}
			if supd.Counters.Services != plain.Counters.Services {
				t.Fatalf("service counters diverge: %d vs %d", supd.Counters.Services, plain.Counters.Services)
			}
			if supd.Rounds != 1 || supd.Restarts != 0 || supd.Dropped != 0 || len(supd.DeadShards) != 0 {
				t.Fatalf("nil injector triggered recovery: %+v", supd)
			}
			if tr.Len() != 0 {
				t.Fatalf("nil injector wrote a trace:\n%s", tr.String())
			}
			if supd.VirtualNs != plain.VirtualNs || supd.PacketsPerS != plain.PacketsPerS {
				t.Fatalf("modeled time: supervised %v ns / %v pps, plain %v ns / %v pps",
					supd.VirtualNs, supd.PacketsPerS, plain.VirtualNs, plain.PacketsPerS)
			}
			// Evenly loaded shards deliver the same frame count, so each
			// plain shard's modeled time (host cost + its own bus's BusyNs)
			// must equal the supervised maximum: no bus metered less.
			for _, sr := range plain.PerShard {
				if sr.Frames != supd.PerShardDelivered[sr.Shard] || sr.VirtualNs != supd.VirtualNs {
					t.Fatalf("shard %d: plain %d frames in %v ns (bus %v ns), supervised %d frames, max %v ns",
						sr.Shard, sr.Frames, sr.VirtualNs, sr.TransferNs, supd.PerShardDelivered[sr.Shard], supd.VirtualNs)
				}
			}
		})
	}
}

// TestChaosDegradedServiceContinues is the §4.2 claim end to end: after a
// shard dies, its flows continue as streamlets on survivors' stream-slots —
// QoS degrades but every frame still gets service (or is accounted for).
func TestChaosDegradedServiceContinues(t *testing.T) {
	res, tr := runScenario(t, 1) // "dead shard reaggregates"
	if len(res.DeadShards) == 0 {
		t.Skipf("seed no longer kills a shard:\n%s", tr.String())
	}
	if res.Delivered == 0 {
		t.Fatal("no frames delivered after degradation")
	}
	if res.RebindEpochs == 0 {
		t.Fatal("re-aggregation must advance survivors' rebind epochs")
	}
	wantLines := []string{"dead after", "reaggregate -> shard="}
	for _, want := range wantLines {
		if !strings.Contains(tr.String(), want) {
			t.Fatalf("trace missing %q:\n%s", want, tr.String())
		}
	}
}
