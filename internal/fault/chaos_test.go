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
// The fault-free case is the plain sharded run itself (shard.Router.Run is
// the supervisor with no schedule), pinned in package shard.

import (
	"reflect"
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
	{
		// The ssbench fault sweep's shape (its seed-1 level-2 mix): more
		// frames per stream than the 1024-frame rings hold, shed under
		// RejectNew, so the ledger columns show whether the driver offers
		// and schedules frames in a reproducible order.
		name: "sweep-sized shed",
		mode: pci.ModePIO,
		profile: fault.Profile{
			Seed: 3, Shards: 2, ShardCrashes: 2, PCIFails: 4,
			BankTimeouts: 2, QMSaturations: 2, Horizon: 2000,
		},
		rcfg:   shard.RecoveryConfig{Policy: qm.RejectNew},
		frames: 2000,
	},
}

func runScenario(t *testing.T, i int) (*shard.Result, *fault.Trace) {
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
// and recovery trace be byte-identical and the whole result — ledger,
// counters, modeled time, everything but the two wall-clock fields, which
// time the host — equal: the replay contract that makes a chaos failure
// debuggable from its seed alone.
func TestChaosDeterministicTrace(t *testing.T) {
	for i, sc := range chaosScenarios {
		t.Run(sc.name, func(t *testing.T) {
			res1, first := runScenario(t, i)
			res2, second := runScenario(t, i)
			if first.String() != second.String() {
				t.Fatalf("seed %d trace diverged between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					sc.profile.Seed, first.String(), second.String())
			}
			for _, r := range []*shard.Result{res1, res2} {
				r.WallNs, r.WallPacketsPerS = 0, 0
			}
			if !reflect.DeepEqual(res1, res2) {
				t.Fatalf("seed %d result diverged between runs:\n run 1 %+v\n run 2 %+v",
					sc.profile.Seed, *res1, *res2)
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
			if res.Frames+res.Dropped != res.Target {
				t.Fatalf("delivered %d + dropped %d != target %d\n%s",
					res.Frames, res.Dropped, res.Target, tr.String())
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
				run := func() (*shard.Result, *fault.Trace) {
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
				if res.Frames+res.Dropped != res.Target {
					t.Fatalf("program %v: delivered %d + dropped %d != target %d\n%s",
						p, res.Frames, res.Dropped, res.Target, tr.String())
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

// TestChaosDegradedServiceContinues is the §4.2 claim end to end: after a
// shard dies, its flows continue as streamlets on survivors' stream-slots —
// QoS degrades but every frame still gets service (or is accounted for).
func TestChaosDegradedServiceContinues(t *testing.T) {
	res, tr := runScenario(t, 1) // "dead shard reaggregates"
	if len(res.DeadShards) == 0 {
		t.Skipf("seed no longer kills a shard:\n%s", tr.String())
	}
	if res.Frames == 0 {
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
