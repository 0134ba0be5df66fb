package shard

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
)

// driverRun is the modeled, timing-independent outcome of one shard of one
// run — everything the three drivers must agree on. Decisions and idle
// cycles are deliberately absent: the threaded driver spins idle cycles
// while its producer goroutine catches up, and for the same reason the
// counters are compared with their deadline outcomes (Met/Missed, which
// depend on how far those idle cycles advanced the scheduler's clock)
// cleared by modeled.
type driverRun struct {
	Frames       uint64
	PerSlot      []uint64
	Counters     regblock.Counters
	Submitted    uint64
	Dequeued     uint64
	Dropped      uint64
	VirtualNs    float64
	TransferNs   float64
	Batches      uint64
	BankSwitches uint64
}

// modeled strips the goroutine-timing-dependent deadline outcomes.
func modeled(c regblock.Counters) regblock.Counters {
	c.Met, c.Missed = 0, 0
	return c
}

// TestPipelineDriversAgree runs one admitted set through the threaded
// driver, the run-to-completion driver and the supervisor with no schedule,
// and requires the same answer from all three. 201 frames × 4 streams per
// shard is not a multiple of TransferBatch, so the trailing partial PCI
// batch is part of the answer.
func TestPipelineDriversAgree(t *testing.T) {
	const shards, slots, frames = 2, 4, 201
	for _, tc := range []struct {
		name string
		pool qm.SharedConfig
		mode pci.Mode
	}{
		{"rings/none", qm.SharedConfig{}, pci.ModeNone},
		{"rings/pio", qm.SharedConfig{}, pci.ModePIO},
		{"pool/none", qm.SharedConfig{Reservation: 1, Burst: 32, DelayTarget: 64}, pci.ModeNone},
		{"pool/pio", qm.SharedConfig{Reservation: 1, Burst: 32, DelayTarget: 64}, pci.ModePIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(rtc bool) *Router {
				r := mustRouter(t, Config{
					Shards: shards, SlotsPerShard: slots,
					Mode: tc.mode, BufferPool: tc.pool, RunToCompletion: rtc,
				})
				if _, err := r.AdmitBalanced(shards*slots, edfSpec(slots)); err != nil {
					t.Fatal(err)
				}
				return r
			}
			plain := func(rtc bool) []driverRun {
				r := build(rtc)
				res, err := r.Run(frames)
				if err != nil {
					t.Fatal(err)
				}
				// Total bytes under the bandwidth series: MB/s × window.
				windowNs := float64(slots*frames) * DefaultHostNs / 32
				var mbps float64
				for _, pt := range res.Bandwidth {
					mbps += pt.Y
				}
				if got, want := math.Round(mbps*windowNs/1e3), float64(res.Frames*1500); got != want {
					t.Fatalf("rtc=%v: %v bytes under the bandwidth series, want %v", rtc, got, want)
				}
				var out []driverRun
				for k, sr := range res.PerShard {
					out = append(out, driverRun{
						sr.Frames, sr.PerSlot, modeled(sr.Counters),
						sr.QM.Submitted, sr.QM.Dequeued, sr.QM.Dropped,
						sr.VirtualNs, sr.TransferNs, r.Bus(k).Batches, r.Bus(k).BankSwitches,
					})
				}
				return out
			}
			supervised := func() []driverRun {
				r := build(false)
				res, sup, err := r.runSupervised(frames, nil, RecoveryConfig{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != 1 || res.Delivered != res.Target {
					t.Fatalf("fault-free supervised run: %+v", res)
				}
				var out []driverRun
				for k, u := range sup {
					qms := u.s.manager.Totals()
					out = append(out, driverRun{
						u.delivered, u.perSlot, modeled(u.s.sched.Totals()),
						qms.Submitted, qms.Dequeued, qms.Dropped,
						u.virtualNs(), r.Bus(k).BusyNs, r.Bus(k).Batches, r.Bus(k).BankSwitches,
					})
				}
				return out
			}

			want := plain(false)
			for k, w := range want {
				if w.Frames != slots*frames {
					t.Fatalf("threaded shard %d delivered %d frames, want %d", k, w.Frames, slots*frames)
				}
			}
			if got := plain(true); !reflect.DeepEqual(got, want) {
				t.Errorf("run-to-completion diverges from threaded:\n got %+v\nwant %+v", got, want)
			}
			if got := supervised(); !reflect.DeepEqual(got, want) {
				t.Errorf("supervised diverges from threaded:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// giveupInjector fails one transfer operation far past any retry budget.
type giveupInjector struct{ at uint64 }

func (g giveupInjector) OnTransfer(op uint64) pci.Fault {
	if op != g.at {
		return pci.Fault{}
	}
	return pci.Fault{Fails: 100}
}

// TestRunPipelineMeterErrorUnblocksPipeline forces a transfer-metering
// failure mid-run — a bus fault that exhausts the retry budget — and asserts
// the error path stops the producer and transmission-engine goroutines
// instead of leaving them spinning on Gosched forever (a goroutine + CPU
// leak), under both drivers.
func TestRunPipelineMeterErrorUnblocksPipeline(t *testing.T) {
	for _, rtc := range []bool{false, true} {
		before := runtime.NumGoroutine()
		r := mustRouter(t, Config{Shards: 1, SlotsPerShard: 4, Mode: pci.ModePIO, RunToCompletion: rtc})
		if _, err := r.AdmitBalanced(4, edfSpec(4)); err != nil {
			t.Fatal(err)
		}
		r.Bus(0).Injector = giveupInjector{at: 10}
		_, err := r.Run(8000)
		if err == nil || !strings.Contains(err.Error(), "retry budget") {
			t.Fatalf("rtc=%v: error = %v, want the bus giving up", rtc, err)
		}
		if got := r.Bus(0).Giveups; got != 1 {
			t.Fatalf("rtc=%v: %d bus giveups, want 1", rtc, got)
		}
		// The error return waits for the pipeline goroutines; allow a moment
		// for unrelated runtime goroutines to settle.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("rtc=%v: pipeline goroutines leaked: %d running, %d before", rtc, g, before)
		}
	}
}
