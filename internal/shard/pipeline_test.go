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

// driverRun is the outcome of one shard of one run — everything two runs of
// the same admitted set must agree on, down to the decision and idle cycle
// counts and the deadline outcomes.
type driverRun struct {
	Frames       uint64
	PerSlot      []uint64
	Decisions    uint64
	IdleCycles   uint64
	Counters     regblock.Counters
	Submitted    uint64
	Dequeued     uint64
	Dropped      uint64
	VirtualNs    float64
	TransferNs   float64
	Batches      uint64
	BankSwitches uint64
}

// TestPipelineDriversAgree runs one admitted set through Run twice and
// requires the same answer both times. 201 frames × 4 streams per shard is
// not a multiple of TransferBatch, so the trailing partial PCI batch is part
// of the answer.
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
			plain := func() []driverRun {
				r := mustRouter(t, Config{
					Shards: shards, SlotsPerShard: slots,
					Mode: tc.mode, BufferPool: tc.pool,
				})
				if _, err := r.AdmitBalanced(shards*slots, edfSpec(slots)); err != nil {
					t.Fatal(err)
				}
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
					t.Fatalf("%v bytes under the bandwidth series, want %v", got, want)
				}
				var out []driverRun
				for k, sr := range res.PerShard {
					out = append(out, driverRun{
						sr.Frames, sr.PerSlot, sr.Decisions, sr.IdleCycles, sr.Counters,
						sr.QM.Submitted, sr.QM.Dequeued, sr.QM.Dropped,
						sr.VirtualNs, sr.TransferNs, r.Bus(k).Batches, r.Bus(k).BankSwitches,
					})
				}
				return out
			}

			want := plain()
			for k, w := range want {
				if w.Frames != slots*frames {
					t.Fatalf("shard %d delivered %d frames, want %d", k, w.Frames, slots*frames)
				}
			}
			if got := plain(); !reflect.DeepEqual(got, want) {
				t.Errorf("Run is not reproducible:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// giveupInjector fails every transfer operation from index `from` on, far
// past any retry budget.
type giveupInjector struct{ from uint64 }

func (g giveupInjector) OnTransfer(op uint64) pci.Fault {
	if op < g.from {
		return pci.Fault{}
	}
	return pci.Fault{Fails: 100}
}

// TestRunPipelineMeterErrorUnblocksPipeline forces transfer-metering
// failures mid-run — a bus that exhausts the retry budget on every transfer,
// so each restart crashes again and the sole shard dies with nowhere to
// re-home its flows — and asserts the error path returns the failure and
// leaves no pipeline goroutine running.
func TestRunPipelineMeterErrorUnblocksPipeline(t *testing.T) {
	before := runtime.NumGoroutine()
	r := mustRouter(t, Config{Shards: 1, SlotsPerShard: 4, Mode: pci.ModePIO})
	if _, err := r.AdmitBalanced(4, edfSpec(4)); err != nil {
		t.Fatal(err)
	}
	r.Bus(0).Injector = giveupInjector{from: 10}
	_, err := r.Run(8000)
	if err == nil || !strings.Contains(err.Error(), "no surviving") {
		t.Fatalf("error = %v, want the sole shard dead", err)
	}
	// One giveup per round: the first crash and each of the two default
	// restarts.
	if got := r.Bus(0).Giveups; got != 3 {
		t.Fatalf("%d bus giveups, want 3", got)
	}
	// The error return waits for the pipeline goroutines; allow a moment
	// for unrelated runtime goroutines to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("pipeline goroutines leaked: %d running, %d before", g, before)
	}
}
