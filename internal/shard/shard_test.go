package shard

import (
	"math"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
)

func edfSpec(slots int) attr.Spec {
	return attr.Spec{Class: attr.EDF, Period: uint16(slots)}
}

func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 0, SlotsPerShard: 4},
		{Shards: -1, SlotsPerShard: 4},
		{Shards: 2, SlotsPerShard: 3}, // not a power of two
		{Shards: 2, SlotsPerShard: 4, HostNs: -1},
		{Shards: 2, SlotsPerShard: 4, FrameBytes: -5},
		{Shards: 2, SlotsPerShard: 4, TransferBatch: -1},
		{Shards: 2, SlotsPerShard: 4, MeterWindows: -1},
		{Shards: 2, SlotsPerShard: 4, RingCapacity: 3}, // not a power of two
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestShardOfDeterministicAndInRange(t *testing.T) {
	r := mustRouter(t, Config{Shards: 4, SlotsPerShard: 4})
	seen := make(map[int]bool)
	for id := StreamID(0); id < 256; id++ {
		k := r.ShardOf(id)
		if k < 0 || k >= 4 {
			t.Fatalf("ShardOf(%d) = %d out of range", id, k)
		}
		if k2 := r.ShardOf(id); k2 != k {
			t.Fatalf("ShardOf(%d) not deterministic: %d then %d", id, k, k2)
		}
		seen[k] = true
	}
	// FNV-1a over 256 consecutive IDs must touch every one of 4 shards.
	if len(seen) != 4 {
		t.Fatalf("flow hash reached only %d/4 shards", len(seen))
	}
}

func TestAdmitFlowHashPlacementAndShardFull(t *testing.T) {
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 2})
	// Find three IDs hashing to the same shard: the third must be rejected
	// (flow-hash admission control never re-homes a stream).
	var same []StreamID
	home := -1
	for id := StreamID(0); len(same) < 3; id++ {
		k := r.ShardOf(id)
		if home == -1 {
			home = k
		}
		if k == home {
			same = append(same, id)
		}
	}
	spec := edfSpec(2)
	if err := r.Admit(same[0], spec); err != nil {
		t.Fatalf("Admit(%d): %v", same[0], err)
	}
	if err := r.Admit(same[0], spec); err == nil {
		t.Fatalf("duplicate Admit accepted")
	}
	if err := r.Admit(same[1], spec); err != nil {
		t.Fatalf("Admit(%d): %v", same[1], err)
	}
	err := r.Admit(same[2], spec)
	if err == nil {
		t.Fatalf("Admit(%d) into full shard %d accepted", same[2], home)
	}
	if !strings.Contains(err.Error(), "full") {
		t.Fatalf("shard-full error %q doesn't say so", err)
	}
	if got := r.ShardStreams(home); got != 2 {
		t.Fatalf("home shard carries %d streams, want 2", got)
	}
}

func TestAdmitBalancedEvenLoading(t *testing.T) {
	r := mustRouter(t, Config{Shards: 4, SlotsPerShard: 8})
	ids, err := r.AdmitBalanced(16, edfSpec(8))
	if err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	if len(ids) != 16 || r.Streams() != 16 {
		t.Fatalf("admitted %d ids / %d streams, want 16", len(ids), r.Streams())
	}
	for k := 0; k < 4; k++ {
		if got := r.ShardStreams(k); got != 4 {
			t.Fatalf("shard %d carries %d streams, want 4 (balanced)", k, got)
		}
	}
	// Every returned ID must live on its flow-hashed home shard.
	for _, id := range ids {
		if r.Backlog(id) != 0 {
			t.Fatalf("fresh stream %d has backlog", id)
		}
	}
	if _, err := r.AdmitBalanced(1000, edfSpec(8)); err == nil {
		t.Fatalf("AdmitBalanced over capacity accepted")
	}
}

func TestSubmitDispatchAndBacklog(t *testing.T) {
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 4})
	ids, err := r.AdmitBalanced(4, edfSpec(4))
	if err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	id := ids[0]
	if r.Submit(StreamID(9999), qm.Frame{Size: 100}) {
		t.Fatalf("Submit to unknown stream accepted")
	}
	if r.Backlog(StreamID(9999)) != 0 {
		t.Fatalf("unknown stream reports backlog")
	}
	for k := 0; k < 3; k++ {
		if !r.Submit(id, qm.Frame{Size: 100, Arrival: uint64(k)}) {
			t.Fatalf("Submit %d rejected", k)
		}
	}
	if got := r.Backlog(id); got != 3 {
		t.Fatalf("Backlog(%d) = %d, want 3", id, got)
	}
	// The frame must have landed on the home shard's manager, not anywhere
	// else.
	loc := r.byID[id]
	if got := r.shards[loc.shard].manager.Backlog(loc.slot); got != 3 {
		t.Fatalf("home shard slot backlog %d, want 3", got)
	}
	for k := range r.shards {
		if k == loc.shard {
			continue
		}
		if tot := r.shards[k].manager.Totals(); tot.Submitted != 0 {
			t.Fatalf("shard %d saw %d submissions for a foreign stream", k, tot.Submitted)
		}
	}
}

func TestMergeCounters(t *testing.T) {
	a := regblock.Counters{Wins: 1, Services: 2, Met: 3, Missed: 4, Drops: 5, Violations: 6}
	b := regblock.Counters{Wins: 10, Services: 20, Met: 30, Missed: 40, Drops: 50, Violations: 60}
	got := MergeCounters(a, b)
	want := regblock.Counters{Wins: 11, Services: 22, Met: 33, Missed: 44, Drops: 55, Violations: 66}
	if got != want {
		t.Fatalf("MergeCounters = %+v, want %+v", got, want)
	}
	if z := MergeCounters(); z != (regblock.Counters{}) {
		t.Fatalf("MergeCounters() = %+v, want zero", z)
	}
}

func TestRunErrors(t *testing.T) {
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 2})
	if _, err := r.Run(10); err == nil {
		t.Fatalf("Run with no streams accepted")
	}
	r = mustRouter(t, Config{Shards: 2, SlotsPerShard: 2})
	if _, err := r.AdmitBalanced(2, edfSpec(2)); err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	if _, err := r.Run(0); err == nil {
		t.Fatalf("Run(0) accepted")
	}
	if _, err := r.Run(16); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := r.Run(16); err == nil {
		t.Fatalf("second Run accepted")
	}
	if err := r.Admit(StreamID(12345), edfSpec(2)); err == nil {
		t.Fatalf("Admit after Run accepted")
	}
}

func TestRunFrameConservation(t *testing.T) {
	const perStream = 500
	r := mustRouter(t, Config{Shards: 4, SlotsPerShard: 4})
	ids, err := r.AdmitBalanced(8, edfSpec(4))
	if err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	res, err := r.Run(perStream)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := uint64(len(ids) * perStream)
	if res.Frames != want {
		t.Fatalf("delivered %d frames, want %d", res.Frames, want)
	}
	var sum uint64
	var merged regblock.Counters
	for _, sr := range res.PerShard {
		sum += sr.Frames
		if sr.Frames != uint64(sr.Streams)*perStream {
			t.Fatalf("shard %d delivered %d frames for %d streams", sr.Shard, sr.Frames, sr.Streams)
		}
		var slotSum uint64
		for _, c := range sr.PerSlot {
			slotSum += c
		}
		if slotSum != sr.Frames {
			t.Fatalf("shard %d per-slot sum %d != frames %d", sr.Shard, slotSum, sr.Frames)
		}
		if sr.QM.Submitted != sr.Frames || sr.QM.Dequeued != sr.Frames {
			t.Fatalf("shard %d QM accounting %+v for %d frames", sr.Shard, sr.QM, sr.Frames)
		}
		merged = MergeCounters(merged, sr.Counters)
	}
	if sum != want {
		t.Fatalf("per-shard frames sum %d, want %d", sum, want)
	}
	if res.Counters != merged {
		t.Fatalf("aggregate counters %+v != merged %+v", res.Counters, merged)
	}
	if res.Counters.Services != want {
		t.Fatalf("aggregate Services %d, want %d", res.Counters.Services, want)
	}
	if len(res.Bandwidth) == 0 {
		t.Fatalf("no aggregate bandwidth series")
	}
}

func TestRunModeledTimeIsMaxOverShards(t *testing.T) {
	const perStream = 2000
	// One shard, one stream: the §5.2 ModeNone operating point must fall
	// out — 1e9/2130 ≈ 469483 packets/s.
	r := mustRouter(t, Config{Shards: 1, SlotsPerShard: 2})
	if err := r.Admit(0, edfSpec(2)); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	res, err := r.Run(perStream)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantPPS := 1e9 / DefaultHostNs
	if math.Abs(res.PacketsPerS-wantPPS) > 1 {
		t.Fatalf("1-shard ModeNone pps = %v, want ≈%v", res.PacketsPerS, wantPPS)
	}

	// Four evenly loaded shards: modeled completion is the per-shard max,
	// so aggregate modeled throughput is 4× the single-pipeline rate.
	r4 := mustRouter(t, Config{Shards: 4, SlotsPerShard: 2})
	if _, err := r4.AdmitBalanced(4, edfSpec(2)); err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	res4, err := r4.Run(perStream)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var maxShard float64
	for _, sr := range res4.PerShard {
		if sr.VirtualNs > maxShard {
			maxShard = sr.VirtualNs
		}
	}
	if res4.VirtualNs != maxShard {
		t.Fatalf("Result.VirtualNs %v != max shard %v", res4.VirtualNs, maxShard)
	}
	if math.Abs(res4.PacketsPerS-4*wantPPS) > 4 {
		t.Fatalf("4-shard pps = %v, want ≈%v", res4.PacketsPerS, 4*wantPPS)
	}
	if res4.WallNs <= 0 || res4.WallPacketsPerS <= 0 {
		t.Fatalf("wall-clock throughput not reported: %+v", res4)
	}
}

func TestRunWithEmptyShards(t *testing.T) {
	// More shards than streams: unloaded shards must idle out cleanly and
	// contribute nothing to the aggregate.
	r := mustRouter(t, Config{Shards: 8, SlotsPerShard: 2})
	spec := edfSpec(2)
	if err := r.Admit(0, spec); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	res, err := r.Run(200)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Frames != 200 {
		t.Fatalf("delivered %d frames, want 200", res.Frames)
	}
	loaded := 0
	for _, sr := range res.PerShard {
		if sr.Streams > 0 {
			loaded++
			continue
		}
		if sr.Frames != 0 || sr.VirtualNs != 0 {
			t.Fatalf("empty shard %d reports work: %+v", sr.Shard, sr)
		}
	}
	if loaded != 1 {
		t.Fatalf("%d loaded shards, want 1", loaded)
	}
}

func TestRunPIOModeMetersTransfers(t *testing.T) {
	r := mustRouter(t, Config{Shards: 2, SlotsPerShard: 2, Mode: pci.ModePIO})
	if _, err := r.AdmitBalanced(2, edfSpec(2)); err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	res, err := r.Run(640)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, sr := range res.PerShard {
		// A fault-free run leaves the bus's no-fault fast path armed.
		if inj := r.Bus(sr.Shard).Injector; inj != nil {
			t.Fatalf("shard %d bus has injector %#v after a fault-free run", sr.Shard, inj)
		}
		if sr.Streams == 0 {
			continue
		}
		if sr.TransferNs <= 0 {
			t.Fatalf("shard %d metered no PIO transfer time", sr.Shard)
		}
		if sr.VirtualNs <= float64(sr.Frames)*DefaultHostNs {
			t.Fatalf("shard %d virtual time excludes transfers", sr.Shard)
		}
	}
}
