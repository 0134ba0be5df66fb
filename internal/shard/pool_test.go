package shard

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qm"
)

// pooledRouter builds a router whose shards run the delay-driven shared
// buffer pool with a deliberately tiny reservation, so any sustained burst
// must borrow from the pool.
func pooledRouter(t *testing.T, shards, slotsPerShard int, pool qm.SharedConfig) *Router {
	t.Helper()
	return mustRouter(t, Config{
		Shards:        shards,
		SlotsPerShard: slotsPerShard,
		BufferPool:    pool,
	})
}

// admitHotCold admits hot streams onto one shard and cold streams onto
// another by probing flow-hash homes, returning total admitted. The hot
// shard carries a weighted burst load; the cold shard nearly idles.
func admitHotCold(t *testing.T, r *Router, hot, cold int) int {
	t.Helper()
	hotShard, coldShard := -1, -1
	admitted := 0
	for id := StreamID(0); admitted < hot+cold; id++ {
		if id > 1<<16 {
			t.Fatalf("flow hash failed to fill hot/cold shards")
		}
		k := r.ShardOf(id)
		switch {
		case hotShard == -1 || k == hotShard:
			if r.ShardStreams(k) >= hot {
				continue
			}
			hotShard = k
		case coldShard == -1 || k == coldShard:
			if r.ShardStreams(k) >= cold {
				continue
			}
			coldShard = k
		default:
			continue
		}
		if err := r.Admit(id, edfSpec(4)); err != nil {
			t.Fatalf("Admit(%d): %v", id, err)
		}
		admitted++
	}
	return admitted
}

// poolQuiescent asserts every shard's lending ledger conserved credits:
// all lent capacity returned, borrows matched by reclaims. It returns the
// total borrows so callers can assert lending actually happened.
func poolQuiescent(t *testing.T, r *Router) uint64 {
	t.Helper()
	var borrows uint64
	for _, s := range r.shards {
		st, ok := s.manager.PoolStats()
		if !ok {
			t.Fatalf("shard %d has no pool", s.index)
		}
		if st.Free != int64(st.Burst) || st.Lent != 0 {
			t.Fatalf("shard %d leaked pool credits: %+v", s.index, st)
		}
		if st.Borrows != st.Reclaims {
			t.Fatalf("shard %d borrows %d != reclaims %d", s.index, st.Borrows, st.Reclaims)
		}
		borrows += st.Borrows
	}
	return borrows
}

// The hot/cold chaos scenario: weighted hot/cold shard bursts with the
// shared pool lending capacity — every frame conserved, every credit
// returned.
func TestPooledHotColdBurstConservation(t *testing.T) {
	const perStream = 400
	// Every run is run-to-completion; the subtest keeps the scenario's name.
	t.Run("run-to-completion", func(t *testing.T) {
		r := pooledRouter(t, 2, 8, qm.SharedConfig{Reservation: 1, Burst: 64, DelayTarget: 64})
		streams := admitHotCold(t, r, 8, 2)
		res, err := r.Run(perStream)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := uint64(streams * perStream)
		if res.Frames != want {
			t.Fatalf("delivered %d frames, want %d", res.Frames, want)
		}
		for _, sr := range res.PerShard {
			if sr.QM.Submitted != sr.Frames || sr.QM.Dequeued != sr.Frames {
				t.Fatalf("shard %d QM accounting %+v for %d frames", sr.Shard, sr.QM, sr.Frames)
			}
			if sr.QM.Dropped != 0 {
				t.Fatalf("shard %d dropped %d under backpressure", sr.Shard, sr.QM.Dropped)
			}
		}
		if borrows := poolQuiescent(t, r); borrows == 0 {
			t.Fatal("hot/cold burst run never lent a credit — the pool was not exercised")
		}
	})
}

// The pool's lending ledger and delay histogram surface through the router
// metrics, and an instrumented pooled run stays conserved.
func TestPooledRunMetrics(t *testing.T) {
	const perStream = 200
	r := pooledRouter(t, 2, 4, qm.SharedConfig{Reservation: 1, Burst: 32, DelayTarget: 64})
	if _, err := r.AdmitBalanced(8, edfSpec(4)); err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg, "shard")
	res, err := r.Run(perStream)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Frames != 8*perStream {
		t.Fatalf("delivered %d frames", res.Frames)
	}
	snap := reg.Snapshot()
	var sawLedger, sawDelay bool
	for _, m := range snap.Metrics {
		switch m.Name {
		case "shard.shard0.qm.pool.free":
			sawLedger = true
		case "shard.shard0.qm.delay":
			sawDelay = true
			if m.Count == 0 {
				t.Fatal("delay histogram recorded nothing")
			}
		}
	}
	if !sawLedger || !sawDelay {
		t.Fatalf("pool metrics missing: ledger=%v delay=%v", sawLedger, sawDelay)
	}
}

// Fault injection on top of the shared pool: supervised rounds crash and
// restart shards while the pool lends, and both invariants hold at the end —
// frame conservation (delivered + dropped == target) and credit conservation
// (every borrow reclaimed, even through the dead-shard salvage drain).
func TestPooledSupervisedChaosConservation(t *testing.T) {
	sched, err := fault.NewSchedule(fault.Profile{Seed: 7, Shards: 2, ShardCrashes: 2, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	r := pooledRouter(t, 2, 4, qm.SharedConfig{Reservation: 1, Burst: 32, DelayTarget: 64})
	if _, err := r.AdmitBalanced(8, edfSpec(4)); err != nil {
		t.Fatalf("AdmitBalanced: %v", err)
	}
	var tr fault.Trace
	res, err := r.RunSupervised(150, sched, RecoveryConfig{}, &tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, tr.String())
	}
	if res.Frames+res.Dropped != res.Target {
		t.Fatalf("conservation: delivered %d + dropped %d != target %d\n%s",
			res.Frames, res.Dropped, res.Target, tr.String())
	}
	poolQuiescent(t, r)
}
