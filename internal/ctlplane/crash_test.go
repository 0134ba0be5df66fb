package ctlplane

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestCrashSoakRecoversEveryPoint is the crash-point oracle at test scale:
// every sampled crash offset must recover to the reference identity.
func TestCrashSoakRecoversEveryPoint(t *testing.T) {
	res, err := CrashSoak(CrashSoakConfig{
		Soak: SoakConfig{
			Seed: 5, Events: 2000, EventsPerEpoch: 16,
			Shards: 2, SlotsPerShard: 8, CheckpointEvery: 32,
		},
		Points: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 24 {
		t.Fatalf("recovered %d points, want 24", len(res.Points))
	}
	if res.TornPoints == 0 {
		t.Fatal("no sampled point exercised the torn-tail rule")
	}
	for _, pt := range res.Points {
		if pt.Committed+pt.Torn != pt.Offset {
			t.Fatalf("point %d: committed %d + torn %d != offset", pt.Offset, pt.Committed, pt.Torn)
		}
	}
}

// TestCrashWriterEndToEnd runs a soak whose journal sink dies mid-write —
// the full kill -9 simulation — and recovers from what the sink persisted:
// exactly the torn prefix, which must replay cleanly and carry the
// engine-side sink-error count.
func TestCrashWriterEndToEnd(t *testing.T) {
	// Reference for sizing: how big is this workload's journal?
	cfg := SoakConfig{Seed: 21, Events: 1500, EventsPerEpoch: 16, Shards: 2, SlotsPerShard: 8, CheckpointEvery: 32}
	var full bytes.Buffer
	ref := cfg
	ref.Journal = &full
	if _, err := Soak(ref); err != nil {
		t.Fatal(err)
	}

	var torn bytes.Buffer
	cw := &fault.CrashWriter{W: &torn, Budget: int64(full.Len()) * 2 / 3}
	crashed := cfg
	crashed.Journal = cw
	if _, err := Soak(crashed); err != nil {
		t.Fatal(err) // the engine survives sink death; only the copy is lost
	}
	if _, err := cw.Write(nil); !errors.Is(err, fault.ErrCrash) {
		t.Fatal("budget never spent")
	}
	if int64(torn.Len()) != cw.Budget {
		t.Fatalf("sink persisted %d bytes, budget %d", torn.Len(), cw.Budget)
	}
	// Determinism: the torn sink holds a strict prefix of the reference.
	if !bytes.Equal(torn.Bytes(), full.Bytes()[:torn.Len()]) {
		t.Fatal("torn sink is not a prefix of the reference journal")
	}

	eng, rep, err := Replay(bytes.NewReader(torn.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if led := eng.Ledger(); !led.Balanced() {
		t.Fatalf("recovered engine unbalanced: %+v", led)
	}
	fin, err := Resume(eng, bytes.NewReader(full.Bytes()), rep)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(nil)
	j.h.Write(full.Bytes())
	if sum := j.h.Sum64(); sum != fin.Hash {
		t.Fatalf("recovered journal hash %x, reference %x", fin.Hash, sum)
	}
}

// TestSoakCountsSinkErrors drives a soak through a fault-injected sink and
// checks the engine's sink-error counter saw every injected fault — the
// signal -journal-strict acts on.
func TestSoakCountsSinkErrors(t *testing.T) {
	var buf bytes.Buffer
	sink := fault.NewFaultySink(&buf, fault.SinkPlan{Seed: 4, Errors: 5, ShortWrites: 5, Horizon: 512})
	cfg := SoakConfig{Seed: 8, Events: 800, EventsPerEpoch: 16, Shards: 2, SlotsPerShard: 8, Journal: sink}

	// Soak doesn't expose its engine; run the same workload against a plain
	// engine to get the expected journal, then count the faulted lines.
	res, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JournalLines < 512 {
		t.Fatalf("workload journaled %d lines, want >= horizon 512", res.JournalLines)
	}
	if sink.Injected() != 10 {
		t.Fatalf("sink injected %d faults, want 10", sink.Injected())
	}

	// The engine-side counter must agree: re-run with a fresh engine
	// observed directly.
	sink2 := fault.NewFaultySink(&bytes.Buffer{}, fault.SinkPlan{Seed: 4, Errors: 5, ShortWrites: 5, Horizon: 512})
	eng, err := New(Config{Shards: 2, SlotsPerShard: 8, Journal: sink2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Enqueue(Request{Op: OpDrainShard, Shard: 0})
	for i := 0; i < 600; i++ {
		eng.Step()
	}
	if got, want := eng.SinkErrors(), sink2.Injected(); got != want || got == 0 {
		t.Fatalf("engine counted %d sink errors, sink injected %d", got, want)
	}
}
