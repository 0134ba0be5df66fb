package core

// The key-plane cycle against its word-plane oracle (oracle_test.go): two
// identically built schedulers, one driven through the public drivers and
// one through the oracle, must agree cycle for cycle on every CycleResult
// field and Transmission, and at every batch end on per-slot counters, the
// clocks, the network's comparison counters, and every timed source's state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/regblock"
	"repro/internal/streamlet"
	"repro/internal/traffic"
)

// diffCase is one scheduler shape of the differential matrix.
type diffCase struct {
	p         decision.Program
	routing   Routing
	circulate Circulate
	n         int
	exact     bool
}

func (c diffCase) String() string {
	r := c.routing.String()
	if c.routing == BlockRouting {
		r += "-" + c.circulate.String()
	}
	if c.exact {
		r += "-exact"
	}
	return fmt.Sprintf("%v/%s/N%d", c.p, r, c.n)
}

// diffSide is one of the pair: the scheduler, its current per-slot sources,
// and — when instrumented — its metrics bundle.
type diffSide struct {
	s    *Scheduler
	srcs []regblock.HeadSource
	m    *Metrics
}

// diffSpec draws a spec of class c.
func diffSpec(rng *rand.Rand, c attr.Class) attr.Spec {
	switch c {
	case attr.EDF:
		return attr.Spec{Class: attr.EDF, Period: uint16(1 + rng.Intn(24))}
	case attr.StaticPriority:
		return attr.Spec{Class: attr.StaticPriority, Priority: uint16(rng.Intn(64)), Guard: uint16(rng.Intn(3) * 16)}
	case attr.FairTag:
		return attr.Spec{Class: attr.FairTag, Weight: uint16(1 + rng.Intn(4))}
	default:
		den := uint8(1 + rng.Intn(5))
		return attr.Spec{Class: attr.WindowConstrained, Period: uint16(1 + rng.Intn(24)),
			Constraint: attr.Constraint{Num: uint8(rng.Intn(int(den) + 1)), Den: den}}
	}
}

// diffLeaf draws one seeded timed source: Periodic (sometimes backlogged),
// Bursty, OnOff, or — for fair-tag slots — an explicitly tagged stream.
func diffLeaf(rng *rand.Rand, c attr.Class) regblock.HeadSource {
	limit := uint64(rng.Intn(4)) * 400 // 0 = unlimited
	switch k := rng.Intn(4); {
	case k == 3 && c == attr.FairTag:
		arr, tags := make([]uint64, 64), make([]uint64, 64)
		var a, tag uint64
		for i := range arr {
			a += uint64(rng.Intn(6))
			tag += uint64(1 + rng.Intn(50))
			arr[i], tags[i] = a, tag
		}
		src, err := traffic.NewTagged(arr, tags)
		if err != nil {
			panic(err)
		}
		return src
	case k == 0:
		return &traffic.Periodic{Phase: uint64(rng.Intn(20)), Gap: uint64(1 + rng.Intn(6)),
			Limit: limit, Backlogged: rng.Intn(4) == 0}
	case k == 1:
		return &traffic.Bursty{BurstLen: uint64(1 + rng.Intn(30)), Gap: uint64(1 + rng.Intn(3)),
			InterBurst: uint64(rng.Intn(200)), Phase: uint64(rng.Intn(20)), Limit: limit}
	default:
		return &traffic.OnOff{Gap: uint64(1 + rng.Intn(3)), MeanOn: uint64(1 + rng.Intn(40)),
			MeanOff: uint64(1 + rng.Intn(80)), Seed: rng.Int63(), Limit: limit}
	}
}

// diffSource draws a slot's source: a leaf, or a streamlet aggregator over
// one or two weighted sets of leaves.
func diffSource(rng *rand.Rand, c attr.Class) regblock.HeadSource {
	if rng.Intn(4) != 0 {
		return diffLeaf(rng, c)
	}
	sets := make([]*streamlet.Set, 1+rng.Intn(2))
	for i := range sets {
		leaves := make([]regblock.HeadSource, 1+rng.Intn(3))
		for j := range leaves {
			leaves[j] = diffLeaf(rng, c)
		}
		set, err := streamlet.NewSet(1+rng.Intn(3), leaves)
		if err != nil {
			panic(err)
		}
		sets[i] = set
	}
	agg, err := streamlet.New(sets...)
	if err != nil {
		panic(err)
	}
	return agg
}

// buildDiffSide builds one side of the pair from seed: identical seeds give
// identical schedulers and sources. Some slots stay un-admitted.
func buildDiffSide(t *testing.T, c diffCase, seed int64, traced, instrumented bool) *diffSide {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := ProgramConfig(c.n, c.p, c.routing)
	cfg.Circulate, cfg.ExactSort = c.circulate, c.exact
	if traced {
		cfg.TraceDepth = 512
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &diffSide{s: s, srcs: make([]regblock.HeadSource, c.n)}
	for i := 0; i < c.n; i++ {
		if rng.Intn(8) == 0 {
			continue
		}
		src := diffSource(rng, c.p.Class())
		if err := s.Admit(i, diffSpec(rng, c.p.Class()), src); err != nil {
			t.Fatal(err)
		}
		d.srcs[i] = src
	}
	if instrumented {
		m, err := NewMetrics(obs.NewRegistry(), "core", 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Instrument(m); err != nil {
			t.Fatal(err)
		}
		d.m = m
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// cycleRecord is a deep copy of one CycleResult.
type cycleRecord struct {
	cr  CycleResult
	txs []Transmission
}

// recorder returns a visitor appending deep copies to *log and stopping the
// batch after stop cycles (never, when stop ≤ 0).
func recorder(log *[]cycleRecord, stop int) func(*CycleResult) bool {
	return func(cr *CycleResult) bool {
		rec := cycleRecord{cr: *cr, txs: append([]Transmission(nil), cr.Transmissions...)}
		rec.cr.Transmissions = nil
		*log = append(*log, rec)
		return stop <= 0 || len(*log) < stop
	}
}

// compareLogs fails on the first cycle whose result differs.
func compareLogs(t *testing.T, at string, got, want []cycleRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cycles visited, oracle %d", at, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].cr, want[i].cr) {
			t.Fatalf("%s: cycle %d result %+v, oracle %+v", at, i, got[i].cr, want[i].cr)
		}
		if !reflect.DeepEqual(got[i].txs, want[i].txs) {
			t.Fatalf("%s: cycle %d (t=%d) transmissions\n got %+v\nwant %+v", at, i, got[i].cr.Time, got[i].txs, want[i].txs)
		}
	}
}

// compareState fails unless the pair agrees on every boundary observable.
func compareState(t *testing.T, at string, a, o *diffSide) {
	t.Helper()
	sa, so := a.s, o.s
	if sa.Decisions() != so.Decisions() || sa.HWCycles() != so.HWCycles() ||
		sa.IdleCycles() != so.IdleCycles() || sa.Now() != so.Now() {
		t.Fatalf("%s: clocks decisions/hw/idle/now %d/%d/%d/%d, oracle %d/%d/%d/%d", at,
			sa.Decisions(), sa.HWCycles(), sa.IdleCycles(), sa.Now(),
			so.Decisions(), so.HWCycles(), so.IdleCycles(), so.Now())
	}
	for i := 0; i < sa.Config().Slots; i++ {
		if sa.SlotCounters(i) != so.SlotCounters(i) {
			t.Fatalf("%s: slot %d counters %+v, oracle %+v", at, i, sa.SlotCounters(i), so.SlotCounters(i))
		}
		if sa.SlotAttributes(i) != so.SlotAttributes(i) {
			t.Fatalf("%s: slot %d word %+v, oracle %+v", at, i, sa.SlotAttributes(i), so.SlotAttributes(i))
		}
		if !reflect.DeepEqual(a.srcs[i], o.srcs[i]) {
			t.Fatalf("%s: slot %d source state %+v, oracle %+v", at, i, a.srcs[i], o.srcs[i])
		}
	}
	na, no := sa.Network(), so.Network()
	if na.Compares() != no.Compares() || na.TieHits() != no.TieHits() ||
		na.CascadeFallbacks() != no.CascadeFallbacks() {
		t.Fatalf("%s: network compares/ties/fallbacks %d/%d/%d, oracle %d/%d/%d", at,
			na.Compares(), na.TieHits(), na.CascadeFallbacks(),
			no.Compares(), no.TieHits(), no.CascadeFallbacks())
	}
	if a.m != nil {
		ma, mo := a.m, o.m
		for _, c := range [][2]*obs.Counter{{ma.Decisions, mo.Decisions}, {ma.Idle, mo.Idle},
			{ma.Transmissions, mo.Transmissions}, {ma.Late, mo.Late}, {ma.Expiries, mo.Expiries}, {ma.HW, mo.HW}} {
			if c[0].Load() != c[1].Load() {
				t.Fatalf("%s: metrics counter %d, oracle %d", at, c[0].Load(), c[1].Load())
			}
		}
		for _, h := range [][2]*obs.Histogram{{ma.Occupancy, mo.Occupancy}, {ma.WinnerWait, mo.WinnerWait}} {
			if h[0].Count() != h[1].Count() || h[0].Sum() != h[1].Sum() {
				t.Fatalf("%s: metrics histogram %d/%d, oracle %d/%d", at, h[0].Count(), h[0].Sum(), h[1].Count(), h[1].Sum())
			}
		}
		if !reflect.DeepEqual(ma.Tracer.Dump(), mo.Tracer.Dump()) {
			t.Fatalf("%s: cycle tracer records differ", at)
		}
	}
	if tr := sa.Trace(); tr != nil && !reflect.DeepEqual(tr.Events(), so.Trace().Events()) {
		t.Fatalf("%s: control-unit traces differ", at)
	}
}

// runDiff drives the pair through a seeded mix of visited batches (some
// stopped early by their visitor), blind batches, RunFor, single RunCycles,
// and Admit/Rebind/Retune between batches, checking after each step.
func runDiff(t *testing.T, c diffCase, seed int64, steps int, traced, instrumented bool) {
	t.Helper()
	a := buildDiffSide(t, c, seed, traced, instrumented)
	o := buildDiffSide(t, c, seed, traced, instrumented)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("%v seed %d step %d", c, seed, step)
		switch op := rng.Intn(10); op {
		case 0, 1, 2, 3: // visited batch, possibly stopped early
			n := 1 + rng.Intn(2048/c.n+40)
			stop := 0
			if rng.Intn(2) == 0 {
				stop = 1 + rng.Intn(n)
			}
			var got, want []cycleRecord
			ga := a.s.RunCycles(n, recorder(&got, stop))
			wo := o.s.oracleRunCycles(n, recorder(&want, stop))
			if ga != wo {
				t.Fatalf("%s: RunCycles ran %d cycles, oracle %d", at, ga, wo)
			}
			compareLogs(t, at, got, want)
		case 4: // blind batch, long enough at small N to cross key refreshes
			n := rng.Intn(32768/c.n + 64)
			a.s.RunCycles(n, nil)
			o.s.oracleRunCycles(n, nil)
		case 5: // RunFor
			n := rng.Intn(512/c.n + 16)
			a.s.RunFor(n)
			o.s.oracleRunCycles(n, nil)
		case 6: // single steps
			for k := 1 + rng.Intn(4); k > 0; k-- {
				ra, ro := a.s.RunCycle(), o.s.oracleRunCycle()
				var got, want []cycleRecord
				recorder(&got, 0)(&ra)
				recorder(&want, 0)(&ro)
				compareLogs(t, at, got, want)
			}
		case 7: // Admit after Start with a fresh source, identical on both sides
			i := rng.Intn(c.n)
			srcSeed := rng.Int63()
			for _, d := range []*diffSide{a, o} {
				r := rand.New(rand.NewSource(srcSeed))
				src := diffSource(r, c.p.Class())
				if err := d.s.Admit(i, diffSpec(r, c.p.Class()), src); err != nil {
					t.Fatal(err)
				}
				d.srcs[i] = src
			}
		case 8: // Rebind to a fresh source
			i := rng.Intn(c.n)
			srcSeed := rng.Int63()
			for _, d := range []*diffSide{a, o} {
				src := diffSource(rand.New(rand.NewSource(srcSeed)), c.p.Class())
				if _, err := d.s.Rebind(i, src); err != nil {
					t.Fatal(err)
				}
				d.srcs[i] = src
			}
		case 9: // Retune an admitted slot within its class
			i := rng.Intn(c.n)
			if a.srcs[i] == nil {
				continue
			}
			spec := diffSpec(rng, c.p.Class())
			ea, eo := a.s.Retune(i, spec), o.s.Retune(i, spec)
			if (ea == nil) != (eo == nil) {
				t.Fatalf("%s: Retune error %v, oracle %v", at, ea, eo)
			}
		}
		compareState(t, at, a, o)
	}
}

// diffCases is the differential matrix: every rank program × {WR, BA
// max-first, BA min-first} × N ∈ {4, 16, 32, 256}, plus the exact-sort
// (bitonic) schedule.
func diffCases() []diffCase {
	var cases []diffCase
	for _, p := range decision.Programs() {
		for _, n := range []int{4, 16, 32, 256} {
			cases = append(cases,
				diffCase{p: p, routing: WinnerOnly, n: n},
				diffCase{p: p, routing: BlockRouting, circulate: MaxFirst, n: n},
				diffCase{p: p, routing: BlockRouting, circulate: MinFirst, n: n})
		}
		cases = append(cases, diffCase{p: p, routing: BlockRouting, circulate: MinFirst, n: 16, exact: true})
	}
	return cases
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestCycleDifferential pins the key-plane cycle to the word-plane oracle
// across the whole matrix, with one instrumented and one traced instance
// per case.
func TestCycleDifferential(t *testing.T) {
	for _, c := range diffCases() {
		c := c
		steps := 40
		if c.n == 256 {
			steps = 10
		}
		if testing.Short() || raceEnabled {
			steps /= 4
		}
		t.Run(c.String(), func(t *testing.T) {
			runDiff(t, c, 1, steps, false, false)
			runDiff(t, c, 11, steps, false, true)
			runDiff(t, c, 12, steps, true, false)
		})
	}
}

// TestSourceSyncAtBoundaries is the slot-level twin of the nested-source
// rule: inside a batch a timed source is current as of its last pull, but
// at every public-call boundary — a visitor's early false, the end of a
// batch, a RunCycle interleaved with RunCycles — every traffic.Periodic's
// Generated() and every aggregator's clock equal the oracle's, which
// advances every source every cycle.
func TestSourceSyncAtBoundaries(t *testing.T) {
	build := func() (*Scheduler, []*traffic.Periodic, []*streamlet.Aggregator) {
		s, err := New(Config{Slots: 8, Routing: BlockRouting})
		if err != nil {
			t.Fatal(err)
		}
		var pers []*traffic.Periodic
		var aggs []*streamlet.Aggregator
		for i := 0; i < 8; i++ {
			var src regblock.HeadSource
			if i%2 == 0 {
				p := &traffic.Periodic{Phase: uint64(i), Gap: uint64(3 + i)}
				pers = append(pers, p)
				src = p
			} else {
				inner := &traffic.Periodic{Phase: uint64(i), Gap: uint64(2 + i)}
				pers = append(pers, inner)
				set, err := streamlet.NewSet(1, []regblock.HeadSource{inner})
				if err != nil {
					t.Fatal(err)
				}
				agg, err := streamlet.New(set)
				if err != nil {
					t.Fatal(err)
				}
				aggs = append(aggs, agg)
				src = agg
			}
			if err := s.Admit(i, attr.Spec{Class: attr.EDF, Period: 8}, src); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s, pers, aggs
	}
	s, pers, aggs := build()
	os, opers, oaggs := build()
	check := func(at string) {
		t.Helper()
		for i := range pers {
			// Only top-level sources are synced; a streamlet's own source is
			// current as of its last poll (streamlet.Aggregator's contract).
			if i%2 == 0 && pers[i].Generated() != opers[i].Generated() {
				t.Fatalf("%s: periodic %d Generated() = %d, oracle %d", at, i, pers[i].Generated(), opers[i].Generated())
			}
		}
		for i := range aggs {
			if !reflect.DeepEqual(aggs[i], oaggs[i]) {
				t.Fatalf("%s: aggregator %d state differs from the oracle's", at, i)
			}
		}
	}
	for k := 1; k <= 40; k++ {
		stopAt := func(cr *CycleResult) bool { return cr.Time%uint64(7+k) != 0 }
		n := s.RunCycles(50, stopAt)
		if on := os.oracleRunCycles(50, stopAt); n != on {
			t.Fatalf("round %d: stopped after %d cycles, oracle %d", k, n, on)
		}
		check(fmt.Sprintf("round %d early stop at %d", k, n))
		s.RunCycle()
		os.oracleRunCycle()
		check(fmt.Sprintf("round %d RunCycle", k))
		s.RunCycles(k, nil)
		os.oracleRunCycles(k, nil)
		check(fmt.Sprintf("round %d blind batch", k))
	}
}
