package streamlet

import (
	"math/rand"
	"testing"

	"repro/internal/regblock"
	"repro/internal/traffic"
)

func backlogged(n int) []regblock.HeadSource {
	srcs := make([]regblock.HeadSource, n)
	for i := range srcs {
		srcs[i] = &traffic.Periodic{Gap: 1, Backlogged: true}
	}
	return srcs
}

func TestValidation(t *testing.T) {
	if _, err := NewSet(0, backlogged(1)); err == nil {
		t.Error("accepted zero weight")
	}
	if _, err := NewSet(1, nil); err == nil {
		t.Error("accepted empty set")
	}
	if _, err := NewSet(1, []regblock.HeadSource{nil}); err == nil {
		t.Error("accepted nil source")
	}
	if _, err := New(); err == nil {
		t.Error("accepted no sets")
	}
	if _, err := New(nil); err == nil {
		t.Error("accepted nil set")
	}
}

func TestRoundRobinWithinSet(t *testing.T) {
	set, err := NewSet(1, backlogged(3))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	// 9 dequeues must hit each streamlet exactly 3 times, in rotation.
	for k := 0; k < 9; k++ {
		if _, ok := agg.NextHead(); !ok {
			t.Fatalf("dequeue %d failed", k)
		}
	}
	for i := 0; i < 3; i++ {
		if got := set.Streamlet(i).Served; got != 3 {
			t.Errorf("streamlet %d served %d, want 3", i, got)
		}
	}
	if agg.Served != 9 {
		t.Errorf("aggregate served %d", agg.Served)
	}
}

func TestWeightedSets(t *testing.T) {
	// Two sets with weights 2:1 — Figure 10's slot 4. Over many turns,
	// set 1 gets two packets for each of set 2's.
	s1, _ := NewSet(2, backlogged(2))
	s2, _ := NewSet(1, backlogged(2))
	agg, err := New(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3000; k++ {
		if _, ok := agg.NextHead(); !ok {
			t.Fatalf("dequeue %d failed", k)
		}
	}
	set1 := s1.Streamlet(0).Served + s1.Streamlet(1).Served
	set2 := s2.Streamlet(0).Served + s2.Streamlet(1).Served
	if set1 != 2000 || set2 != 1000 {
		t.Fatalf("set service = %d/%d, want 2000/1000", set1, set2)
	}
	// Equal split within each set.
	if s1.Streamlet(0).Served != s1.Streamlet(1).Served {
		t.Error("unequal split within set 1")
	}
}

func TestSkipsIdleStreamlets(t *testing.T) {
	// Only streamlet 1 has traffic: round robin must skip the empty ones
	// without stalling ("cycling through active queues").
	srcs := []regblock.HeadSource{
		&traffic.Periodic{Gap: 1, Limit: 1, Backlogged: true},
		&traffic.Periodic{Gap: 1, Backlogged: true},
		&traffic.Periodic{Gap: 1, Limit: 1, Backlogged: true},
	}
	set, _ := NewSet(1, srcs)
	agg, _ := New(set)
	for k := 0; k < 50; k++ {
		if _, ok := agg.NextHead(); !ok {
			t.Fatalf("dequeue %d failed", k)
		}
	}
	if set.Streamlet(1).Served < 48 {
		t.Errorf("active streamlet served %d of 50", set.Streamlet(1).Served)
	}
}

func TestExhaustionAndIdleSets(t *testing.T) {
	s1, _ := NewSet(3, []regblock.HeadSource{&traffic.Periodic{Gap: 1, Limit: 2, Backlogged: true}})
	s2, _ := NewSet(1, []regblock.HeadSource{&traffic.Periodic{Gap: 1, Limit: 1, Backlogged: true}})
	agg, _ := New(s1, s2)
	served := 0
	for {
		if _, ok := agg.NextHead(); !ok {
			break
		}
		served++
	}
	if served != 3 {
		t.Fatalf("served %d, want 3 (all packets, no wedge)", served)
	}
	if _, ok := agg.NextHead(); ok {
		t.Fatal("exhausted aggregator yielded a head")
	}
}

func TestOnTransmitChargesFIFOProvider(t *testing.T) {
	s1, _ := NewSet(1, backlogged(2))
	agg, _ := New(s1)
	agg.NextHead() // streamlet 0
	agg.NextHead() // streamlet 1
	set, sl, err := agg.OnTransmit(100)
	if err != nil || set != 0 || sl != 0 {
		t.Fatalf("first transmit charged %d/%d (%v), want 0/0", set, sl, err)
	}
	_, sl, _ = agg.OnTransmit(200)
	if sl != 1 {
		t.Fatalf("second transmit charged streamlet %d, want 1", sl)
	}
	if s1.Streamlet(0).Bytes != 100 || s1.Streamlet(1).Bytes != 200 {
		t.Fatalf("bytes = %d/%d", s1.Streamlet(0).Bytes, s1.Streamlet(1).Bytes)
	}
	if _, _, err := agg.OnTransmit(1); err == nil {
		t.Fatal("transmit with no outstanding head accepted")
	}
}

func TestAdvanceForwardsClock(t *testing.T) {
	gated := &traffic.Periodic{Gap: 1, Phase: 5}
	set, _ := NewSet(1, []regblock.HeadSource{gated})
	agg, _ := New(set)
	if _, ok := agg.NextHead(); ok {
		t.Fatal("head released before arrival")
	}
	agg.Advance(5)
	if _, ok := agg.NextHead(); !ok {
		t.Fatal("head not released after Advance")
	}
}

func TestAccessors(t *testing.T) {
	s1, _ := NewSet(2, backlogged(3))
	agg, _ := New(s1)
	if agg.Sets() != 1 || agg.Set(0) != s1 || s1.Weight() != 2 || s1.Size() != 3 {
		t.Fatal("accessors broken")
	}
}

// The reference aggregator: the eager-clock, slice-queue implementation this
// package shipped before the lazy clock and the provenance ring. Advance
// type-asserts and forwards the clock to every streamlet of every set;
// pending is a slice re-sliced from the front. It exists only as the oracle
// of the differential tests below.

type refStreamlet struct {
	src           regblock.HeadSource
	served, bytes uint64
}

type refSet struct {
	weight     int
	streamlets []*refStreamlet
	cursor     int
}

type refAggregator struct {
	sets      []*refSet
	setCursor int
	credit    int
	pending   []provider
	served    uint64
}

func newRef(weights []int, sources [][]regblock.HeadSource) *refAggregator {
	r := &refAggregator{}
	for i, w := range weights {
		s := &refSet{weight: w}
		for _, src := range sources[i] {
			s.streamlets = append(s.streamlets, &refStreamlet{src: src})
		}
		r.sets = append(r.sets, s)
	}
	r.credit = r.sets[0].weight
	return r
}

func (s *refSet) next() (int, regblock.Head, bool) {
	for k := 0; k < len(s.streamlets); k++ {
		i := (s.cursor + k) % len(s.streamlets)
		if h, ok := s.streamlets[i].src.NextHead(); ok {
			s.cursor = (i + 1) % len(s.streamlets)
			s.streamlets[i].served++
			return i, h, true
		}
	}
	return 0, regblock.Head{}, false
}

func (r *refAggregator) NextHead() (regblock.Head, bool) {
	for tried := 0; tried <= len(r.sets); tried++ {
		if r.credit > 0 {
			if i, h, ok := r.sets[r.setCursor].next(); ok {
				r.credit--
				r.pending = append(r.pending, provider{set: r.setCursor, streamlet: i})
				r.served++
				return h, true
			}
		}
		r.setCursor = (r.setCursor + 1) % len(r.sets)
		r.credit = r.sets[r.setCursor].weight
	}
	return regblock.Head{}, false
}

func (r *refAggregator) Advance(now uint64) {
	for _, s := range r.sets {
		for _, sl := range s.streamlets {
			if ts, ok := sl.src.(timed); ok {
				ts.Advance(now)
			}
		}
	}
}

func (r *refAggregator) OnTransmit(bytes int) (set, sl int, ok bool) {
	if len(r.pending) == 0 {
		return 0, 0, false
	}
	p := r.pending[0]
	r.pending = r.pending[1:]
	r.sets[p.set].streamlets[p.streamlet].bytes += uint64(bytes)
	return p.set, p.streamlet, true
}

func (r *refAggregator) DiscardPending(undo func(set, streamlet int)) int {
	n := len(r.pending)
	for _, p := range r.pending {
		r.sets[p.set].streamlets[p.streamlet].served--
		r.served--
		undo(p.set, p.streamlet)
	}
	r.pending = r.pending[:0]
	return n
}

func (r *refAggregator) Fairness() float64 {
	var sum, sumSq float64
	var n int
	for _, s := range r.sets {
		share := float64(s.weight) / float64(len(s.streamlets))
		for _, sl := range s.streamlets {
			x := float64(sl.served) / share
			sum += x
			sumSq += x * x
			n++
		}
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// diffPair is one aggregator under test and its oracle over identical,
// independent source trees.
type diffPair struct {
	t       *testing.T
	agg     *Aggregator
	ref     *refAggregator
	weights []int
}

// newDiffPair builds both sides from build, which must return a fresh,
// identically configured source tree on every call.
func newDiffPair(t *testing.T, weights []int, build func() [][]regblock.HeadSource) *diffPair {
	t.Helper()
	var sets []*Set
	for i, srcs := range build() {
		s, err := NewSet(weights[i], srcs)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	agg, err := New(sets...)
	if err != nil {
		t.Fatal(err)
	}
	return &diffPair{t: t, agg: agg, ref: newRef(weights, build()), weights: weights}
}

func (d *diffPair) advance(now uint64) {
	d.agg.Advance(now)
	d.ref.Advance(now)
}

// nextHead polls both sides and requires the same head.
func (d *diffPair) nextHead(step int) bool {
	d.t.Helper()
	h, ok := d.agg.NextHead()
	rh, rok := d.ref.NextHead()
	if h != rh || ok != rok {
		d.t.Fatalf("step %d: NextHead = %+v/%v, oracle %+v/%v", step, h, ok, rh, rok)
	}
	return ok
}

// transmit charges both sides and requires the same provider (or the same
// refusal when nothing is outstanding).
func (d *diffPair) transmit(step, bytes int) {
	d.t.Helper()
	set, sl, err := d.agg.OnTransmit(bytes)
	rset, rsl, rok := d.ref.OnTransmit(bytes)
	if (err == nil) != rok || set != rset || sl != rsl {
		d.t.Fatalf("step %d: OnTransmit charged %d/%d (%v), oracle %d/%d (%v)", step, set, sl, err, rset, rsl, rok)
	}
}

// discard abandons both sides' outstanding heads and requires the same undo
// callbacks in the same order.
func (d *diffPair) discard(step int) {
	d.t.Helper()
	var got, want []provider
	n := d.agg.DiscardPending(func(set, sl int) { got = append(got, provider{set, sl}) })
	rn := d.ref.DiscardPending(func(set, sl int) { want = append(want, provider{set, sl}) })
	if n != rn || len(got) != len(want) {
		d.t.Fatalf("step %d: discarded %d (%d undos), oracle %d (%d undos)", step, n, len(got), rn, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			d.t.Fatalf("step %d: undo %d = %+v, oracle %+v", step, i, got[i], want[i])
		}
	}
}

// check compares every observable counter of the two sides.
func (d *diffPair) check(step int) {
	d.t.Helper()
	if d.agg.Pending() != len(d.ref.pending) {
		d.t.Fatalf("step %d: Pending %d, oracle %d", step, d.agg.Pending(), len(d.ref.pending))
	}
	if d.agg.Served != d.ref.served {
		d.t.Fatalf("step %d: Served %d, oracle %d", step, d.agg.Served, d.ref.served)
	}
	if got, want := d.agg.Fairness(), d.ref.Fairness(); got != want {
		d.t.Fatalf("step %d: Fairness %v, oracle %v", step, got, want)
	}
	for s, rs := range d.ref.sets {
		for i, rsl := range rs.streamlets {
			sl := d.agg.Set(s).Streamlet(i)
			if sl.Served != rsl.served || sl.Bytes != rsl.bytes {
				d.t.Fatalf("step %d: streamlet %d/%d served %d bytes %d, oracle %d/%d",
					step, s, i, sl.Served, sl.Bytes, rsl.served, rsl.bytes)
			}
		}
	}
}

// mixedSources returns a builder of 1–3 sets of seeded Periodic (backlogged
// and time-gated), Bursty and OnOff sources, and the sets' weights.
func mixedSources(rng *rand.Rand) ([]int, func() [][]regblock.HeadSource) {
	type spec struct {
		kind                          int
		gap, phase, limit, burst, off uint64
		seed                          int64
		pre                           bool // advanced by its owner before the aggregator sees it
	}
	nSets := 1 + rng.Intn(3)
	weights := make([]int, nSets)
	specs := make([][]spec, nSets)
	for s := range specs {
		weights[s] = 1 + rng.Intn(4)
		specs[s] = make([]spec, 1+rng.Intn(7))
		for i := range specs[s] {
			specs[s][i] = spec{
				kind:  rng.Intn(4),
				gap:   1 + uint64(rng.Intn(9)),
				phase: uint64(rng.Intn(300)),
				limit: uint64(rng.Intn(3)) * uint64(20+rng.Intn(200)), // 0 = unlimited
				burst: 1 + uint64(rng.Intn(6)),
				off:   1 + uint64(rng.Intn(150)),
				seed:  rng.Int63(),
				pre:   rng.Intn(4) == 0,
			}
		}
	}
	build := func() [][]regblock.HeadSource {
		out := make([][]regblock.HeadSource, nSets)
		for s := range specs {
			for _, c := range specs[s] {
				var src regblock.HeadSource
				switch c.kind {
				case 0:
					src = &traffic.Periodic{Gap: c.gap, Phase: c.phase, Limit: c.limit, Backlogged: true}
				case 1:
					src = &traffic.Periodic{Gap: c.gap, Phase: c.phase, Limit: c.limit}
				case 2:
					src = &traffic.Bursty{BurstLen: c.burst, Gap: c.gap, InterBurst: c.off, Phase: c.phase, Limit: c.limit}
				default:
					src = &traffic.OnOff{Gap: c.gap, MeanOn: 4 * c.burst, MeanOff: c.off, Seed: c.seed, Limit: c.limit}
				}
				if ts, ok := src.(timed); ok && c.pre {
					ts.Advance(c.phase + 3*c.gap)
				}
				out[s] = append(out[s], src)
			}
		}
		return out
	}
	return weights, build
}

// TestDifferentialAgainstEagerOracle drives the aggregator and the eager
// reference through seeded operation mixes: clock strides of 1, 7 and 128,
// cycles that skip the Advance, bursts of dequeues, transmit charges (also
// with nothing outstanding) and discards. The head sequence, every counter
// and every undo callback must match at every step.
func TestDifferentialAgainstEagerOracle(t *testing.T) {
	strides := []uint64{1, 1, 1, 7, 128}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		weights, build := mixedSources(rng)
		d := newDiffPair(t, weights, build)
		// Before the first Advance a time-gated source keeps its own clock.
		for k := rng.Intn(6); k > 0; k-- {
			d.nextHead(-1)
		}
		d.check(-1)
		var now uint64
		for step := 0; step < 3000; step++ {
			if rng.Intn(8) != 0 { // else: a cycle that skips the Advance
				now += strides[rng.Intn(len(strides))]
				d.advance(now)
			}
			switch op := rng.Intn(20); {
			case op < 11: // a served slot: dequeue the successor, then charge
				if d.nextHead(step) && d.agg.Pending() > 1+rng.Intn(3) {
					d.transmit(step, 64+rng.Intn(1400))
				}
			case op < 14: // a burst of dequeues ahead of their charges
				for k := rng.Intn(9); k > 0; k-- {
					d.nextHead(step)
				}
			case op < 19:
				d.transmit(step, 64+rng.Intn(1400))
			default:
				d.discard(step)
			}
			d.check(step)
		}
	}
}

// TestDifferentialSparseSet gates 99 of a set's 100 streamlets far in the
// future: every head must come from the one live streamlet, in step with the
// oracle, however the clock strides.
func TestDifferentialSparseSet(t *testing.T) {
	const live = 37
	build := func() [][]regblock.HeadSource {
		srcs := make([]regblock.HeadSource, 100)
		for i := range srcs {
			srcs[i] = &traffic.Periodic{Gap: 1, Phase: 1 << 40}
		}
		srcs[live] = &traffic.Periodic{Gap: 3}
		return [][]regblock.HeadSource{srcs}
	}
	d := newDiffPair(t, []int{1}, build)
	var now uint64
	heads := 0
	for step := 0; step < 2000; step++ {
		now += uint64(1 + step%5)
		d.advance(now)
		for d.nextHead(step) {
			heads++
			d.transmit(step, 1000)
		}
		d.check(step)
	}
	if got := d.agg.Set(0).Streamlet(live).Served; heads == 0 || got != uint64(heads) {
		t.Fatalf("live streamlet served %d of %d heads", got, heads)
	}
}
