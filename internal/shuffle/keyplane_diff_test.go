package shuffle

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/decision"
)

// reference is the pre-key-plane implementation, kept verbatim as the
// oracle the key plane is held to: the steering muxes permute a 16-bit index
// file over a Network's latched inputs and every pair pays a per-pair
// comparator call, charging the Network's own Decision-block counters. The
// index files belong to the reference, not to the Network.
type reference struct {
	nw          *Network
	idx, idxTmp []uint16
}

func newReference(n int, mode decision.Mode, sch Schedule) (*reference, error) {
	nw, err := New(n, mode, sch)
	if err != nil {
		return nil, err
	}
	return &reference{nw: nw, idx: make([]uint16, n), idxTmp: make([]uint16, n)}, nil
}

// RunKeyed is Network.RunKeyed through the oracle: the same latches, the
// same Cycles/TotalPasses accounting, and a Result.Block that aliases the
// same reused buffer.
func (r *reference) RunKeyed(in []attr.Attributes, keys []attr.Key) Result {
	nw := r.nw
	for i := range in {
		nw.SetInput(i, in[i], keys[i])
	}
	nw.Cycles++
	for i := range r.idx {
		r.idx[i] = uint16(i)
	}
	var res Result
	switch nw.schedule {
	case Tournament:
		res = r.runTournament()
	case Bitonic:
		res = r.runBitonic()
	default:
		res = r.runPaperLogN()
	}
	nw.TotalPasses += uint64(res.Passes)
	return res
}

// compareAt orders latch x against latch y on Decision block b —
// CompareKeyed's body with the network's registers already in scope; the
// counter semantics are identical. It stays per-pair so the equivalence is
// pinned one compare at a time.
func (r *reference) compareAt(b int, x, y uint16) (xFirst bool) {
	nw := r.nw
	bl := &nw.blocks[b]
	if first, decided := decision.FastOrder(bl.Mode, nw.latchKeys[x], nw.latchKeys[y]); decided {
		bl.Compares++
		return first
	}
	if decision.KeyTie(bl.Mode, nw.latchKeys[x], nw.latchKeys[y]) {
		bl.Compares++
		bl.TieHits++
		return nw.words[x].Slot < nw.words[y].Slot
	}
	return !bl.Compare(nw.words[x], nw.words[y]).Swapped
}

// emitBlock applies the final index permutation to the latched words,
// filling the buffer Result.Block aliases.
func (r *reference) emitBlock() []attr.Attributes {
	for i, x := range r.idx {
		r.nw.block[i] = r.nw.words[x]
	}
	return r.nw.block
}

// runPaperLogN executes log₂N shuffle-exchange passes routing winners and
// losers: each pass applies the perfect shuffle, then each Decision block
// compare-exchanges its pair (winner to the even output).
func (r *reference) runPaperLogN() Result {
	n := r.nw.n
	idx, tmp := r.idx, r.idxTmp
	k := bits.TrailingZeros(uint(n))
	for p := 0; p < k; p++ {
		perfectShuffle(tmp, idx)
		for b := 0; b < n/2; b++ {
			x, y := tmp[2*b], tmp[2*b+1]
			if !r.compareAt(b, x, y) {
				x, y = y, x
			}
			idx[2*b], idx[2*b+1] = x, y
		}
	}
	block := r.emitBlock()
	return Result{Winner: block[0], Block: block, Passes: k}
}

// runBitonic executes the Batcher bitonic schedule per pair on the index
// file: for each (k, j) stage element i pairs with i^j and the block
// compare-exchanges in the direction given by bit k of i.
func (r *reference) runBitonic() Result {
	n := r.nw.n
	idx := r.idx
	passes := 0
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			b := 0
			for i := 0; i < n; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				x, y := idx[i], idx[l]
				first := r.compareAt(b, x, y)
				b++
				if first != (i&k == 0) { // winner to the ascending end
					x, y = y, x
				}
				idx[i], idx[l] = x, y
			}
			passes++
		}
	}
	block := r.emitBlock()
	return Result{Winner: block[0], Block: block, Passes: passes}
}

// runTournament executes the WR max-finding schedule per pair: each pass
// compares the surviving candidates and routes only winners onward.
func (r *reference) runTournament() Result {
	idx := r.idx
	passes := 0
	for m := r.nw.n; m > 1; m /= 2 {
		for b := 0; b < m/2; b++ {
			x, y := idx[2*b], idx[2*b+1]
			if r.compareAt(b, x, y) {
				idx[b] = x
			} else {
				idx[b] = y
			}
		}
		passes++
	}
	return Result{Winner: r.nw.words[idx[0]], Passes: passes}
}

// perfectShuffle writes the perfect shuffle of src into dst:
// dst[2i] = src[i], dst[2i+1] = src[i + N/2] — the fixed wiring between
// recirculation register outputs and Decision-block inputs, which the
// key-plane pass loops fuse into their compare loops.
func perfectShuffle(dst, src []uint16) {
	n := len(src)
	for i := 0; i < n/2; i++ {
		dst[2*i] = src[i]
		dst[2*i+1] = src[i+n/2]
	}
}

func TestQuickDifferential(t *testing.T) {
	for _, mode := range []decision.Mode{decision.DWCS, decision.TagOnly} {
		for _, sch := range []Schedule{PaperLogN, Bitonic, Tournament} {
			for _, n := range []int{2, 4, 8, 16, 64, 256} {
				rng := rand.New(rand.NewSource(int64(n)*7 + int64(sch)*3 + int64(mode)))
				nw, _ := New(n, mode, sch)
				ref, _ := newReference(n, mode, sch)
				in := make([]attr.Attributes, n)
				keys := make([]attr.Key, n)
				for trial := 0; trial < 200; trial++ {
					refT := attr.Time16(rng.Uint32())
					for i := range in {
						in[i] = attr.Attributes{
							Deadline: attr.Time16(rng.Uint32() & 0xFFFF),
							Arrival:  attr.Time16(rng.Uint32() & 0xFFFF),
							LossNum:  uint8(rng.Intn(4)),
							LossDen:  uint8(1 + rng.Intn(4)),
							Slot:     attr.SlotID(i),
							Valid:    rng.Intn(4) != 0,
						}
						if rng.Intn(3) == 0 {
							in[i].Deadline = in[0].Deadline
							in[i].Arrival = in[0].Arrival
							in[i].LossNum, in[i].LossDen = in[0].LossNum, in[0].LossDen
						}
						keys[i] = in[i].Key(refT)
					}
					a := nw.RunKeyed(in, keys)
					b := ref.RunKeyed(in, keys)
					if a.Winner != b.Winner {
						t.Fatalf("mode=%v sch=%v n=%d trial=%d winner %+v != %+v", mode, sch, n, trial, a.Winner, b.Winner)
					}
					if (a.Block == nil) != (b.Block == nil) {
						t.Fatalf("block nil mismatch")
					}
					for i := range a.Block {
						if a.Block[i] != b.Block[i] {
							t.Fatalf("mode=%v sch=%v n=%d trial=%d block[%d] %+v != %+v", mode, sch, n, trial, i, a.Block[i], b.Block[i])
						}
					}
					if a.Passes != b.Passes {
						t.Fatalf("passes %d != %d", a.Passes, b.Passes)
					}
				}
				if nw.Cycles != ref.nw.Cycles || nw.TotalPasses != ref.nw.TotalPasses {
					t.Fatalf("mode=%v sch=%v n=%d cycles/passes %d/%d != %d/%d", mode, sch, n,
						nw.Cycles, nw.TotalPasses, ref.nw.Cycles, ref.nw.TotalPasses)
				}
				ab, bb := nw.DecisionBlocks(), ref.nw.DecisionBlocks()
				for i := range ab {
					if ab[i] != bb[i] {
						t.Fatalf("mode=%v sch=%v n=%d block %d counters %+v != %+v", mode, sch, n, i, ab[i], bb[i])
					}
				}
			}
		}
	}
}
