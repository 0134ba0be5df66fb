// Package shuffle implements the ShareStreams single-stage recirculating
// shuffle-exchange network: N/2 Decision blocks behind steering muxes,
// through which the N stream-slot attribute words recirculate to be ordered
// (Figure 4 of the paper).
//
// The recirculating arrangement is the paper's key area trade-off (§3, §4.3):
// a Decision-block *tree* needs N-1 blocks and cannot be pipelined under
// window-constrained disciplines (the winner must circulate back before the
// next decision), so ShareStreams keeps only the lowermost tree level — N/2
// blocks — and recirculates log₂N times per decision cycle.
//
// Three pass schedules are modeled:
//
//   - PaperLogN — the paper's schedule: log₂N shuffle-exchange passes,
//     routing winners and losers (the BA configuration). Provably places the
//     highest-priority stream at the front and the lowest-priority stream at
//     the back of the block (see package tests); the interior of the block is
//     ordered well but not guaranteed fully sorted for adversarial inputs.
//   - Bitonic — an exact-sort extension: a Batcher bitonic schedule executed
//     on the same N/2 blocks by the steering muxes, log₂N·(log₂N+1)/2
//     passes. Used by the ablation benches to price exact blocks.
//   - Tournament — the WR (winner-only routing) configuration: only winners
//     are routed onward, halving the live candidates each pass; after log₂N
//     passes a single winner remains. This eases physical interconnect at
//     the cost of the block.
//
// # Key plane (structure-of-arrays register files)
//
// The pass loops run on a structure-of-arrays key plane rather than on the
// attribute words themselves: SetInput latches each slot's packed rank key
// (pre-masked for the network's decision mode) into a contiguous key file
// and its identity — true slot ID and latch position — into a parallel
// 32-bit aux file. A pass's compare-exchange is then pure arithmetic min/max
// over (key, slot): decision.KeyTie proves that masked-key equality implies
// the slot order decides, so the fast path has no data-dependent branches.
// The rare pairs the raw keys order wrongly — wrapped time fields straddling
// the serial-number window, exactly the pairs decision.FastOrder declines —
// are resolved inline by the serial-flip lemma: the deciding field of a
// straddling pair is a wrapped time whose higher key fields all tie, so the
// Table-2 cascade reaches exactly that field's serial compare (RuleEDF for
// the deadline field, RuleFCFS for arrival), and since the raw key order IS
// the deciding field's raw order, the cascade's verdict is the *flip* of the
// raw compare whenever raw and serial disagree. The pass loops therefore
// compute the disagreement bit branch-free, xor it into the exchange
// direction, and charge the exact RuleHits the cascade would have — no
// per-pair cascade calls anywhere on the hot path (see the counter notes on
// runPaperLogNSoA; the differential and fuzz suites pin the equivalence).
//
// SetInput also rebases each valid key's wrapped time fields against the
// current safety-window origins (field − (center − 0x4000), a serial-order-
// preserving bijection) and flags keys whose rebased fields leave [0,
// 0x8000). While no flagged key is latched — the steady state, since the
// scheduler re-centers the windows on the service frontier — every raw key
// compare equals the wrap-aware serial compare by construction, and the pass
// loops skip the straddle guards entirely. See keyUnsafe.
package shuffle

import (
	"fmt"
	"math/bits"

	"repro/internal/attr"
	"repro/internal/decision"
)

// Schedule selects the steering-mux program for a decision cycle.
type Schedule uint8

const (
	// PaperLogN routes winners and losers through log₂N shuffle-exchange
	// passes, yielding the paper's "block" (BA configuration).
	PaperLogN Schedule = iota
	// Bitonic fully sorts in log₂N·(log₂N+1)/2 passes (exact-block
	// extension).
	Bitonic
	// Tournament routes winners only (WR / max-finding configuration).
	Tournament
)

// String returns the schedule name.
func (s Schedule) String() string {
	switch s {
	case PaperLogN:
		return "paper-logn"
	case Bitonic:
		return "bitonic"
	case Tournament:
		return "tournament"
	default:
		return fmt.Sprintf("schedule(%d)", uint8(s))
	}
}

// Result is the outcome of one decision cycle through the network.
type Result struct {
	// Winner is the highest-priority attribute word.
	Winner attr.Attributes
	// Block is the ordered list of all N words, front = highest priority
	// (BA schedules only; nil under Tournament, which routes winners only).
	//
	// Block aliases a buffer owned by the Network that the next Run /
	// RunKeyed call overwrites — the recirculation registers themselves,
	// not a fresh copy. Contents are stable until that next call; callers
	// that retain the block across cycles must copy it first. This is the
	// same contract core.CycleResult.Transmissions uses, and it is what
	// keeps the decision hot path allocation-free.
	Block []attr.Attributes
	// Passes is the number of network passes the cycle consumed — each
	// pass is one hardware clock cycle in the SCHEDULE state.
	Passes int
}

// Light is the reduced outcome of RunLoadedLight: the decision a bulk driver
// needs — who won, whether anyone did, and how long the block's valid prefix
// is — without materializing the ordered attribute-word block. Member slots
// are read positionally via BlockSlotAt.
type Light struct {
	// WinnerSlot is the slot at the front of the order (the highest-priority
	// stream); meaningful only when Idle is false.
	WinnerSlot attr.SlotID
	// Idle reports that no latched slot was backlogged.
	Idle bool
	// Valid is the ordered block's valid-prefix length — the transaction
	// size in the BA configuration. Always 0 under Tournament, which routes
	// winners only and produces no block.
	Valid int
	// Passes is the number of network passes the cycle consumed.
	Passes int
}

// Network is one recirculating shuffle-exchange network instance.
type Network struct {
	n        int
	schedule Schedule
	mode     decision.Mode
	keyMask  attr.Key         // decision.KeyMask(mode), applied at latch
	blocks   []decision.Block // the N/2 physical Decision blocks

	// Latch registers — the words the Register Base blocks drive onto the
	// bus, written only by SetInput. words holds the attribute words;
	// latchKeys the packed rank keys pre-masked for the decision mode and
	// rebased against the safety-window origins (see keyUnsafe); auxInit
	// the identity words (true slot ID in the high half, latch position in
	// the low half) the pass loops permute. The schedules never write
	// these: recirculation permutes the key/aux register files below, so an
	// unchanged slot's register needs no relatching between cycles.
	words     []attr.Attributes
	latchKeys []attr.Key
	auxInit   []uint32

	// unsafeKey flags latched keys whose rebased time fields fall outside
	// the serial safety windows; nUnsafe counts them. While zero — the
	// steady state — every raw key compare equals the wrap-aware serial
	// compare and the pass loops run guard-free. Both windows float:
	// backlogged heads' deadline and arrival fields drift arbitrarily far
	// behind the clock (and a fully served block's chained deadlines run
	// ahead of it) but cluster near the service frontier, so the driver
	// re-centers both windows on the last transmitted head
	// (SetFieldCenters) to keep the cluster in range. See keyUnsafe.
	unsafeKey []uint8
	nUnsafe   int
	nUnsafeA  int
	dCenter   uint16
	aCenter   uint16

	// pendingCredits counts decision cycles whose bulk per-block Compares
	// credit (engaged[b] per cycle) has not been flushed into the blocks
	// yet: the hot path bumps one counter per cycle and the flush walks the
	// block file only when the counters are actually read.
	pendingCredits uint64

	// Permuted register files (the recirculation registers). keys/aux and
	// keysTmp/auxTmp ping-pong across shuffle passes; finKeys/finAux point
	// at whichever pair holds the final block order after a run.
	keys, keysTmp []attr.Key
	aux, auxTmp   []uint32
	finKeys       []attr.Key
	finAux        []uint32

	// engaged[b] is how many passes of one decision cycle engage Decision
	// block b under the configured schedule — the per-cycle Compares each
	// block accrues, bulk-credited per run (straddles resolve inline by
	// the serial-flip lemma and charge only their RuleHits).
	engaged []uint64

	// Contiguous per-block tie/rule accumulators the pass loops bump in
	// place of the scattered decision.Block counter fields (~80-byte
	// stride): a dense uint64 lane per counter keeps the hot loop's
	// accounting stores inside a few cache lines. flushCredits folds them
	// into the block file whenever the counters are read.
	accTie  []uint64
	accEDF  []uint64
	accFCFS []uint64

	block []attr.Attributes

	// Reference (oracle) machinery: the pre-key-plane index-permutation
	// implementation, kept verbatim as the differential-test oracle. The
	// oracle flag routes run() through it; compareAt is its per-pair body.
	oracle      bool
	idx, idxTmp []uint16
	ident       []uint16

	// Cycles counts decision cycles run; TotalPasses the cumulative
	// SCHEDULE-state clock cycles.
	Cycles      uint64
	TotalPasses uint64
}

// New builds a network for n stream-slots (n must be a power of two, ≥ 2)
// with Decision blocks in the given mode.
func New(n int, mode decision.Mode, schedule Schedule) (*Network, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("shuffle: slot count %d is not a power of two ≥ 2", n)
	}
	if schedule > Tournament {
		return nil, fmt.Errorf("shuffle: unknown schedule %d", schedule)
	}
	nw := &Network{
		n:         n,
		schedule:  schedule,
		mode:      mode,
		keyMask:   decision.KeyMask(mode),
		blocks:    make([]decision.Block, n/2),
		words:     make([]attr.Attributes, n),
		latchKeys: make([]attr.Key, n),
		auxInit:   make([]uint32, n),
		unsafeKey: make([]uint8, n),
		keys:      make([]attr.Key, n),
		keysTmp:   make([]attr.Key, n),
		aux:       make([]uint32, n),
		auxTmp:    make([]uint32, n),
		engaged:   make([]uint64, n/2),
		accTie:    make([]uint64, n/2),
		accEDF:    make([]uint64, n/2),
		accFCFS:   make([]uint64, n/2),
		block:     make([]attr.Attributes, n),
		idx:       make([]uint16, n),
		idxTmp:    make([]uint16, n),
		ident:     make([]uint16, n),
	}
	nw.dCenter, nw.aCenter = 0x8000, 0x8000
	for i := range nw.blocks {
		nw.blocks[i].Mode = mode
	}
	for i := range nw.ident {
		nw.ident[i] = uint16(i)
	}
	// Empty latches are invalid slots with the latch position as slot ID —
	// the same state SetInput would install for a zero word.
	for i := range nw.latchKeys {
		nw.SetInput(i, attr.Attributes{Slot: attr.SlotID(i)}, attr.Attributes{Slot: attr.SlotID(i)}.Key(0))
	}
	k := bits.TrailingZeros(uint(n))
	switch schedule {
	case Bitonic:
		for b := range nw.engaged {
			nw.engaged[b] = uint64(k * (k + 1) / 2)
		}
	case Tournament:
		for p := 0; p < k; p++ {
			for b := 0; b < n>>(p+1); b++ {
				nw.engaged[b]++
			}
		}
	default:
		for b := range nw.engaged {
			nw.engaged[b] = uint64(k)
		}
	}
	return nw, nil
}

// Slots returns the network's slot count N.
func (nw *Network) Slots() int { return nw.n }

// Schedule returns the configured pass schedule.
func (nw *Network) Schedule() Schedule { return nw.schedule }

// DecisionBlocks exposes the N/2 physical Decision blocks (for rule-hit and
// comparison counters).
func (nw *Network) DecisionBlocks() []decision.Block {
	nw.flushCredits()
	return nw.blocks
}

// Compares returns the cumulative comparison count across all blocks.
func (nw *Network) Compares() uint64 {
	nw.flushCredits()
	var total uint64
	for i := range nw.blocks {
		total += nw.blocks[i].Compares
	}
	return total
}

// TieHits returns the cumulative equal-key slot tie-break count across all
// blocks: decisions that stayed on the fast path only because of the
// tie-break (before it existed, each would have paid the full cascade).
func (nw *Network) TieHits() uint64 {
	nw.flushCredits()
	var total uint64
	for i := range nw.blocks {
		total += nw.blocks[i].TieHits
	}
	return total
}

// CascadeFallbacks returns the cumulative full Table-2 cascade evaluations
// across all blocks (ΣRuleHits): the comparisons the packed keys could not
// decide. Fast-path hit rate is 1 − CascadeFallbacks/Compares; the pre-fix
// rate (without the slot tie-break) is 1 − (CascadeFallbacks+TieHits)/Compares.
func (nw *Network) CascadeFallbacks() uint64 {
	nw.flushCredits()
	var total uint64
	for i := range nw.blocks {
		for _, h := range nw.blocks[i].RuleHits {
			total += h
		}
	}
	return total
}

// PassesPerCycle returns the number of network passes (SCHEDULE-state clock
// cycles) one decision cycle takes under the configured schedule.
func (nw *Network) PassesPerCycle() int {
	k := bits.TrailingZeros(uint(nw.n)) // log2 n
	switch nw.schedule {
	case Bitonic:
		return k * (k + 1) / 2
	default:
		return k
	}
}

// Rebased-key field geometry: both 16-bit wrapped time fields, and the top
// bit of each (the bit a rebased field sets exactly when it leaves its
// [0, 0x8000) safety window).
const (
	keyTimeFields = attr.Key(0xFFFF)<<attr.KeyDeadlineShift |
		attr.Key(0xFFFF)<<attr.KeyArrivalShift
	keyUnsafeD = attr.Key(1) << (attr.KeyDeadlineShift + 15)
	keyUnsafeA = attr.Key(1) << (attr.KeyArrivalShift + 15)
)

// rebase maps a canonical masked key into window-relative form: each wrapped
// time field becomes field − (center − 0x4000), so a field inside its safety
// window lands in [0, 0x8000). Subtracting a common bias per field is a
// bijection that preserves field equality and every subtract-and-test-sign
// (serial) comparison, so the straddle guards and the Table-2 cascade see
// exactly the orders they would on canonical keys — but for two in-window
// keys the raw unsigned compare now *equals* the serial compare even when
// the window spans the 16-bit wrap, which is what lets the guard-free pass
// loops compare raw. (A modular window that crosses raw 0 would otherwise
// order its two ends backwards.) Invalid keys carry no live time fields and
// pass through untouched.
func (nw *Network) rebase(k attr.Key) attr.Key {
	if k>>attr.KeyInvalidBit != 0 {
		return k
	}
	d := uint16(k>>attr.KeyDeadlineShift) - (nw.dCenter - 0x4000)
	a := uint16(k>>attr.KeyArrivalShift) - (nw.aCenter - 0x4000)
	return k&^keyTimeFields |
		attr.Key(d)<<attr.KeyDeadlineShift | attr.Key(a)<<attr.KeyArrivalShift
}

// keyUnsafe reports whether a latched (rebased) key could trip
// decision.FastOrder's serial-number guard against *some* partner: one of
// its rebased time fields sits outside [0, 0x8000) — its top bit is set.
// Two keys inside a common window are at most 0x7FFF apart in that field
// and on the same side of the raw wrap, so their raw order always agrees
// with the subtract-and-test-sign order and the guard cannot trip; invalid
// keys never reach a field guard (the validity bit differs, or only slot
// bits do). While every latched key is safe the pass loops run entirely
// guard-free.
// The returned mask has bit 0 set for a deadline-field straddle risk and
// bit 1 for arrival — the fields escape their windows independently (under
// BA service every backlogged head's chained deadline diverges while its
// arrival hugs the clock), and a field whose latched population is entirely
// in-window needs no guard even while the other field's does. The pass
// loops exploit this with a deadline-only guarded variant.
func (nw *Network) keyUnsafe(k attr.Key) uint8 {
	if k>>attr.KeyInvalidBit != 0 {
		return 0
	}
	u := uint8(0)
	if k&keyUnsafeD != 0 {
		u = 1
	}
	if k&keyUnsafeA != 0 {
		u |= 2
	}
	return u
}

// noteKey folds slot i's recomputed window-safety mask into the per-field
// unsafe-key counts.
func (nw *Network) noteKey(i int, u uint8) {
	o := nw.unsafeKey[i]
	if u == o {
		return
	}
	nw.unsafeKey[i] = u
	nw.nUnsafe += int(b2u(u != 0)) - int(b2u(o != 0))
	nw.nUnsafeA += int(u>>1) - int(o>>1)
}

// SetFieldCenters re-centers the deadline- and arrival-field safety windows
// (dc and ac are packed field values: time − reference). Any centers are
// correct — keys outside a window just run under the straddle guards — but
// centers tracking the service frontier keep sustained workloads guard-free:
// under overload, waiting heads' deadline and arrival fields fall
// arbitrarily far behind the clock the key reference tracks, and under a
// fully served block, chained deadlines run ahead of it — in both regimes
// the fields stay clustered near those of the heads being transmitted. The
// driver re-centers periodically, faster than the fields can drift across a
// half window. Every latched key is re-rebased against the new window
// origins and its safety flag recomputed.
func (nw *Network) SetFieldCenters(dc, ac uint16) {
	if dc == nw.dCenter && ac == nw.aCenter {
		return
	}
	// Shifting the window origin by δ shifts every rebased field by −δ.
	dd := nw.dCenter - dc
	da := nw.aCenter - ac
	nw.dCenter, nw.aCenter = dc, ac
	n, na := 0, 0
	for i, k := range nw.latchKeys {
		if k>>attr.KeyInvalidBit == 0 {
			d := uint16(k>>attr.KeyDeadlineShift) + dd
			a := uint16(k>>attr.KeyArrivalShift) + da
			k = k&^keyTimeFields |
				attr.Key(d)<<attr.KeyDeadlineShift | attr.Key(a)<<attr.KeyArrivalShift
			nw.latchKeys[i] = k
		}
		u := nw.keyUnsafe(k)
		nw.unsafeKey[i] = u
		n += int(b2u(u != 0))
		na += int(u >> 1)
	}
	nw.nUnsafe, nw.nUnsafeA = n, na
}

// Run performs one decision cycle over the N attribute words in slot order,
// packing rank keys for them against reference 0 — RunAt with the zero
// reference, for callers with no virtual clock. Result.Block aliases a
// reused buffer — see the Result docs for the retention contract. Run panics
// if len(in) != N (a wiring error, not a runtime condition).
func (nw *Network) Run(in []attr.Attributes) Result { return nw.RunAt(in, 0) }

// RunAt is Run with a caller-supplied key-normalization reference: callers
// that hold a current virtual time pass it (wrapped) so the one-shot path
// packs keys exactly as the scheduler's hot path does — live time fields
// land mid-window and stay on the branch-free fast path. Any reference is
// correct (the serial-window guard falls back to the cascade); a good one is
// merely faster. Result.Block aliases a reused buffer — see the Result docs.
func (nw *Network) RunAt(in []attr.Attributes, ref attr.Time16) Result {
	if len(in) != nw.n {
		panic(fmt.Sprintf("shuffle: %d inputs wired to a %d-slot network", len(in), nw.n))
	}
	for i := range in {
		nw.SetInput(i, in[i], in[i].Key(ref))
	}
	return nw.run()
}

// RunKeyed performs one decision cycle over the N attribute words and their
// precomputed rank keys (attr.Key, all packed against one common reference).
// This is the zero-recompute hot path: the scheduler maintains keys in the
// Register Base blocks, refreshed only on PRIORITY_UPDATE/INGEST, and the
// network just routes them. Result.Block aliases a reused buffer — see the
// Result docs. Panics on length mismatches (wiring errors).
func (nw *Network) RunKeyed(in []attr.Attributes, keys []attr.Key) Result {
	if len(in) != nw.n || len(keys) != nw.n {
		panic(fmt.Sprintf("shuffle: %d words / %d keys wired to a %d-slot network", len(in), len(keys), nw.n))
	}
	for i := range in {
		nw.SetInput(i, in[i], keys[i])
	}
	return nw.run()
}

// SetInput latches slot i's attribute word and packed rank key directly into
// the input registers, ahead of RunLoaded. This is the bus the Register Base
// blocks drive in hardware; the schedules route a permutation over these
// registers without writing them, so a latched slot stays latched across
// cycles and only *changed* slots need relatching. The key is stored
// pre-masked for the decision mode and rebased against the safety-window
// origins, and its serial-window safety is tracked so clean cycles skip the
// straddle guards (see rebase and keyUnsafe).
func (nw *Network) SetInput(i int, w attr.Attributes, k attr.Key) {
	k = nw.rebase(k & nw.keyMask)
	nw.words[i] = w
	nw.latchKeys[i] = k
	nw.auxInit[i] = uint32(w.Slot)<<16 | uint32(uint16(i))
	nw.noteKey(i, nw.keyUnsafe(k))
}

// SetInputKey relatches only slot i's packed rank key, for drivers on the
// Light path: RunLoadedLight routes the key and identity files and never
// reads the latched attribute words, so a driver that consumes decisions
// positionally (BlockSlotAt) can skip the word and identity stores on every
// head advance. core's decision cycle latches this way and never
// materializes words. The identity aux word keeps the slot ID from the
// latch's last full SetInput (the Register Base wiring, fixed per latch
// position in practice); the word register itself goes stale — a driver
// that mixes in a word-materializing run (RunLoaded) must SetInput every
// slot first.
func (nw *Network) SetInputKey(i int, k attr.Key) {
	k = nw.rebase(k & nw.keyMask)
	nw.latchKeys[i] = k
	nw.noteKey(i, nw.keyUnsafe(k))
}

// RunLoaded performs one decision cycle over the registers latched with
// SetInput (each slot reflecting its latest latch, from this cycle or any
// earlier one). Result.Block aliases a reused buffer — see the Result docs.
func (nw *Network) RunLoaded() Result { return nw.run() }

// RunLoadedLight performs one decision cycle over the latched registers and
// returns only the Light outcome: the key and aux register files are routed
// as usual, but the attribute-word block is not materialized — bulk drivers
// that consume the order positionally (BlockSlotAt) skip that gather. The
// counters, Cycles and TotalPasses advance exactly as under RunLoaded.
func (nw *Network) RunLoadedLight() Light {
	if nw.oracle {
		return nw.lightFromReference()
	}
	nw.Cycles++
	var lt Light
	switch nw.schedule {
	case Tournament:
		lt = nw.runTournamentSoA()
	case Bitonic:
		nw.runBitonicSoA()
		lt = nw.lightFromFiles()
	default:
		nw.runPaperLogNSoA()
		lt = nw.lightFromFiles()
	}
	nw.TotalPasses += uint64(lt.Passes)
	return lt
}

// BlockSlotAt returns the slot ID at position r of the most recent cycle's
// block order (r = 0 is the winner). It reads the permuted aux register file
// directly — the positional view RunLoadedLight's callers iterate instead of
// the materialized Result.Block.
func (nw *Network) BlockSlotAt(r int) attr.SlotID {
	return attr.SlotID(nw.finAux[r] >> 16)
}

// lightFromFiles derives the Light outcome from the final register files of
// a block schedule: the valid prefix is scanned off the key file's invalid
// bits (invalid keys sort to the tail exactly as invalid words do — the key
// plane and the cascade share the validity rule).
func (nw *Network) lightFromFiles() Light {
	valid := nw.n
	fk := nw.finKeys
	for valid > 0 && fk[valid-1]>>attr.KeyInvalidBit != 0 { //sslint:bounded valid strictly decreases toward its zero floor
		valid--
	}
	lt := Light{Valid: valid, Idle: valid == 0, Passes: nw.lastPasses()}
	if valid > 0 {
		lt.WinnerSlot = attr.SlotID(nw.finAux[0] >> 16)
	}
	return lt
}

// lastPasses returns the pass count of the schedule (all schedules run a
// fixed number of passes per cycle).
func (nw *Network) lastPasses() int { return nw.PassesPerCycle() }

// run executes the configured pass schedule over the latched registers.
// Under the oracle flag it routes through the reference index-permutation
// implementation instead (identical results and counters, by the
// differential tests — the reference is the spec, the key plane the
// implementation).
func (nw *Network) run() Result {
	nw.Cycles++
	if nw.oracle {
		return nw.runReference()
	}
	var r Result
	switch nw.schedule {
	case Tournament:
		lt := nw.runTournamentSoA()
		r = Result{Passes: lt.Passes}
		r.Winner = nw.words[nw.finAux[0]&0xFFFF]
	case Bitonic:
		r = Result{Passes: nw.runBitonicSoA()}
		r.Block = nw.emitBlock()
		r.Winner = r.Block[0]
	default:
		r = Result{Passes: nw.runPaperLogNSoA()}
		r.Block = nw.emitBlock()
		r.Winner = r.Block[0]
	}
	nw.TotalPasses += uint64(r.Passes)
	return r
}

// emitBlock applies the final permutation to the latched words, filling the
// reused block buffer Result.Block aliases: the aux file's low half is the
// latch position each block rank came from.
func (nw *Network) emitBlock() []attr.Attributes {
	words, block := nw.words, nw.block
	for i, a := range nw.finAux {
		block[i] = words[a&0xFFFF]
	}
	return block
}

// b2u converts a bool to 0/1 without a branch (the compiler lowers it to a
// flag materialization, keeping the compare kernels branch-free).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// creditCompares bulk-credits each Decision block with the cycle's engaged
// pass count — exactly one compare per engaged pass. The credit is deferred:
// the hot path bumps a cycle counter and flushCredits applies
// engaged[b]·cycles when the counters are read. Straddles resolve inline —
// they still cost exactly one compare, so only their RuleHits are charged
// separately — and the per-block totals match the per-pair reference
// implementation bit for bit.
func (nw *Network) creditCompares() {
	nw.pendingCredits++
}

// flushCredits lands the deferred bulk Compares credits and the dense
// tie/rule accumulator lanes into the block file. Every reader of per-block
// counters goes through here. The accumulators can only be nonzero after at
// least one unflushed run, so the pendingCredits gate covers them too.
func (nw *Network) flushCredits() {
	if nw.pendingCredits == 0 {
		return
	}
	c := nw.pendingCredits
	nw.pendingCredits = 0
	blocks, engaged := nw.blocks, nw.engaged
	for b := range blocks {
		blocks[b].Compares += engaged[b] * c
		blocks[b].TieHits += nw.accTie[b]
		blocks[b].RuleHits[decision.RuleEDF] += nw.accEDF[b]
		blocks[b].RuleHits[decision.RuleFCFS] += nw.accFCFS[b]
		nw.accTie[b] = 0
		nw.accEDF[b] = 0
		nw.accFCFS[b] = 0
	}
}

// runPaperLogNSoA executes log₂N shuffle-exchange passes routing winners and
// losers on the key plane. The perfect shuffle is fused into the compare
// loop: Decision block b's pair in every pass is positions (b, b+N/2) of the
// previous pass's output — two sequential streams — and its ordered pair
// lands at (2b, 2b+1) of this pass's, so the register files ping-pong
// between two buffers with no separate permutation step.
//
// Counter accounting: every engaged pass is exactly one compare per block
// (creditCompares); a tie (equal masked keys) bumps TieHits inline; a
// straddle flips the exchange direction to the serial order and charges the
// rule the cascade would have fired (RuleEDF or RuleFCFS — see the
// serial-flip lemma in the package comment).
func (nw *Network) runPaperLogNSoA() int {
	n := nw.n
	h := n / 2
	k := bits.TrailingZeros(uint(n))
	nw.creditCompares()
	accT, accD, accF := nw.accTie[:h], nw.accEDF[:h], nw.accFCFS[:h]
	srcK, srcA := nw.latchKeys, nw.auxInit
	dstK, dstA := nw.keys, nw.aux
	altK, altA := nw.keysTmp, nw.auxTmp
	safe := nw.nUnsafe == 0
	// Arrival fields rarely leave their window (they hug the clock), while
	// chained BA deadlines diverge without bound — so the common guarded
	// regime needs only the deadline guard, and the arrival guard's extra
	// field extraction is skipped unless an arrival key actually straddles.
	guardD := nw.nUnsafeA == 0
	for p := 0; p < k; p++ {
		skLo, skHi := srcK[:h], srcK[h:h+h]
		saLo, saHi := srcA[:h], srcA[h:h+h]
		dk, da := dstK[:h+h], dstA[:h+h]
		if safe {
			for b := range skLo {
				ka, kb := skLo[b], skHi[b]
				aa, ab := saLo[b], saHi[b]
				d := uint64(ka ^ kb)
				eq := b2u(d == 0)
				af := b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)
				mask := af - 1
				kx := attr.Key(d & mask)
				ax := (aa ^ ab) & uint32(mask)
				o := 2 * b
				dk[o+1], dk[o] = kb^kx, ka^kx
				da[o+1], da[o] = ab^ax, aa^ax
				accT[b] += eq
			}
		} else if guardD {
			for b := range skLo {
				ka, kb := skLo[b], skHi[b]
				aa, ab := saLo[b], saHi[b]
				d := uint64(ka ^ kb)
				eq := b2u(d == 0)
				dd := uint32(uint16(ka>>attr.KeyDeadlineShift)) - uint32(uint16(kb>>attr.KeyDeadlineShift))
				gd := uint64(dd>>31^dd>>15) & b2u(d>>attr.KeyDeadlineShift != 0) &^ (d >> attr.KeyInvalidBit)
				af := (b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)) ^ gd
				mask := af - 1
				kx := attr.Key(d & mask)
				ax := (aa ^ ab) & uint32(mask)
				o := 2 * b
				dk[o+1], dk[o] = kb^kx, ka^kx
				da[o+1], da[o] = ab^ax, aa^ax
				accT[b] += eq
				accD[b] += gd
			}
		} else {
			for b := range skLo {
				ka, kb := skLo[b], skHi[b]
				aa, ab := saLo[b], saHi[b]
				d := uint64(ka ^ kb)
				eq := b2u(d == 0)
				dd := uint32(uint16(ka>>attr.KeyDeadlineShift)) - uint32(uint16(kb>>attr.KeyDeadlineShift))
				ad := uint32(uint16(ka>>attr.KeyArrivalShift)) - uint32(uint16(kb>>attr.KeyArrivalShift))
				gd := uint64(dd>>31^dd>>15) & b2u(d>>attr.KeyDeadlineShift != 0) &^ (d >> attr.KeyInvalidBit)
				ga := uint64(ad>>31^ad>>15) & b2u(d>>attr.KeyTieShift == 0) & b2u(d>>attr.KeyArrivalShift != 0)
				af := (b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)) ^ (gd | ga)
				mask := af - 1
				kx := attr.Key(d & mask)
				ax := (aa ^ ab) & uint32(mask)
				o := 2 * b
				dk[o+1], dk[o] = kb^kx, ka^kx
				da[o+1], da[o] = ab^ax, aa^ax
				accT[b] += eq
				accD[b] += gd
				accF[b] += ga
			}
		}
		srcK, srcA = dstK, dstA
		dstK, dstA, altK, altA = altK, altA, dstK, dstA
	}
	nw.finKeys, nw.finAux = srcK, srcA
	return k
}

// runTournamentSoA executes the WR max-finding schedule on the key plane:
// each pass compares the surviving candidates pairwise and routes only the
// winner's (key, aux) onward, halving the live prefix of the register file.
func (nw *Network) runTournamentSoA() Light {
	n := nw.n
	nw.creditCompares()
	accT, accD, accF := nw.accTie, nw.accEDF, nw.accFCFS
	srcK, srcA := nw.latchKeys, nw.auxInit
	dstK, dstA := nw.keys, nw.aux
	safe := nw.nUnsafe == 0
	passes := 0
	for m := n; m > 1; m /= 2 {
		sk, sa := srcK[:m], srcA[:m]
		dk, da := dstK[:m/2], dstA[:m/2]
		if safe {
			for b := range dk {
				i := 2 * b
				ka, kb := sk[i], sk[i+1]
				aa, ab := sa[i], sa[i+1]
				d := uint64(ka ^ kb)
				eq := b2u(d == 0)
				af := b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)
				sel := -af
				dk[b] = kb ^ attr.Key(d&sel)
				da[b] = ab ^ (aa^ab)&uint32(sel)
				accT[b] += eq
			}
		} else {
			for b := range dk {
				i := 2 * b
				ka, kb := sk[i], sk[i+1]
				aa, ab := sa[i], sa[i+1]
				d := uint64(ka ^ kb)
				eq := b2u(d == 0)
				dd := uint32(uint16(ka>>attr.KeyDeadlineShift)) - uint32(uint16(kb>>attr.KeyDeadlineShift))
				ad := uint32(uint16(ka>>attr.KeyArrivalShift)) - uint32(uint16(kb>>attr.KeyArrivalShift))
				gd := uint64(dd>>31^dd>>15) & b2u(d>>attr.KeyDeadlineShift != 0) &^ (d >> attr.KeyInvalidBit)
				ga := uint64(ad>>31^ad>>15) & b2u(d>>attr.KeyTieShift == 0) & b2u(d>>attr.KeyArrivalShift != 0)
				af := (b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)) ^ (gd | ga)
				sel := -af
				dk[b] = kb ^ attr.Key(d&sel)
				da[b] = ab ^ (aa^ab)&uint32(sel)
				accT[b] += eq
				accD[b] += gd
				accF[b] += ga
			}
		}
		srcK, srcA = dstK, dstA
		passes++
	}
	nw.finKeys, nw.finAux = dstK, dstA
	wk := dstK[0]
	return Light{
		WinnerSlot: attr.SlotID(dstA[0] >> 16),
		Idle:       wk>>attr.KeyInvalidBit != 0,
		Passes:     passes,
	}
}

// runBitonicSoA executes a Batcher bitonic sorting schedule on the key
// plane: for each (k, j) stage the steering muxes pair position i with i^j
// and the owning block compare-exchanges in the direction given by bit k of
// i. The register files are permuted in place; every stage engages exactly
// N/2 blocks, one pass each.
func (nw *Network) runBitonicSoA() int {
	n := nw.n
	nw.creditCompares()
	accT, accD, accF := nw.accTie, nw.accEDF, nw.accFCFS
	dk, da := nw.keys[:n], nw.aux[:n]
	copy(dk, nw.latchKeys)
	copy(da, nw.auxInit)
	safe := nw.nUnsafe == 0
	passes := 0
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			b := 0
			if safe {
				for i := 0; i < n; i++ {
					l := i ^ j
					if l <= i {
						continue
					}
					ka, kb := dk[i], dk[l]
					aa, ab := da[i], da[l]
					d := uint64(ka ^ kb)
					eq := b2u(d == 0)
					af := b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)
					asc := b2u(i&k == 0)
					swap := -(af ^ asc)
					kx := attr.Key(d & swap)
					ax := (aa ^ ab) & uint32(swap)
					dk[i], dk[l] = ka^kx, kb^kx
					da[i], da[l] = aa^ax, ab^ax
					accT[b] += eq
					b++
				}
			} else {
				for i := 0; i < n; i++ {
					l := i ^ j
					if l <= i {
						continue
					}
					ka, kb := dk[i], dk[l]
					aa, ab := da[i], da[l]
					d := uint64(ka ^ kb)
					eq := b2u(d == 0)
					dd := uint32(uint16(ka>>attr.KeyDeadlineShift)) - uint32(uint16(kb>>attr.KeyDeadlineShift))
					ad := uint32(uint16(ka>>attr.KeyArrivalShift)) - uint32(uint16(kb>>attr.KeyArrivalShift))
					gd := uint64(dd>>31^dd>>15) & b2u(d>>attr.KeyDeadlineShift != 0) &^ (d >> attr.KeyInvalidBit)
					ga := uint64(ad>>31^ad>>15) & b2u(d>>attr.KeyTieShift == 0) & b2u(d>>attr.KeyArrivalShift != 0)
					af := (b2u(ka < kb) | eq&b2u(aa>>16 < ab>>16)) ^ (gd | ga)
					asc := b2u(i&k == 0)
					swap := -(af ^ asc)
					kx := attr.Key(d & swap)
					ax := (aa ^ ab) & uint32(swap)
					dk[i], dk[l] = ka^kx, kb^kx
					da[i], da[l] = aa^ax, ab^ax
					accT[b] += eq
					accD[b] += gd
					accF[b] += ga
					b++
				}
			}
			passes++
		}
	}
	nw.finKeys, nw.finAux = dk, da
	return passes
}

// --- Reference (oracle) implementation -----------------------------------
//
// The pre-key-plane implementation, kept verbatim: the steering muxes
// permute a 16-bit index file over the latched inputs and every pair pays a
// per-pair comparator call. The differential and fuzz tests drive it against
// the key plane and require bit-identical winners, block orders and counter
// totals; it is not on any production path.

// compareAt orders latch x against latch y on Decision block b —
// CompareKeyed's body with the network's registers already in scope; the
// counter semantics are identical. This is the oracle's per-pair comparator
// (the key-plane pass loops replace it with branch-free compare-exchanges);
// it stays per-pair so tests can pin the equivalence one compare at a time.
func (nw *Network) compareAt(b int, x, y uint16) (xFirst bool) {
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

// runReference dispatches one decision cycle through the oracle.
func (nw *Network) runReference() Result {
	copy(nw.idx, nw.ident)
	var r Result
	switch nw.schedule {
	case Tournament:
		r = nw.runTournamentRef()
	case Bitonic:
		r = nw.runBitonicRef()
	default:
		r = nw.runPaperLogNRef()
	}
	nw.TotalPasses += uint64(r.Passes)
	return r
}

// lightFromReference runs the oracle and derives the Light view, mirroring
// the permuted register files so BlockSlotAt works identically.
func (nw *Network) lightFromReference() Light {
	nw.Cycles++
	r := nw.runReference()
	for i, x := range nw.idx {
		nw.keys[i] = nw.latchKeys[x]
		nw.aux[i] = nw.auxInit[x]
	}
	nw.finKeys, nw.finAux = nw.keys, nw.aux
	if nw.schedule == Tournament {
		return Light{WinnerSlot: r.Winner.Slot, Idle: !r.Winner.Valid, Passes: r.Passes}
	}
	valid := nw.n
	for valid > 0 && !r.Block[valid-1].Valid {
		valid--
	}
	lt := Light{Valid: valid, Idle: valid == 0, Passes: r.Passes}
	if valid > 0 {
		lt.WinnerSlot = r.Block[0].Slot
	}
	return lt
}

// emitBlockRef applies the oracle's final index permutation to the latched
// words, filling the same reused buffer Result.Block aliases.
func (nw *Network) emitBlockRef() []attr.Attributes {
	for i, x := range nw.idx {
		nw.block[i] = nw.words[x]
	}
	return nw.block
}

// runPaperLogNRef executes log₂N shuffle-exchange passes routing winners and
// losers: each pass applies the perfect shuffle, then each Decision block
// compare-exchanges its pair (winner to the even output).
func (nw *Network) runPaperLogNRef() Result {
	idx, tmp := nw.idx, nw.idxTmp
	k := bits.TrailingZeros(uint(nw.n))
	for p := 0; p < k; p++ {
		perfectShuffle(tmp, idx)
		for b := 0; b < nw.n/2; b++ {
			x, y := tmp[2*b], tmp[2*b+1]
			if !nw.compareAt(b, x, y) {
				x, y = y, x
			}
			idx[2*b], idx[2*b+1] = x, y
		}
	}
	block := nw.emitBlockRef()
	return Result{Winner: block[0], Block: block, Passes: k}
}

// runBitonicRef executes the Batcher bitonic schedule per pair on the index
// file: for each (k, j) stage element i pairs with i^j and the block
// compare-exchanges in the direction given by bit k of i.
func (nw *Network) runBitonicRef() Result {
	idx := nw.idx
	passes := 0
	for k := 2; k <= nw.n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			b := 0
			for i := 0; i < nw.n; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				x, y := idx[i], idx[l]
				first := nw.compareAt(b, x, y)
				b++
				if first != (i&k == 0) { // winner to the ascending end
					x, y = y, x
				}
				idx[i], idx[l] = x, y
			}
			passes++
		}
	}
	block := nw.emitBlockRef()
	return Result{Winner: block[0], Block: block, Passes: passes}
}

// runTournamentRef executes the WR max-finding schedule per pair: each pass
// compares the surviving candidates and routes only winners onward.
func (nw *Network) runTournamentRef() Result {
	idx := nw.idx
	passes := 0
	for m := nw.n; m > 1; m /= 2 {
		for b := 0; b < m/2; b++ {
			x, y := idx[2*b], idx[2*b+1]
			if nw.compareAt(b, x, y) {
				idx[b] = x
			} else {
				idx[b] = y
			}
		}
		passes++
	}
	return Result{Winner: nw.words[idx[0]], Passes: passes}
}

// perfectShuffle writes the perfect shuffle of src into dst:
// dst[2i] = src[i], dst[2i+1] = src[i + N/2]. This is the fixed wiring
// between recirculation register outputs and Decision-block inputs; the
// key-plane pass loops fuse it into their compare loops, the oracle applies
// it explicitly.
func perfectShuffle(dst, src []uint16) {
	n := len(src)
	for i := 0; i < n/2; i++ {
		dst[2*i] = src[i]
		dst[2*i+1] = src[i+n/2]
	}
}
