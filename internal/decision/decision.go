// Package decision implements the ShareStreams Decision block: a
// combinational unit that orders two streams' attribute words in a single
// hardware cycle (Figure 5 of the paper).
//
// Unlike the simple comparators of fair-queuing hardware, a Decision block
// compares multiple service attributes simultaneously. All of Table 2's
// pairwise ordering rules are evaluated concurrently and the valid rule's
// output is selected by a mux; in this model that mux is a prioritized
// selection that records which rule fired, so tests and traces can see the
// datapath's reasoning.
//
// Table 2 (pairwise ordering for streams):
//
//  1. Earliest-deadline first.
//  2. Equal deadlines: order lowest window-constraint (W = x/y) first.
//  3. Equal deadlines and zero window-constraints: order highest
//     window-denominator first.
//  4. Equal deadlines and equal non-zero window-constraints: order lowest
//     window-numerator first.
//  5. All other cases: first-come-first-serve (earliest arrival first).
//
// The model adds two hardware-necessary rules the paper leaves implicit:
// validity (an empty stream-slot always loses so backlogged slots bubble to
// the front) and a final slot-ID tie-break (hardware must emit *some*
// deterministic order when every attribute matches).
package decision

import (
	"fmt"

	"repro/internal/attr"
)

// Mode selects the comparison datapath.
type Mode uint8

const (
	// DWCS evaluates the full multi-attribute rule set of Table 2 —
	// required for window-constrained scheduling.
	DWCS Mode = iota
	// TagOnly is the simple-comparator configuration used when mapping
	// priority-class and fair-queuing disciplines: only the deadline field
	// (holding a static priority or a service tag) is compared, with FCFS
	// and slot-ID tie-breaks. This is the cheaper comparator §3 contrasts
	// with full Decision blocks.
	TagOnly
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case DWCS:
		return "dwcs"
	case TagOnly:
		return "tag-only"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Rule identifies which concurrently-evaluated ordering rule selected the
// winner.
type Rule uint8

const (
	// RuleValidity fired because exactly one input held a backlogged stream.
	RuleValidity Rule = iota
	// RuleEDF fired on strictly earlier deadline.
	RuleEDF
	// RuleLowestConstraint fired on equal deadlines, lower W.
	RuleLowestConstraint
	// RuleHighestDenominator fired on equal deadlines, both W zero, higher y.
	RuleHighestDenominator
	// RuleLowestNumerator fired on equal deadlines, equal non-zero W, lower x.
	RuleLowestNumerator
	// RuleFCFS fired on earlier arrival time.
	RuleFCFS
	// RuleSlotID fired as the final deterministic tie-break.
	RuleSlotID
)

var ruleNames = [...]string{
	RuleValidity:           "validity",
	RuleEDF:                "edf",
	RuleLowestConstraint:   "lowest-constraint",
	RuleHighestDenominator: "highest-denominator",
	RuleLowestNumerator:    "lowest-numerator",
	RuleFCFS:               "fcfs",
	RuleSlotID:             "slot-id",
}

// String returns the rule name.
func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return fmt.Sprintf("rule(%d)", uint8(r))
}

// NumRules is the number of distinct ordering rules, for sizing counters.
const NumRules = len(ruleNames)

// Verdict is a Decision block's single-cycle output: the pairwise order of
// its two inputs and the rule that determined it.
type Verdict struct {
	Winner, Loser attr.Attributes
	Rule          Rule
	// Swapped reports whether the winner came from the block's second
	// input port (the exchange output of the shuffle-exchange stage).
	Swapped bool
}

// Block is one Decision block instance. It is purely combinational; the
// counters exist for tests, traces and the ablation benches. The zero value
// is a DWCS-mode block.
type Block struct {
	Mode Mode
	// Compares counts invocations; RuleHits counts, per rule, how often
	// that rule resolved the order. TieHits counts keyed compares resolved
	// by the equal-key slot tie-break (KeyTie) — decisions that stayed on
	// the fast path but would have fallen back to the cascade before the
	// tie-break existed, so pre-fix hit rates remain reconstructible from
	// one run.
	Compares uint64
	TieHits  uint64
	RuleHits [NumRules]uint64
}

// Compare orders a against b in one simulated cycle and returns the verdict.
func (bl *Block) Compare(a, b attr.Attributes) Verdict {
	v := compare(bl.Mode, a, b)
	bl.Compares++
	bl.RuleHits[v.Rule]++
	return v
}

// CompareKeyed orders a against b using their packed rank keys: one
// unsigned integer compare when FastOrder can prove the order, a slot-ID
// tie-break when the masked keys are exactly equal (KeyTie — every cascade
// rule ties, so only the deterministic slot order remains), and the full
// Table-2 cascade otherwise — exactly equivalent to Compare in every case
// (see the differential tests). It reports whether a orders first.
//
// Compares counts every invocation either way; RuleHits attributes a rule
// only on the cascade fallback, since the fast paths — like the hardware's
// flattened comparator — do not know which rule would have fired. Callers
// that need full rule traces use Compare.
func (bl *Block) CompareKeyed(a, b attr.Attributes, ka, kb attr.Key) (aFirst bool) {
	if first, decided := FastOrder(bl.Mode, ka, kb); decided {
		bl.Compares++
		return first
	}
	if KeyTie(bl.Mode, ka, kb) {
		bl.Compares++
		bl.TieHits++
		return a.Slot < b.Slot
	}
	return !bl.Compare(a, b).Swapped
}

func compare(mode Mode, a, b attr.Attributes) Verdict {
	if first, rule, decided := order(mode, a, b); decided {
		if first {
			return Verdict{Winner: a, Loser: b, Rule: rule}
		}
		return Verdict{Winner: b, Loser: a, Rule: rule, Swapped: true}
	}
	// order always decides via the slot-ID rule; unreachable.
	panic("decision: undecided comparison")
}

// order returns (a-first?, rule, decided). It is written as a cascade of the
// concurrently-evaluated rule outputs in mux-priority order.
func order(mode Mode, a, b attr.Attributes) (bool, Rule, bool) {
	// Validity: an empty slot always loses.
	if a.Valid != b.Valid {
		return a.Valid, RuleValidity, true
	}
	if !a.Valid { // both empty: deterministic order by slot ID
		return a.Slot < b.Slot, RuleSlotID, true
	}

	// Rule 1: earliest deadline first (wrap-aware 16-bit compare).
	if a.Deadline != b.Deadline {
		return a.Deadline.Before(b.Deadline), RuleEDF, true
	}

	if mode == DWCS {
		ca, cb := a.Constraint(), b.Constraint()
		switch ca.Cmp(cb) {
		case -1:
			// Rule 2: lowest window-constraint first.
			return true, RuleLowestConstraint, true
		case 1:
			return false, RuleLowestConstraint, true
		}
		// Equal constraint values.
		if ca.Zero() && cb.Zero() {
			// Rule 3: zero constraints — highest denominator first.
			if a.LossDen != b.LossDen {
				return a.LossDen > b.LossDen, RuleHighestDenominator, true
			}
		} else {
			// Rule 4: equal non-zero constraints — lowest numerator first.
			if a.LossNum != b.LossNum {
				return a.LossNum < b.LossNum, RuleLowestNumerator, true
			}
		}
	}

	// Rule 5: first-come-first-serve by arrival time.
	if a.Arrival != b.Arrival {
		return a.Arrival.Before(b.Arrival), RuleFCFS, true
	}

	// Deterministic hardware tie-break.
	return a.Slot < b.Slot, RuleSlotID, true
}

// Less reports whether a orders strictly before b under mode — the
// comparator-predicate view of the Decision block, used by reference sorts
// and the software DWCS baseline. Note Less(a,b) and Less(b,a) are never
// both true and never both false unless a and b are the same slot.
func Less(mode Mode, a, b attr.Attributes) bool {
	first, _, _ := order(mode, a, b)
	return first
}
