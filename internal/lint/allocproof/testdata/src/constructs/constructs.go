// Package constructs is the allocproof classifier fixture: functions marked
// //sslint:hotpath must not contain allocation-inducing constructs; unmarked
// functions are unconstrained.
package constructs

import "fmt"

// Item is a value-typed record, cheap to copy.
type Item struct {
	Slot int
	Rank int
}

// Engine owns the reused buffers of its hot path.
type Engine struct {
	buf   []Item
	txBuf []Item
	n     int
}

// GoodCycle is the sanctioned shape: indexing, value copies, and appends
// back into reused buffers.
//
//sslint:hotpath
func (e *Engine) GoodCycle(x Item) Item {
	e.txBuf = e.txBuf[:0]
	for i := range e.buf {
		e.buf[i].Rank = i
	}
	e.txBuf = append(e.txBuf, x)
	e.txBuf = append(e.txBuf, Item{Slot: 1, Rank: 2})
	if e.n < 0 {
		panic(fmt.Sprintf("engine wired with %d slots", e.n))
	}
	return e.buf[0]
}

// BadMake allocates a fresh buffer per cycle.
//
//sslint:hotpath
func BadMake(n int) []Item {
	return make([]Item, n) // want `make in the hot path allocates`
}

// BadNew heap-allocates per cycle.
//
//sslint:hotpath
func BadNew() *Item {
	return new(Item) // want `new in the hot path allocates`
}

// BadAppendFresh grows a slice that is not a reused buffer.
//
//sslint:hotpath
func BadAppendFresh(dst, src []Item) []Item {
	out := append(dst, src...) // want `append outside the reused-buffer pattern`
	return out
}

// BadSliceLit allocates a backing array per cycle.
//
//sslint:hotpath
func BadSliceLit() []Item {
	return []Item{{Slot: 1}} // want `slice literal in the hot path`
}

// BadEscape takes the address of a literal, forcing a heap allocation.
//
//sslint:hotpath
func BadEscape() *Item {
	return &Item{Slot: 1} // want `&composite literal in the hot path heap-allocates`
}

// BadFmt formats on the hot path.
//
//sslint:hotpath
func BadFmt(i Item) string {
	return fmt.Sprintf("%d", i.Slot) // want `fmt.Sprintf in the hot path allocates`
}

// BadClosure builds a closure per cycle.
//
//sslint:hotpath
func BadClosure(k int) func() int {
	return func() int { return k } // want `closure literal in the hot path`
}

// BadDefer pays a deferred frame per cycle.
//
//sslint:hotpath
func BadDefer(e *Engine) {
	defer func() {}() // want `defer in the hot path` // want `closure literal in the hot path`
	e.n++
}

// BadGo launches a goroutine per cycle.
//
//sslint:hotpath
func BadGo(e *Engine) {
	go e.GoodCycle(Item{}) // want `go statement in the hot path`
}

// BadBox converts a concrete value to an interface argument.
//
//sslint:hotpath
func BadBox(i Item) {
	sink(i) // want `implicit conversion of .* to interface`
}

// BadStringConv copies byte slices per cycle.
//
//sslint:hotpath
func BadStringConv(b []byte) string {
	return string(b) // want `string<->\[\]byte conversion in the hot path`
}

// BadConcat builds strings per cycle.
//
//sslint:hotpath
func BadConcat(a, b string) string {
	return a + b // want `string concatenation in the hot path`
}

// Pool mirrors the Queue Manager's shared-buffer credit ledger: lend and
// reclaim run per frame on the producer/consumer hot paths, so the whole
// family is marked and must stay allocation-free.
type Pool struct {
	free int64
	lent []uint64
}

// GoodLend is the sanctioned lend/reclaim shape: counter arithmetic and
// indexed loads/stores only.
//
//sslint:hotpath
func (p *Pool) GoodLend(i int) bool {
	if p.free <= 0 {
		return false
	}
	p.free--
	p.lent[i]++
	return true
}

// BadLendObserve boxes the lend decision into an interface sink per frame.
//
//sslint:hotpath
func (p *Pool) BadLendObserve(i int) {
	sink(p.lent[i]) // want `implicit conversion of .* to interface`
}

// BadReclaimSnapshot copies the ledger per reclaim (stats belong on the
// cold scrape path, not in the per-frame credit return).
//
//sslint:hotpath
func (p *Pool) BadReclaimSnapshot() []uint64 {
	out := make([]uint64, len(p.lent)) // want `make in the hot path allocates`
	copy(out, p.lent)
	return out
}

// sink is an interface-taking helper.
func sink(v any) { _ = v }

// ColdAllocates is unmarked: the same constructs pass untouched.
func ColdAllocates(n int) []Item {
	out := make([]Item, 0, n)
	out = append(out, Item{Slot: 1})
	_ = fmt.Sprintf("%d", n)
	return out
}

// AllowedAlloc is a sanctioned exception inside the hot set.
//
//sslint:hotpath
func AllowedAlloc() []Item {
	return make([]Item, 1) //sslint:allow allocproof — fixture: one-time warmup path
}
