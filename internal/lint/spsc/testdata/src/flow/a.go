// Fixture for the spsc analyzer's dominance check: stores dominated by a
// load of the same field on every path are accepted; blind stores,
// one-branch loads, and wrong-field observations are findings.
package a

import "sync/atomic"

type ring struct {
	head atomic.Uint64 //sslint:spsc
	tail atomic.Uint64 //sslint:spsc
	buf  [8]int
}

// goodPush is the canonical producer: observe tail (and head for the full
// check), then publish.
func (r *ring) goodPush(v int) bool {
	t := r.tail.Load()
	h := r.head.Load()
	if t-h == uint64(len(r.buf)) {
		return false
	}
	r.buf[t%8] = v
	r.tail.Store(t + 1)
	return true
}

// goodPop loads head on the straight line; the store is dominated.
func (r *ring) goodPop() (int, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return 0, false
	}
	v := r.buf[h%8]
	r.head.Store(h + 1)
	return v, true
}

// inlineObserve loads inside the store's own argument — args run first.
func (r *ring) inlineObserve() {
	r.tail.Store(r.tail.Load() + 1)
}

// blindStore publishes an index it never observed.
func (r *ring) blindStore(v uint64) {
	r.tail.Store(v) // want col=2 `ring.tail.Store\(\) is not dominated by tail.Load\(\) on all paths`
}

// branchMiss only observes on one path: the else path stores blind.
func (r *ring) branchMiss(v uint64, flag bool) {
	if flag {
		_ = r.tail.Load()
	}
	r.tail.Store(v) // want `tail.Store\(\) is not dominated`
}

// wrongField observes head but publishes tail.
func (r *ring) wrongField(v uint64) {
	_ = r.head.Load()
	r.tail.Store(v) // want `tail.Store\(\) is not dominated`
}

// loopCarried observes before the loop; every iteration's store is
// dominated by that load (facts survive the back edge).
func (r *ring) loopCarried(n int) {
	t := r.tail.Load()
	for i := 0; i < n; i++ {
		r.tail.Store(t + uint64(i))
	}
}

// bothBranches loads on every path into the store.
func (r *ring) bothBranches(flag bool) {
	if flag {
		_ = r.tail.Load()
	} else {
		_ = r.tail.Load()
	}
	r.tail.Store(1)
}

// swapNeedsLoad: Swap publishes too.
func (r *ring) swapNeedsLoad(v uint64) {
	_ = r.head.Swap(v) // want `head.Swap\(\) is not dominated`
}

// rmwSelfContained: CompareAndSwap and Add carry their own observation.
func (r *ring) rmwSelfContained() {
	r.head.CompareAndSwap(0, 1)
	r.tail.Add(1)
}
