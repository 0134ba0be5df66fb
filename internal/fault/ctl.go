package fault

import (
	"errors"
	"io"
	"math/rand"
	"sort"
)

// This file is the control-plane side of the fault framework: journal-sink
// faults (write errors and short writes at seeded line indices) and the
// crash-point machinery the recovery harness stands on — a writer that
// tears mid-buffer like a kill -9, and a seeded sampler of crash offsets.
// Everything here is deterministic in its seed, like the rest of the
// package: the chaos and crash gates re-run the same faults in the same
// places on every run.

// ErrSinkFault is the error an injected journal-sink write failure returns.
var ErrSinkFault = errors.New("fault: injected sink write error")

// ErrCrash is returned by a CrashWriter for every write after its budget is
// spent — the writer's owner is "dead" and nothing further persists.
var ErrCrash = errors.New("fault: simulated crash")

// SinkPlan declares seeded journal-sink faults: Errors write attempts fail
// outright and ShortWrites persist only half their buffer, each at a
// distinct line index drawn from [0, Horizon).
type SinkPlan struct {
	Seed        int64
	Errors      int
	ShortWrites int
	// Horizon is the line-index range faults scatter over (default 4096).
	Horizon uint64
}

// FaultySink wraps a journal sink and injects the plan's faults by line
// index: the I-th Write call is line I. A short write persists a prefix and
// reports the truncated count with no error — the silent data loss a
// strict daemon must catch through the engine's sink-error counter.
type FaultySink struct {
	w        io.Writer
	errs     map[uint64]bool
	shorts   map[uint64]bool
	line     uint64
	injected uint64
}

// NewFaultySink expands plan into a deterministic fault table over w.
func NewFaultySink(w io.Writer, plan SinkPlan) *FaultySink {
	if plan.Horizon == 0 {
		plan.Horizon = 4096
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	s := &FaultySink{w: w, errs: map[uint64]bool{}, shorts: map[uint64]bool{}}
	draw := func(table map[uint64]bool, n int) {
		for len(table) < n && uint64(len(s.errs)+len(s.shorts)) < plan.Horizon {
			at := uint64(rng.Int63n(int64(plan.Horizon)))
			if !s.errs[at] && !s.shorts[at] {
				table[at] = true
			}
		}
	}
	draw(s.errs, plan.Errors)
	draw(s.shorts, plan.ShortWrites)
	return s
}

// Write implements io.Writer with the plan's faults injected.
func (s *FaultySink) Write(p []byte) (int, error) {
	line := s.line
	s.line++
	switch {
	case s.errs[line]:
		s.injected++
		return 0, ErrSinkFault
	case s.shorts[line]:
		s.injected++
		n, err := s.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, nil
	default:
		return s.w.Write(p)
	}
}

// Injected returns how many writes the sink has faulted so far.
func (s *FaultySink) Injected() uint64 { return s.injected }

// CrashWriter passes writes through to W until Budget bytes have been
// accepted, then tears exactly like a kill -9 mid-write: the write that
// crosses the budget persists only its first Budget-written bytes, and
// every write from then on fails with ErrCrash. Wrapping a journal sink in
// one simulates a crash at byte offset Budget — the torn tail the replay
// parser must truncate.
type CrashWriter struct {
	W       io.Writer
	Budget  int64
	written int64
	crashed bool
}

// Write implements io.Writer with the crash semantics above.
func (c *CrashWriter) Write(p []byte) (int, error) {
	if c.crashed {
		return 0, ErrCrash
	}
	if c.written+int64(len(p)) <= c.Budget {
		n, err := c.W.Write(p)
		c.written += int64(n)
		return n, err
	}
	keep := int(c.Budget - c.written)
	if keep > 0 {
		keep, _ = c.W.Write(p[:keep])
	}
	c.written += int64(keep)
	c.crashed = true
	return keep, ErrCrash
}

// CrashPoints samples n distinct byte offsets in [1, size) from a seeded
// source, ascending — the crash instants a recovery harness replays from.
// Offsets are uniform, so they land mid-line, mid-checksum, and on line
// boundaries in proportion; when size is too small to yield n distinct
// offsets, every offset in range is returned.
func CrashPoints(seed int64, n int, size int64) []int64 {
	if size <= 1 || n <= 0 {
		return nil
	}
	if int64(n) >= size-1 {
		out := make([]int64, 0, size-1)
		for k := int64(1); k < size; k++ {
			out = append(out, k)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		k := 1 + rng.Int63n(size-1)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
