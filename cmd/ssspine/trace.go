package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary, as the driver sees it: the
// harness wraps each call it makes into a layer's exported function. Start
// and End are nanoseconds since the tracer was created; Parent is the ID of
// the span that was open when this one began (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, so the untraced run pays one nil check per call
// site. It is single-goroutine, like the engines it wraps; the concurrent
// HTTP clients each own a tracer and merge at the end.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // stack of open span indices
	base     int   // ID offset, so merged tracers stay unique
}

func newTracer(workload string, origin time.Time, base int) *tracer {
	return &tracer{workload: workload, origin: origin, base: base}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		ID: t.base + i + 1, Parent: parent, Workload: t.workload, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes folds the spans into per-name self time: a span's duration minus
// the part its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPasses is how many times the traced run alternates an untraced and
// a traced pass of the workload; alternating keeps a drifting box from
// reading as tracing overhead.
const tracedPasses = 2

// tracedRun is what a child does for -trace 1: the workload in alternating
// untraced and traced passes (half the time in all), then the kernel suite.
func tracedRun(mk func(seconds float64) *env, seconds float64, spansPath string) (workloadReport, error) {
	origin := time.Now()
	plain, traced := mk(0), mk(0) // accumulators for the two kinds of pass
	traced.tr = newTracer(traced.spec.Name, origin, 0)
	for p := 0; p < 2*tracedPasses; p++ {
		e, into := mk(seconds/(4*tracedPasses)), plain
		e.t0 = time.Now()
		if p%2 == 1 {
			into = traced
			e.tr = newTracer(e.spec.Name, origin, len(traced.tr.spans))
		}
		if err := e.spec.run(e); err != nil {
			return workloadReport{}, err
		}
		into.ops = append(into.ops, e.ops...)
		into.attempted += e.attempted
		into.failed += e.failed
		into.failures = append(into.failures, e.failures...)
		for name, n := range e.counts {
			into.counts[name] += n
		}
		into.exact = e.exact
		if e.tr != nil {
			traced.tr.spans = append(traced.tr.spans, e.tr.spans...)
		}
	}

	out := map[string]summary{}
	ks := &kernels{
		seed: plain.seed, sz: plain.sz, dir: plain.dir, served: plain.served,
		tr: newTracer("kernels", traced.tr.origin, 1<<30), out: out,
	}
	ks.per = time.Duration(seconds / 2 / kernelLoops * float64(time.Second))
	if err := ks.run(); err != nil {
		return workloadReport{}, err
	}

	out["workload.op_p99_us"] = point(p99(scale(plain.ops, 1e6)))
	out["workload.op_samples"] = point(float64(len(plain.ops)))
	out["trace.overhead_ratio"] = point(median(traced.ops)/median(plain.ops) - 1)
	spans := append(traced.tr.spans, ks.tr.spans...)
	out["trace.spans"] = point(float64(len(spans)))

	wall := time.Duration(sum(plain.ops) * float64(time.Second))
	explained, lines := explain(plain.spec.Name, budgetTerms(plain.spec.Name, plain.counts, out), wall)
	out["budget.explained_ratio"] = point(explained)
	out["budget.remainder_ratio"] = point(1 - explained)

	// What the driver saw the traced workload spend, by call.
	self := selfTimes(traced.tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lines = append(lines, fmt.Sprintf("span   %-14s %-32s %10.3f ms self", plain.spec.Name, name, float64(self[name].Nanoseconds())/1e6))
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return workloadReport{}, err
		}
	}

	res := workloadReport{
		Workload:  plain.spec.Name,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Failures:  append(plain.failures, traced.failures...),
		Metrics:   map[string]summary{},
		Exact:     plain.exact,
		Budget:    lines,
	}
	for _, m := range perLayer {
		s, ok := out[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ssspine: kernel suite produced no %s\n", m.Name)
			res.Failed++
		}
		res.Metrics[m.Name] = s
	}
	res.Attempted += uint64(len(perLayer))
	res.Exact["pci.modeled_pps_error"] = fmt.Sprint(out["pci.modeled_pps_error"].Value)
	res.Exact["core.allocs_per_cycle"] = fmt.Sprint(out["core.allocs_per_cycle"].Value)
	return res, nil
}

// kernelLoops is how many budgeted timing loops the suite runs; each gets
// an equal share of the kernel half of a traced run.
const kernelLoops = 40
