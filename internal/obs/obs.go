// Package obs is the runtime observability layer: allocation-free metric
// primitives usable from the decision hot path, a registry that names them,
// and cold-path views (JSON snapshots, an expvar-style HTTP endpoint, a text
// summary) for the running system to observe itself.
//
// The paper instruments ShareStreams from the outside — Tables 1–3 and
// Figures 8–10 are measured by the harness around the scheduler — but a
// production endsystem needs self-observation: per-queue occupancy and delay
// telemetry is the control input for programmable-scheduler and
// buffer-sharing work alike. This package provides that layer under the
// repository's standing invariants:
//
//   - Zero allocations on the recording path. Counter.Add, Gauge.Set,
//     Histogram.Observe and CycleTracer.Record allocate nothing; all storage
//     is laid out at construction time. The allocproof analyzer checks
//     these functions structurally and core's TestZeroAllocInstrumented
//     pins the end-to-end guarantee (0 allocs/cycle with instrumentation
//     enabled).
//
//   - Modeled time only. Timestamps recorded by instrumented packages are
//     virtual (decision cycles, modeled nanoseconds), never the host clock.
//     The one wall-clock source here, WallClock, exists for harnesses under
//     cmd/ to stamp scrapes; the walltime analyzer rejects it in
//     modeled-time packages exactly as it rejects time.Now.
//
//   - Race-clean scraping. Counters and gauges are atomics; histograms are
//     per-bucket atomics; the cycle tracer takes an uncontended mutex per
//     record. Snapshot may therefore run concurrently with the workload.
//     Func gauges are the exception: they run on the scraping goroutine at
//     snapshot time, so register only functions that are safe to call
//     concurrently (atomic reads, observer-safe ring lengths) or scrape the
//     system quiesced.
//
// Metric names are dotted lowercase paths ("core.decisions",
// "shard.0.frames"); units are free-form strings carried alongside the name
// ("1", "cycles", "frames", "ns"). DESIGN.md §6 lists the canonical names
// emitted by the instrumented packages.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//sslint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//sslint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (signed: depths, balances, deltas).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
//
//sslint:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
//
//sslint:hotpath
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
