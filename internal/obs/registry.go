package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindFunc      = "func"
	kindHistogram = "histogram"
)

// metric is one registered instrument.
type metric struct {
	name, unit, kind string
	counter          *Counter
	gauge            *Gauge
	fn               func() float64
	hist             *Histogram
}

// Registry names a set of metrics and tracers so cold-path views (Snapshot,
// the HTTP endpoint, the text summary) can enumerate them. Registration is
// cold-path and idempotent by name: asking for an existing name of the same
// kind returns the already-registered instrument, so independent subsystems
// (or repeated runs in one process) can share a bundle without coordination.
// Asking for an existing name with a different kind panics — that is a
// wiring error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	tracers map[string]*CycleTracer
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		tracers: make(map[string]*CycleTracer),
	}
}

// intern registers (or returns) the named metric.
func (r *Registry) intern(name, unit, kind string, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := build()
	m.name, m.unit, m.kind = name, unit, kind
	r.metrics[name] = m
	return m
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, unit string) *Counter {
	return r.intern(name, unit, kindCounter, func() *metric { return &metric{counter: &Counter{}} }).counter
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, unit string) *Gauge {
	return r.intern(name, unit, kindGauge, func() *metric { return &metric{gauge: &Gauge{}} }).gauge
}

// Histogram registers (or returns) the named histogram.
func (r *Registry) Histogram(name, unit string) *Histogram {
	return r.intern(name, unit, kindHistogram, func() *metric { return &metric{hist: NewHistogram()} }).hist
}

// GaugeFunc registers a sampled gauge: fn runs at snapshot time on the
// scraping goroutine (see the package comment for the sampling discipline).
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name, unit string, fn func() float64) {
	m := r.intern(name, unit, kindFunc, func() *metric { return &metric{} })
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Tracer registers (or returns) the named cycle tracer with the given depth
// (the existing tracer's depth wins on re-registration).
func (r *Registry) Tracer(name string, depth int) (*CycleTracer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tracers[name]; ok {
		return t, nil
	}
	t, err := NewCycleTracer(depth)
	if err != nil {
		return nil, err
	}
	r.tracers[name] = t
	return t, nil
}

// MetricSnap is one metric's point-in-time view.
type MetricSnap struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
	// Value carries the counter count, gauge value, func sample, or
	// histogram mean.
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	P50     float64  `json:"p50,omitempty"`
	P90     float64  `json:"p90,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// TraceSnap is one tracer's dump.
type TraceSnap struct {
	Name     string        `json:"name"`
	Recorded uint64        `json:"recorded"`
	Records  []CycleRecord `json:"records"`
}

// Snapshot is a point-in-time view of every registered instrument, ordered
// by name. It is plain data: safe to marshal, diff, or hold after the
// workload moves on.
type Snapshot struct {
	Metrics []MetricSnap `json:"metrics"`
	Traces  []TraceSnap  `json:"traces,omitempty"`
}

// Snapshot captures every registered metric and tracer.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	type namedTracer struct {
		name string
		t    *CycleTracer
	}
	ts := make([]namedTracer, 0, len(r.tracers))
	for name, t := range r.tracers {
		ts = append(ts, namedTracer{name, t})
	}
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })

	var s Snapshot
	for _, m := range ms {
		snap := MetricSnap{Name: m.name, Kind: m.kind, Unit: m.unit}
		switch m.kind {
		case kindCounter:
			snap.Value = float64(m.counter.Load())
		case kindGauge:
			snap.Value = float64(m.gauge.Load())
		case kindFunc:
			if m.fn != nil {
				snap.Value = m.fn()
			}
		case kindHistogram:
			h := m.hist
			snap.Value = h.Mean()
			snap.Count = h.Count()
			snap.Sum = h.Sum()
			snap.P50 = h.Quantile(0.50)
			snap.P90 = h.Quantile(0.90)
			snap.P99 = h.Quantile(0.99)
			snap.Max = h.Max()
			snap.Buckets = h.Buckets()
		}
		s.Metrics = append(s.Metrics, snap)
	}
	for _, nt := range ts {
		s.Traces = append(s.Traces, TraceSnap{
			Name:     nt.name,
			Recorded: nt.t.Recorded(),
			Records:  nt.t.Dump(),
		})
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as an aligned text summary — the view
// `sssim -metrics` prints at exit.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-34s %-9s %-8s %14s %14s %14s %14s\n",
		"metric", "kind", "unit", "value", "p50", "p99", "max"); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		switch m.Kind {
		case kindHistogram:
			if _, err := fmt.Fprintf(w, "%-34s %-9s %-8s %14.2f %14.1f %14.1f %14d\n",
				m.Name, m.Kind, m.Unit, m.Value, m.P50, m.P99, m.Max); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%-34s %-9s %-8s %14.2f\n",
				m.Name, m.Kind, m.Unit, m.Value); err != nil {
				return err
			}
		}
	}
	// The JSON view carries the full ring; the text summary shows only the
	// freshest tail so a 256-deep tracer doesn't drown the table.
	const textTraceTail = 16
	for _, t := range s.Traces {
		records := t.Records
		if len(records) > textTraceTail {
			records = records[len(records)-textTraceTail:]
		}
		if _, err := fmt.Fprintf(w, "\ntrace %s — last %d of %d cycles (oldest first):\n",
			t.Name, len(records), t.Recorded); err != nil {
			return err
		}
		for _, rec := range records {
			if rec.Idle {
				if _, err := fmt.Fprintf(w, "  decision %8d t=%8d idle\n", rec.Decision, rec.Time); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "  decision %8d t=%8d winner=%3d occ=%3d exp=%2d key=%#016x\n",
				rec.Decision, rec.Time, rec.Winner, rec.Occupancy, rec.Expiries, rec.WinnerKey); err != nil {
				return err
			}
		}
	}
	return nil
}
