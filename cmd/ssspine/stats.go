package main

import (
	"math"
	"sort"
)

// summary is how every measured quantity is reported: the median of its
// samples with both quartiles, the tail the sample supports, and the count.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Tail is the highest percentile with at least ten samples beyond it
	// (TailP names it, e.g. 0.99); both are zero when the sample is too
	// small to support any.
	Tail  float64 `json:"tail,omitempty"`
	TailP float64 `json:"tail_p,omitempty"`
	N     int     `json:"n"`
}

// point is the summary of a quantity measured once.
func point(v float64) summary { return summary{Value: v, Q1: v, Q3: v, N: 1} }

// summarize sorts a copy of xs and reports its median, quartiles and tail.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q2, q3 := quartilesSorted(s)
	out := summary{Value: q2, Q1: q1, Q3: q3, N: len(s)}
	if p, ok := tailLevel(len(s)); ok {
		out.TailP, out.Tail = p, percentileSorted(s, p)
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).Value }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// scale returns xs with every element multiplied by f (a unit change).
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// scaled is s in another unit.
func (s summary) scaled(f float64) summary {
	s.Value, s.Q1, s.Q3, s.Tail = s.Value*f, s.Q1*f, s.Q3*f, s.Tail*f
	return s
}

// p99 is the nearest-rank 99th percentile of xs, or 0 when the sample leaves
// fewer than ten values beyond it.
func p99(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, 0.99)
}

// opGroups is how many consecutive groups a long run of op timings is cut
// into to estimate how far its median moves from one stretch to the next.
const opGroups = 10

// summarizeOps summarizes per-op timings in recorded order. The median and
// tail are over every op. The quartiles are a noise estimate, not the
// distribution's: with few ops (each a sizeable trial) they are the ops' own
// quartiles; with many (microsecond steps, acks) they are the quartiles of
// the medians of opGroups consecutive groups, because the spread of a step
// distribution says what the request mix looks like, not how repeatable its
// median is.
func summarizeOps(xs []float64) summary {
	out := summarize(xs)
	if len(xs) < 4*opGroups {
		return out
	}
	meds := make([]float64, opGroups)
	for g := range meds {
		meds[g] = median(xs[g*len(xs)/opGroups : (g+1)*len(xs)/opGroups])
	}
	q := summarize(meds)
	out.Q1, out.Q3 = q.Q1, q.Q3
	return out
}

// quartilesSorted returns the three cut points of sorted s by the exclusive
// method — the one Python's statistics.quantiles(values, n=4) uses, which is
// what the driver computes its spreads with. A single sample is its own
// quartiles.
func quartilesSorted(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const parts = 4
		m := n + 1
		j := i * m / parts
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*parts)
		return (s[j-1]*(parts-delta) + s[j]*delta) / parts
	}
	return cut(1), cut(2), cut(3)
}

// percentileSorted is the nearest-rank p-quantile (0 < p ≤ 1) of sorted s.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailLevel picks the highest of p99.9 / p99 / p90 that leaves at least ten
// of n samples beyond it.
func tailLevel(n int) (float64, bool) {
	for _, l := range []struct {
		p    float64
		need int
	}{{0.999, 10000}, {0.99, 1000}, {0.90, 100}} {
		if n >= l.need {
			return l.p, true
		}
	}
	return 0, false
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the bounds are judged against.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}
