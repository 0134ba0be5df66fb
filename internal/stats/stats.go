// Package stats provides the measurement instruments behind the paper's
// figures: windowed per-stream bandwidth series (Figures 8 and 10),
// per-packet queuing-delay series (Figure 9), and CSV export so the bench
// harness can dump plot-ready data.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	X float64 // time (seconds) or packet index
	Y float64 // measured value (MB/s, ms, …)
}

// BandwidthMeter accumulates per-stream byte counts into fixed windows and
// emits MB/s series — the instrument behind "we report the output bandwidth
// of streams".
type BandwidthMeter struct {
	windowNs float64
	cur      []float64 // bytes in the open window, per stream
	start    float64   // open window start (ns)
	series   [][]Point
}

// NewBandwidthMeter builds a meter for streams streams with the given
// averaging window.
func NewBandwidthMeter(streams int, windowNs float64) (*BandwidthMeter, error) {
	if streams < 1 {
		return nil, fmt.Errorf("stats: %d streams", streams)
	}
	if windowNs <= 0 {
		return nil, fmt.Errorf("stats: window %v ns", windowNs)
	}
	return &BandwidthMeter{
		windowNs: windowNs,
		cur:      make([]float64, streams),
		series:   make([][]Point, streams),
	}, nil
}

// Record accounts bytes transmitted for stream at virtual time atNs.
// Samples must arrive in non-decreasing time order.
func (m *BandwidthMeter) Record(stream, bytes int, atNs float64) error {
	if stream < 0 || stream >= len(m.cur) {
		return fmt.Errorf("stats: stream %d out of range", stream)
	}
	for atNs >= m.start+m.windowNs {
		m.flush()
	}
	m.cur[stream] += float64(bytes)
	return nil
}

// flush closes the open window, appending one point per stream.
func (m *BandwidthMeter) flush() {
	mid := (m.start + m.windowNs/2) / 1e9
	for i := range m.cur {
		mbps := m.cur[i] / m.windowNs * 1e9 / 1e6
		m.series[i] = append(m.series[i], Point{X: mid, Y: mbps})
		m.cur[i] = 0
	}
	m.start += m.windowNs
}

// Finish closes the final partial window.
func (m *BandwidthMeter) Finish() { m.flush() }

// Series returns stream i's bandwidth points (window midpoints, MB/s).
func (m *BandwidthMeter) Series(i int) []Point { return m.series[i] }

// MeanMBps returns stream i's mean bandwidth across all closed windows.
func (m *BandwidthMeter) MeanMBps(i int) float64 {
	pts := m.series[i]
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Y
	}
	return sum / float64(len(pts))
}

// DelayRecorder collects per-packet queuing delays per stream — the
// instrument behind Figure 9.
type DelayRecorder struct {
	series [][]Point
}

// NewDelayRecorder builds a recorder for streams streams.
func NewDelayRecorder(streams int) (*DelayRecorder, error) {
	if streams < 1 {
		return nil, fmt.Errorf("stats: %d streams", streams)
	}
	return &DelayRecorder{series: make([][]Point, streams)}, nil
}

// Record logs packet packetIndex of stream with the given queuing delay.
func (d *DelayRecorder) Record(stream int, packetIndex uint64, delayNs float64) error {
	if stream < 0 || stream >= len(d.series) {
		return fmt.Errorf("stats: stream %d out of range", stream)
	}
	d.series[stream] = append(d.series[stream], Point{X: float64(packetIndex), Y: delayNs / 1e6})
	return nil
}

// Series returns stream i's (packet index, delay ms) points.
func (d *DelayRecorder) Series(i int) []Point { return d.series[i] }

// Mean returns stream i's mean delay in milliseconds.
func (d *DelayRecorder) Mean(i int) float64 {
	pts := d.series[i]
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Y
	}
	return sum / float64(len(pts))
}

// Max returns stream i's maximum delay (ms).
func (d *DelayRecorder) Max(i int) float64 {
	var mx float64
	for _, p := range d.series[i] {
		if p.Y > mx {
			mx = p.Y
		}
	}
	return mx
}

// Jitter returns stream i's delay jitter in milliseconds — the mean
// absolute difference between consecutive packets' queuing delays (the
// RFC 3550-style instantaneous jitter averaged over the run). Bandwidth,
// delay and delay-jitter are the three QoS bounds the ShareStreams
// framework provisions.
func (d *DelayRecorder) Jitter(i int) float64 {
	pts := d.series[i]
	if len(pts) < 2 {
		return 0
	}
	var sum float64
	for k := 1; k < len(pts); k++ {
		diff := pts[k].Y - pts[k-1].Y
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum / float64(len(pts)-1)
}

// WriteCSV renders labeled series side by side: the first column is X (taken
// from the longest series), then one column per series (empty cells where a
// series is shorter).
func WriteCSV(w io.Writer, xLabel string, labels []string, series [][]Point) error {
	if len(labels) != len(series) {
		return fmt.Errorf("stats: %d labels for %d series", len(labels), len(series))
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	var b strings.Builder
	b.WriteString(xLabel)
	for _, l := range labels {
		b.WriteByte(',')
		b.WriteString(l)
	}
	b.WriteByte('\n')
	for row := 0; row < maxLen; row++ {
		x := math.NaN()
		for _, s := range series {
			if row < len(s) {
				x = s[row].X
				break
			}
		}
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteByte(',')
			if row < len(s) {
				fmt.Fprintf(&b, "%g", s[row].Y)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SumSeries merges several window-aligned series into one by summing the
// Y values at each window index — the aggregator that folds per-shard
// bandwidth series into a single endsystem view. The X coordinates are
// taken from the first series that has the row; shorter series contribute
// zero beyond their end. Series produced by BandwidthMeters with the same
// window size align by construction.
func SumSeries(series ...[]Point) []Point {
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	out := make([]Point, maxLen)
	for row := 0; row < maxLen; row++ {
		haveX := false
		for _, s := range series {
			if row >= len(s) {
				continue
			}
			if !haveX {
				out[row].X = s[row].X
				haveX = true
			}
			out[row].Y += s[row].Y
		}
	}
	return out
}

// Downsample keeps every k-th point of a series (k ≥ 1), for readable CSV
// dumps of 64000-packet runs.
func Downsample(pts []Point, k int) []Point {
	if k <= 1 {
		return pts
	}
	out := make([]Point, 0, len(pts)/k+1)
	for i := 0; i < len(pts); i += k {
		out = append(out, pts[i])
	}
	return out
}
