package stats

// Edge-case guards for the measurement instruments: empty windows, single
// samples, records landing exactly on a window boundary, and degenerate
// SumSeries inputs. These paths feed every figure and the sharded
// aggregator, so off-by-one-window bugs here silently skew results.

import (
	"testing"
)

// TestMeterFinishOnlyEmitsOneEmptyWindow: a meter that saw no traffic still
// closes exactly one (zero) window on Finish, so downstream consumers see an
// aligned, all-zero series instead of a missing one.
func TestMeterFinishOnlyEmitsOneEmptyWindow(t *testing.T) {
	m, err := NewBandwidthMeter(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m.Finish()
	for i := 0; i < 2; i++ {
		pts := m.Series(i)
		if len(pts) != 1 || pts[0].Y != 0 {
			t.Fatalf("stream %d series = %+v, want one zero window", i, pts)
		}
	}
	if m.MeanMBps(0) != 0 {
		t.Fatalf("mean over empty run = %v, want 0", m.MeanMBps(0))
	}
}

// TestMeterSingleSample: one record, one Finish — the sample lands in the
// first window with the exact MB/s conversion.
func TestMeterSingleSample(t *testing.T) {
	m, err := NewBandwidthMeter(1, 1e6) // 1 ms window
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 500, 10); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	pts := m.Series(0)
	if len(pts) != 1 {
		t.Fatalf("series = %+v, want exactly one window", pts)
	}
	// 500 bytes over 1 ms = 0.5 MB/s, window midpoint at 0.5 ms = 5e-4 s.
	if pts[0].Y != 0.5 || pts[0].X != 5e-4 {
		t.Fatalf("point = %+v, want {X: 5e-4, Y: 0.5}", pts[0])
	}
	if got := m.MeanMBps(0); got != 0.5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
}

// TestMeterRecordExactlyAtBoundary: a record at atNs == windowNs must close
// the first window and land in the second — the window interval is
// half-open [start, start+window).
func TestMeterRecordExactlyAtBoundary(t *testing.T) {
	m, err := NewBandwidthMeter(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 300, 1000); err != nil { // exactly the boundary
		t.Fatal(err)
	}
	m.Finish()
	pts := m.Series(0)
	if len(pts) != 2 {
		t.Fatalf("series = %+v, want two windows", pts)
	}
	// 100 bytes / 1000 ns = 100 MB/s; 300 bytes / 1000 ns = 300 MB/s.
	if pts[0].Y != 100 || pts[1].Y != 300 {
		t.Fatalf("windows = %v/%v MB/s, want 100/300 (boundary sample in window 2)", pts[0].Y, pts[1].Y)
	}
}

// TestMeterMultiWindowSkip: a long silent gap emits one zero point per
// skipped window, keeping series index-aligned across streams and shards.
func TestMeterMultiWindowSkip(t *testing.T) {
	m, err := NewBandwidthMeter(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(0, 100, 4500); err != nil { // windows 1..3 silent
		t.Fatal(err)
	}
	m.Finish()
	pts := m.Series(0)
	if len(pts) != 5 {
		t.Fatalf("series = %+v, want 5 windows", pts)
	}
	for w := 1; w <= 3; w++ {
		if pts[w].Y != 0 {
			t.Fatalf("window %d = %v, want 0 (silent)", w, pts[w].Y)
		}
	}
	if pts[4].Y == 0 {
		t.Fatal("final window lost the late sample")
	}
}

// TestSumSeriesEdges: no input, all-empty input, mismatched lengths, and X
// inheritance from the first series that has the row.
func TestSumSeriesEdges(t *testing.T) {
	if got := SumSeries(); len(got) != 0 {
		t.Fatalf("SumSeries() = %+v, want empty", got)
	}
	if got := SumSeries(nil, []Point{}); len(got) != 0 {
		t.Fatalf("SumSeries(nil, empty) = %+v, want empty", got)
	}
	long := []Point{{X: 1, Y: 10}, {X: 2, Y: 20}, {X: 3, Y: 30}}
	short := []Point{{X: 1, Y: 1}}
	got := SumSeries(short, long)
	want := []Point{{X: 1, Y: 11}, {X: 2, Y: 20}, {X: 3, Y: 30}}
	if len(got) != len(want) {
		t.Fatalf("sum = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A single series sums to itself.
	same := SumSeries(long)
	for i := range long {
		if same[i] != long[i] {
			t.Fatalf("identity sum[%d] = %+v, want %+v", i, same[i], long[i])
		}
	}
}

// TestJitterSingleSample: a one-point series has no delay variation.
func TestJitterSingleSample(t *testing.T) {
	d, err := NewDelayRecorder(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Record(0, 0, 7e6); err != nil { // 7 ms
		t.Fatal(err)
	}
	if d.Jitter(0) != 0 {
		t.Fatalf("single-sample jitter = %v, want 0", d.Jitter(0))
	}
}

// TestWriteCSVEmptySeries: zero-length series still produce a header and no
// NaN panics; mismatched label counts fail.
func TestWriteCSVEmptySeries(t *testing.T) {
	var b mockWriter
	if err := WriteCSV(&b, "x", []string{"a"}, [][]Point{{}}); err != nil {
		t.Fatal(err)
	}
	if string(b) != "x,a\n" {
		t.Fatalf("csv = %q, want header only", string(b))
	}
	if err := WriteCSV(&b, "x", []string{"a", "b"}, [][]Point{{}}); err == nil {
		t.Fatal("mismatched labels must fail")
	}
}

type mockWriter []byte

func (w *mockWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
