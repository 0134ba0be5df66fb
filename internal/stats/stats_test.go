package stats

import (
	"math"
	"strings"
	"testing"
)

func TestBandwidthMeterValidation(t *testing.T) {
	if _, err := NewBandwidthMeter(0, 1e6); err == nil {
		t.Error("accepted zero streams")
	}
	if _, err := NewBandwidthMeter(1, 0); err == nil {
		t.Error("accepted zero window")
	}
	m, _ := NewBandwidthMeter(2, 1e6)
	if err := m.Record(5, 1, 0); err == nil {
		t.Error("accepted out-of-range stream")
	}
}

func TestBandwidthWindows(t *testing.T) {
	// 1 ms windows; stream 0 sends 1000 B per 0.5 ms -> 2 MB/s.
	m, _ := NewBandwidthMeter(2, 1e6)
	for i := 0; i < 10; i++ {
		if err := m.Record(0, 1000, float64(i)*0.5e6); err != nil {
			t.Fatal(err)
		}
	}
	m.Finish()
	pts := m.Series(0)
	if len(pts) < 4 {
		t.Fatalf("only %d windows", len(pts))
	}
	for i, p := range pts[:4] {
		if math.Abs(p.Y-2.0) > 1e-9 {
			t.Fatalf("window %d = %v MB/s, want 2", i, p.Y)
		}
	}
	// Stream 1 sent nothing: all zero.
	for _, p := range m.Series(1) {
		if p.Y != 0 {
			t.Fatalf("idle stream shows %v MB/s", p.Y)
		}
	}
	if math.Abs(m.MeanMBps(1)) > 1e-12 {
		t.Fatalf("idle mean = %v", m.MeanMBps(1))
	}
}

func TestBandwidthGapsProduceZeroWindows(t *testing.T) {
	m, _ := NewBandwidthMeter(1, 1e6)
	m.Record(0, 500, 0)
	m.Record(0, 500, 5.2e6) // 5 ms gap
	m.Finish()
	pts := m.Series(0)
	if len(pts) != 6 {
		t.Fatalf("windows = %d, want 6", len(pts))
	}
	for i := 1; i <= 4; i++ {
		if pts[i].Y != 0 {
			t.Fatalf("gap window %d = %v", i, pts[i].Y)
		}
	}
	if pts[5].Y == 0 || pts[0].Y == 0 {
		t.Fatal("bracketing windows lost their bytes")
	}
}

func TestMeanMBps(t *testing.T) {
	m, _ := NewBandwidthMeter(1, 1e6)
	m.Record(0, 1000, 0.1e6)
	m.Record(0, 3000, 1.1e6)
	m.Finish()
	if got := m.MeanMBps(0); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("mean = %v, want 2", got)
	}
}

func TestDelayRecorder(t *testing.T) {
	if _, err := NewDelayRecorder(0); err == nil {
		t.Error("accepted zero streams")
	}
	d, _ := NewDelayRecorder(2)
	if err := d.Record(7, 0, 1); err == nil {
		t.Error("accepted out-of-range stream")
	}
	delays := []float64{1e6, 3e6, 2e6, 10e6} // ns -> 1,3,2,10 ms
	for i, ns := range delays {
		if err := d.Record(0, uint64(i), ns); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Mean(0); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("mean = %v ms, want 4", got)
	}
	if got := d.Max(0); math.Abs(got-10.0) > 1e-9 {
		t.Fatalf("max = %v ms, want 10", got)
	}
	if d.Mean(1) != 0 || d.Max(1) != 0 {
		t.Fatal("empty stream stats nonzero")
	}
	if len(d.Series(0)) != 4 {
		t.Fatalf("series length %d", len(d.Series(0)))
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	s1 := []Point{{X: 0, Y: 1}, {X: 1, Y: 2}}
	s2 := []Point{{X: 0, Y: 5}}
	if err := WriteCSV(&sb, "t", []string{"a", "b"}, [][]Point{s1, s2}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), got)
	}
	if lines[0] != "t,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "0,1,5" {
		t.Fatalf("row 1 %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Fatalf("row 2 %q (short series must leave an empty cell)", lines[2])
	}
	if err := WriteCSV(&sb, "t", []string{"a"}, [][]Point{s1, s2}); err == nil {
		t.Error("accepted mismatched labels")
	}
}

func TestDownsample(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{X: float64(i)}
	}
	out := Downsample(pts, 3)
	if len(out) != 4 || out[1].X != 3 || out[3].X != 9 {
		t.Fatalf("downsampled = %v", out)
	}
	if got := Downsample(pts, 1); len(got) != 10 {
		t.Fatal("k=1 must keep everything")
	}
}

func TestJitter(t *testing.T) {
	d, _ := NewDelayRecorder(2)
	// Delays 1, 3, 2, 6 ms -> diffs 2, 1, 4 -> mean 7/3.
	for i, ms := range []float64{1, 3, 2, 6} {
		if err := d.Record(0, uint64(i), ms*1e6); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Jitter(0); math.Abs(got-7.0/3) > 1e-9 {
		t.Fatalf("jitter = %v, want %v", got, 7.0/3)
	}
	if d.Jitter(1) != 0 {
		t.Fatal("empty stream jitter nonzero")
	}
	d.Record(1, 0, 5e6)
	if d.Jitter(1) != 0 {
		t.Fatal("single-packet jitter nonzero")
	}
}

func TestSumSeries(t *testing.T) {
	a := []Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	b := []Point{{X: 1, Y: 10}, {X: 3, Y: 20}}
	got := SumSeries(a, b)
	want := []Point{{X: 1, Y: 12}, {X: 3, Y: 24}, {X: 5, Y: 6}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := SumSeries(); len(out) != 0 {
		t.Errorf("empty merge = %v", out)
	}
	if out := SumSeries(nil, a); len(out) != 3 || out[0] != a[0] {
		t.Errorf("nil + a = %v", out)
	}
}
