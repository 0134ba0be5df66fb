package fault

import (
	"bytes"
	"errors"
	"testing"
)

func TestFaultySinkInjectsDeterministically(t *testing.T) {
	write := func() (*FaultySink, *bytes.Buffer, []int) {
		var buf bytes.Buffer
		s := NewFaultySink(&buf, SinkPlan{Seed: 9, Errors: 3, ShortWrites: 3, Horizon: 32})
		var faulted []int
		line := []byte("0123456789abcdef\n")
		for i := 0; i < 32; i++ {
			n, err := s.Write(line)
			if err != nil || n != len(line) {
				faulted = append(faulted, i)
			}
		}
		return s, &buf, faulted
	}
	s1, b1, f1 := write()
	s2, b2, f2 := write()
	if s1.Injected() != 6 || s2.Injected() != 6 {
		t.Fatalf("injected %d/%d faults, want 6 each", s1.Injected(), s2.Injected())
	}
	if len(f1) != 6 || len(f1) != len(f2) {
		t.Fatalf("faulted lines %v vs %v, want 6 identical", f1, f2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed faulted different lines: %v vs %v", f1, f2)
		}
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same seed persisted different bytes")
	}
	// A short write persisted a strict prefix, so the sink text is shorter
	// than 32 full lines but not empty.
	if b1.Len() == 0 || b1.Len() >= 32*17 {
		t.Fatalf("sink persisted %d bytes, want a faulted subset of %d", b1.Len(), 32*17)
	}
}

func TestCrashWriterTearsMidWrite(t *testing.T) {
	var buf bytes.Buffer
	c := &CrashWriter{W: &buf, Budget: 25}
	line := []byte("0123456789\n") // 11 bytes
	if n, err := c.Write(line); n != 11 || err != nil {
		t.Fatalf("first write: %d, %v", n, err)
	}
	if n, err := c.Write(line); n != 11 || err != nil {
		t.Fatalf("second write: %d, %v", n, err)
	}
	// The third write crosses the budget: 3 bytes persist, then the crash.
	n, err := c.Write(line)
	if n != 3 || !errors.Is(err, ErrCrash) {
		t.Fatalf("crossing write: %d, %v; want 3, ErrCrash", n, err)
	}
	if !c.crashed || c.written != 25 || buf.Len() != 25 {
		t.Fatalf("crashed=%t written=%d buffered=%d, want true/25/25", c.crashed, c.written, buf.Len())
	}
	if n, err := c.Write(line); n != 0 || !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash write: %d, %v; want 0, ErrCrash", n, err)
	}
	if got := buf.String(); got != "0123456789\n0123456789\n012" {
		t.Fatalf("persisted %q", got)
	}
}

func TestCrashPoints(t *testing.T) {
	a := CrashPoints(3, 50, 10000)
	b := CrashPoints(3, 50, 10000)
	if len(a) != 50 {
		t.Fatalf("sampled %d points, want 50", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed sampled different points: %v vs %v", a, b)
		}
		if a[i] < 1 || a[i] >= 10000 {
			t.Fatalf("point %d out of range [1, 10000)", a[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("points not strictly ascending: %v", a)
		}
	}
	// Tiny ranges saturate: every offset in [1, size).
	if got := CrashPoints(1, 100, 5); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("saturated sample: %v", got)
	}
	if CrashPoints(1, 0, 100) != nil || CrashPoints(1, 10, 1) != nil {
		t.Fatal("degenerate samples must be empty")
	}
}
