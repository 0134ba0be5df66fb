package hwsim

import (
	"strconv"
	"strings"
	"testing"
)

func TestWriteVCDStructure(t *testing.T) {
	tr := NewTrace(16)
	tr.Add(Event{Cycle: 0, Signal: "ctl.state", Value: "LOAD"})
	tr.Add(Event{Cycle: 1, Signal: "ctl.state", Value: "SCHEDULE"})
	tr.Add(Event{Cycle: 1, Signal: "ctl.winner", Value: "3"})
	tr.Add(Event{Cycle: 4, Signal: "ctl.state", Value: "PRIORITY UPDATE"})

	var sb strings.Builder
	if err := tr.WriteVCD(&sb, "sched"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module sched $end",
		"$var string 1 ! ctl.state $end",
		"$var string 1 \" ctl.winner $end",
		"$enddefinitions $end",
		"#0\nsLOAD !",
		"#1\nsSCHEDULE !",
		"s3 \"",
		"#4\nsPRIORITY_UPDATE !", // whitespace escaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// Timestamps must appear once per cycle, not per event.
	if strings.Count(out, "#1\n") != 1 {
		t.Errorf("duplicate timestamp markers:\n%s", out)
	}
}

func TestWriteVCDDefaultModuleAndSanitize(t *testing.T) {
	tr := NewTrace(4)
	tr.Add(Event{Cycle: 0, Signal: "a b/c", Value: "x"})
	var sb strings.Builder
	if err := tr.WriteVCD(&sb, ""); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "$scope module sharestreams $end") {
		t.Error("default module name missing")
	}
	if !strings.Contains(out, "a_b_c") {
		t.Errorf("signal name not sanitized:\n%s", out)
	}
}

func TestIDCodeUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("idCode collision at %d: %q", i, c)
		}
		seen[c] = true
		for _, r := range c {
			if r < 33 || r > 126 {
				t.Fatalf("idCode(%d) contains non-printable %q", i, c)
			}
		}
	}
}

func TestVCDFromSchedulerTraceShape(t *testing.T) {
	// A trace recorded one event per cycle, as the scheduler control unit
	// records it, round-trips.
	tr := NewTrace(32)
	for i := 0; i < 5; i++ {
		tr.Add(Event{Cycle: uint64(i), Signal: "slot0.deadline", Value: strconv.Itoa(i * 3)})
	}
	var sb strings.Builder
	if err := tr.WriteVCD(&sb, "dp"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "slot0.deadline") {
		t.Error("datapath signal missing from VCD")
	}
}
