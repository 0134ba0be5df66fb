package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkDoc is BENCHMARK.json's shape: exactly the driver contract's keys.
type benchmarkDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []benchWhy     `json:"workloads"`
	EndToEnd   []benchBounded `json:"end_to_end"`
	PerLayer   []benchMetric  `json:"per_layer"`
}

type benchWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchBounded struct {
	benchMetric
	Bound float64 `json:"bound"`
}

// wantBenchmarkDoc renders the spec tables the way BENCHMARK.json must read.
func wantBenchmarkDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./cmd/ssspine"},
		Paths:      []string{"cmd/ssspine"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, benchWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, benchBounded{benchMetric{m.Name, m.Unit, m.Better}, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, benchMetric{m.Name, m.Unit, m.Better})
	}
	return doc
}

// TestBenchmarkJSONMatchesSpec keeps the names the driver reads and the names
// the code emits one set. When it fails it prints the file the tables call
// for; that output is BENCHMARK.json.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkDoc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nBENCHMARK.json should read:\n%s", err, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; it should read:\n%s", want)
	}
	// The file must hold exactly the contract's keys.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
}

// TestSpecWithinContract checks the tables against the driver's limits.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if w.run == nil || w.Op == "" {
			t.Errorf("workload %s: no run function or op description", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", runSeconds)
	}
}
