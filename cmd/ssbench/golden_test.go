package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestGolden pins the stdout of every ssbench command whose output is a
// function of the code and the seed alone. A moved paper number, PCI cost
// constant or comparator rule fails here with the differing lines;
// `go test ./cmd/ssbench -run Golden -update` rewrites the files when a
// change in output is intended. Only latency is absent: it prints
// host-timed rows (sharded sends its wall-clock numbers to stderr).
func TestGolden(t *testing.T) {
	tests := []struct {
		name string
		cmd  string
		rc   runConfig
	}{
		{name: "table3", cmd: "table3"},
		{name: "fig1", cmd: "fig1"},
		{name: "fig7", cmd: "fig7"},
		{name: "fig8", cmd: "fig8"},
		{name: "fig9", cmd: "fig9"},
		{name: "fig10", cmd: "fig10"},
		{name: "throughput", cmd: "throughput"},
		{name: "ablation", cmd: "ablation"},
		{name: "extensions", cmd: "extensions"},
		{name: "scale", cmd: "scale"},
		{name: "gsr", cmd: "gsr"},
		{name: "sortquality", cmd: "sortquality"},
		// The two seed/shard pairs the chaos gate has always swept.
		{name: "faults-shards2-seed1", cmd: "faults", rc: runConfig{shards: 2, seed: 1}},
		{name: "faults-shards3-seed42", cmd: "faults", rc: runConfig{shards: 3, seed: 42}},
		{name: "sharded-shards2", cmd: "sharded", rc: runConfig{shards: 2}},
		{name: "sharded-shards4", cmd: "sharded", rc: runConfig{shards: 4}},
		// Short seeded runs of the two control-plane gates: the live
		// admission path, journal and recovery replay end to end.
		{name: "soak-seed1", cmd: "soak", rc: runConfig{seed: 1, events: 20000}},
		{name: "crash-seed1", cmd: "crash", rc: runConfig{seed: 1, events: 5000, points: 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := captureStdout(t, func() error { return run(tt.cmd, tt.rc) })
			path := filepath.Join("testdata", "golden", tt.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ssbench %s output differs from %s:\n%s", tt.cmd, path, lineDiff(got, want))
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	runErr := f()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// lineDiff lists the first lines at which got and want differ.
func lineDiff(got, want []byte) string {
	const maxLines = 10
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			continue
		}
		if shown == maxLines {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n  got:  %q\n  want: %q\n", i+1, gl, wl)
		shown++
	}
	return b.String()
}
