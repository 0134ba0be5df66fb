package main

import (
	"testing"

	"repro/internal/lint/analysis"
)

// TestFaultLayerClean asserts the fault-injection layer and the packages
// it instruments pass the full applicable analyzer suite with zero
// findings — in particular walltime (seeded schedules only, backoff in
// virtual ns) and allocproof (the disabled injector costs nothing on the
// transfer hot path). `make lint` checks ./... too; this test keeps
// the guarantee local to `go test` so a regression names the contract.
func TestFaultLayerClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", []string{
		"repro/internal/fault",
		"repro/internal/pci",
		"repro/internal/shard",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, applicable(pkg.Path))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			t.Errorf("%s:%d: [%s] %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
}
