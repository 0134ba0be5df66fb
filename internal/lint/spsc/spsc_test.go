package spsc_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/spsc"
)

// TestSPSCAtomic runs the declaration and confinement fixture: guarded
// fields typed sync/atomic and touched only by the owner's methods.
func TestSPSCAtomic(t *testing.T) {
	linttest.Run(t, "testdata/src/atomic", spsc.Analyzer)
}

// TestSPSCFlow runs the dominance fixture: every Store/Swap observed by a
// Load of the same field on all paths.
func TestSPSCFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/flow", spsc.Analyzer)
}
