package allocproof_test

import (
	"testing"

	"repro/internal/lint/allocproof"
	"repro/internal/lint/linttest"
)

func TestAllocProof(t *testing.T) {
	linttest.Run(t, "testdata/src/a", allocproof.Analyzer)
}

// TestAllocProofConstructs runs the classifier's fixture: one hot function
// per allocating construct, each a finding, beside the sanctioned shapes
// (reused-buffer appends, value copies, panic-argument formatting).
func TestAllocProofConstructs(t *testing.T) {
	linttest.Run(t, "testdata/src/constructs", allocproof.Analyzer)
}

// TestAllocProofFaultFixture pins the injector contract: the disabled
// fault check on the PCI transfer path is a nil check plus a map probe;
// per-operation events, formatting, or fresh slices are findings.
func TestAllocProofFaultFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/fault", allocproof.Analyzer)
}
