//go:build race

package ctlplane

// The race runtime allocates on its own behalf, so allocation-count slopes
// drift under it; TestReplayChecksAllocateNothingPerEpoch asserts only
// without it.
func init() { raceEnabled = true }
