//go:build race

package core

// The race detector slows the decision cycle ~20× and adds nothing to the
// single-goroutine differential runs, so they shorten under it.
func init() { raceEnabled = true }
