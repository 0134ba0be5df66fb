//go:build !linux

package main

import "time"

// sleepUntil blocks until t, to the runtime timer's resolution (see
// sleep_linux.go for why Linux does not settle for that).
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
