package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until t. The gap is waited out in
// the kernel because the Go runtime, once every goroutine is parked, wakes
// for its next timer through epoll_wait, whose timeout is whole
// milliseconds: a 100 µs time.Sleep on an otherwise idle daemon returns up
// to a millisecond late, which is the whole gap.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
