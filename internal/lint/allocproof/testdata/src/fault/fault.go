// Package fault is the allocproof fixture for the fault-injection layer:
// the injector's per-operation check sits on the PCI transfer hot path, so
// with no fault scheduled it must cost a nil check and a map probe — zero
// allocations. Building events, formatting trace lines, or growing fresh
// slices per operation would put garbage on every transfer; each is a
// finding here.
package fault

import "fmt"

// Fault is the injected outcome for one bus operation (value-typed: a map
// probe returns it without allocating).
type Fault struct {
	StallNs uint64
	Fails   int
}

// Event is a schedule entry.
type Event struct {
	Kind  int
	At    uint64
	Shard int
}

// Injector maps bus-operation indices to faults.
type Injector struct {
	faults  map[uint64]Fault
	trace   []Event
	scratch []byte
}

// GoodOnTransfer is the sanctioned shape: nil-receiver no-op plus a map
// probe, value result, nothing allocated.
//
//sslint:hotpath
func (inj *Injector) GoodOnTransfer(op uint64) Fault {
	if inj == nil {
		return Fault{}
	}
	return inj.faults[op]
}

// GoodRecordReused appends into the injector's own reused buffer.
//
//sslint:hotpath
func (inj *Injector) GoodRecordReused(e Event) {
	inj.trace = append(inj.trace, e)
}

// BadEventPerOp heap-allocates an event on every bus operation.
//
//sslint:hotpath
func (inj *Injector) BadEventPerOp(op uint64) *Event {
	return &Event{At: op} // want `&composite literal in the hot path heap-allocates`
}

// BadTracePerOp formats a trace line on every bus operation.
//
//sslint:hotpath
func (inj *Injector) BadTracePerOp(op uint64) string {
	return fmt.Sprintf("op=%d", op) // want `fmt.Sprintf in the hot path allocates`
}

// BadFreshLog grows a slice that is not one of the injector's reused
// buffers.
//
//sslint:hotpath
func (inj *Injector) BadFreshLog(dst []Event, e Event) []Event {
	out := append(dst, e) // want `append outside the reused-buffer pattern`
	return out
}

// BadScheduleRebuild rebuilds the fault map per operation.
//
//sslint:hotpath
func (inj *Injector) BadScheduleRebuild(op uint64) map[uint64]Fault {
	return map[uint64]Fault{op: {}} // want `map literal in the hot path allocates`
}

// BadDeferredRecovery defers cleanup on the per-operation path.
//
//sslint:hotpath
func (inj *Injector) BadDeferredRecovery(release func()) {
	defer release() // want `defer in the hot path`
	_ = inj.faults
}
