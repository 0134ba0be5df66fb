// Package shard implements the sharded ShareStreams endsystem router: K
// independent core.Scheduler instances run concurrently, one pipeline per
// shard, each with its own Queue Manager, per-stream SPSC rings, PCI bus
// and transmission ring. The paper's §5.2 operating points show the Stream
// processor — 2130 ns of host cost per packet — is the endsystem
// bottleneck, not the scheduler; sharding divides that host cost across
// cores so aggregate decision throughput grows with parallelism instead of
// being capped by one goroutine.
//
// Streams are mapped to shards by an FNV-1a flow hash over the 64-bit
// stream ID, so every frame of a stream lands on the same scheduler and
// in-stream order is preserved; there is no cross-shard state of any kind.
// An aggregator merges the per-shard regblock.Counters and bandwidth series
// into one endsystem view.
//
// The Figure 3 pipeline itself — produce → schedule → PCI-batch → transmit —
// is written once (pipeline.go) with one driver: a pinned thread per shard
// runs every phase in batched epochs, so a run's modeled results and ledgers
// are the same from run to run. A batch run has one lifecycle, RunSupervised
// (supervisor.go): rounds of the per-shard pipelines, with crash recovery
// between rounds; Run is its fault-free call, where the first round is also
// the last. Live mode (live.go) hands the bare scheduler to a control plane.
//
// # Modeled time
//
// Shards run in parallel, so the modeled completion time of a sharded run
// is the maximum over the per-shard virtual times (host cost plus metered
// transfers), not their sum — the slowest shard finishes last. Aggregate
// packets/s is total frames over that maximum, which keeps sharded numbers
// directly comparable to the single-scheduler §5.2 operating points: K
// evenly loaded shards deliver K times the single-pipeline rate. Run also
// reports wall-clock throughput of the simulation itself, which is what
// actually scales with host cores.
package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/regblock"
	"repro/internal/ringbuf"
	"repro/internal/stats"
)

// DefaultHostNs is the calibrated per-packet Stream-processor cost (Queue
// Manager dequeue + Transmission Engine DMA setup) on the paper's 500 MHz
// Pentium III host: 2130 ns per packet yields the §5.2 operating point of
// 469,483 packets/s when PCI transfer time is excluded. The endsystem driver
// layers on top of this package and re-exports it as endsystem.HostCostNs.
const DefaultHostNs = 2130.0

// StreamID identifies a stream across the whole sharded endsystem; the
// per-shard slot indices are an internal detail of the dispatcher.
type StreamID uint64

// Config parameterizes a sharded router. Zero fields take defaults.
type Config struct {
	// Shards is the scheduler-instance count K (≥ 1).
	Shards int
	// SlotsPerShard is each scheduler's stream-slot count (a power of
	// two ≥ 2, like core.Config.Slots).
	SlotsPerShard int
	// RingCapacity is the per-stream SPSC ring capacity (a power of two;
	// default 1024).
	RingCapacity int
	// TxRingCapacity is each shard's scheduled-ID ring capacity (a power
	// of two; default 1024).
	TxRingCapacity int
	// FrameBytes is the frame size Run produces (default 1500).
	FrameBytes int
	// HostNs is the modeled per-packet Stream-processor cost (default
	// DefaultHostNs, the §5.2 calibration).
	HostNs float64
	// Mode selects PCI transfer metering; each shard meters its own bus.
	Mode pci.Mode
	// TransferBatch is the frames per metered PCI batch (default 32).
	TransferBatch int
	// MeterWindows is the number of bandwidth measurement windows across
	// the run (default 32).
	MeterWindows int
	// Program is the rank program every shard's scheduler runs (the
	// comparator mode follows from it). The zero value, ProgramDWCS, is the
	// full Table-2 datapath — the historical behavior. Admitted specs must
	// still be legal under the derived mode (core.Admit enforces this).
	Program decision.Program
	// RunToCompletion is kept only for source compatibility.
	//
	// Deprecated: every run is run-to-completion; this field has no effect.
	RunToCompletion bool
	// BufferPool, when its Reservation is non-zero, replaces each shard's
	// fixed per-stream rings (RingCapacity) with the Queue Manager's
	// delay-driven shared buffer pool (qm.NewShared): every stream keeps a
	// guaranteed reservation and a per-shard burst pool lends the rest by
	// measured queueing delay, so a hot stream bursting through a draining
	// queue can hold far more than an even split while a wedged stream is
	// capped at its reservation. The zero value keeps the historical fixed
	// rings. The pool is per shard — there is still no cross-shard state.
	BufferPool qm.SharedConfig
}

// withDefaults returns cfg with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.RingCapacity == 0 {
		c.RingCapacity = 1024
	}
	if c.TxRingCapacity == 0 {
		c.TxRingCapacity = 1024
	}
	if c.FrameBytes == 0 {
		c.FrameBytes = 1500
	}
	if c.HostNs == 0 {
		c.HostNs = DefaultHostNs
	}
	if c.TransferBatch == 0 {
		c.TransferBatch = 32
	}
	if c.MeterWindows == 0 {
		c.MeterWindows = 32
	}
	return c
}

// Validate checks the (defaulted) configuration; ring capacities and the
// slot count are validated by the packages that consume them.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: %d shards", c.Shards)
	}
	if c.FrameBytes < 1 {
		return fmt.Errorf("shard: frame size %d", c.FrameBytes)
	}
	if c.HostNs <= 0 {
		return fmt.Errorf("shard: host cost %v ns", c.HostNs)
	}
	if c.TransferBatch < 1 {
		return fmt.Errorf("shard: transfer batch %d", c.TransferBatch)
	}
	if c.MeterWindows < 1 {
		return fmt.Errorf("shard: %d meter windows", c.MeterWindows)
	}
	return nil
}

// location is a stream's placement: which shard, which local slot.
type location struct {
	shard int
	slot  int
}

// shardState is one shard: a full endsystem pipeline's worth of parts.
type shardState struct {
	index   int
	manager *qm.Manager
	sched   *core.Scheduler
	txRing  *ringbuf.Ring[core.Transmission]
	bus     *pci.Bus

	// Slot occupancy, maintained by Admit, AdmitLive and EvictLive: used[i]
	// marks slot i bound to ids[i], occupied counts the used slots. Admission
	// fills the lowest free slot, so a batch run's streams hold slots
	// 0..occupied-1. used/ids belong to the admitting goroutine; occupied is
	// atomic because the obs placement gauge scrapes it while a live control
	// plane mutates slots.
	used     []bool
	ids      []StreamID
	occupied atomic.Int64

	// delivered, when RegisterMetrics has attached it, counts frames the
	// shard's transmission engine has drained — atomic, so the obs scrape
	// goroutine reads it live without racing the pipeline.
	delivered *obs.Counter
}

// Router is the sharded endsystem: the flow-hash dispatcher in front of K
// independent scheduler pipelines.
type Router struct {
	cfg    Config
	shards []*shardState
	byID   map[StreamID]location
	ran    bool
	live   bool // StartLive was called: slot lifecycle is dynamic, batch Run is barred
}

// New builds a router with cfg.Shards empty shards.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, byID: make(map[StreamID]location)}
	for k := 0; k < cfg.Shards; k++ {
		var manager *qm.Manager
		var err error
		if cfg.BufferPool.Reservation > 0 {
			manager, err = qm.NewShared(cfg.SlotsPerShard, cfg.BufferPool)
		} else {
			manager, err = qm.New(cfg.SlotsPerShard, cfg.RingCapacity)
		}
		if err != nil {
			return nil, err
		}
		sched, err := core.New(core.Config{
			Slots:   cfg.SlotsPerShard,
			Mode:    cfg.Program.Mode(),
			Routing: core.WinnerOnly,
		})
		if err != nil {
			return nil, err
		}
		txRing, err := ringbuf.New[core.Transmission](cfg.TxRingCapacity)
		if err != nil {
			return nil, err
		}
		bus, err := pci.New(pci.DefaultConfig())
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, &shardState{
			index:   k,
			manager: manager,
			sched:   sched,
			txRing:  txRing,
			bus:     bus,
			used:    make([]bool, cfg.SlotsPerShard),
			ids:     make([]StreamID, cfg.SlotsPerShard),
		})
	}
	return r, nil
}

// Shards returns the shard count K.
func (r *Router) Shards() int { return len(r.shards) }

// Streams returns the number of admitted streams.
func (r *Router) Streams() int { return len(r.byID) }

// ShardStreams returns how many streams shard k carries (0 when k is out
// of range). Batch admission fills slots densely, so this equals the batch
// admit count until live evictions open holes.
func (r *Router) ShardStreams(k int) int {
	if k < 0 || k >= len(r.shards) {
		return 0
	}
	return int(r.shards[k].occupied.Load())
}

// ShardOf returns stream id's home shard: an FNV-1a flow hash over the
// 64-bit ID reduced modulo the shard count. The mapping is deterministic,
// so every frame of a stream reaches the same scheduler and in-stream
// ordering is preserved across the whole run.
func (r *Router) ShardOf(id StreamID) int {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	x := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime
		x >>= 8
	}
	return int(h % uint64(len(r.shards)))
}

// Admit binds stream id to its flow-hashed home shard's lowest free slot.
// It fails when the home shard is full — flow-hash admission control: the
// dispatcher never re-homes a stream, exactly as a hash on the wire
// wouldn't.
func (r *Router) Admit(id StreamID, spec attr.Spec) error {
	if r.ran {
		return fmt.Errorf("shard: Admit after Run")
	}
	_, _, err := r.bind(id, spec)
	return err
}

// bind is Admit and AdmitLive's one slot-binding body: the flow hash picks
// the home shard, whose lowest free slot receives the Queue-Manager
// descriptor, the router's rank program and the scheduler block (loaded at
// once when the scheduler is already running). It returns the placement.
func (r *Router) bind(id StreamID, spec attr.Spec) (shard, slot int, err error) {
	if _, dup := r.byID[id]; dup {
		return 0, 0, fmt.Errorf("shard: stream %d already admitted", id)
	}
	k := r.ShardOf(id)
	s := r.shards[k]
	slot = -1
	for i, u := range s.used {
		if !u {
			slot = i
			break
		}
	}
	if slot < 0 {
		return 0, 0, fmt.Errorf("shard: stream %d rejected: home shard %d is full (%d slots)",
			id, k, r.cfg.SlotsPerShard)
	}
	if err := s.manager.Describe(slot, spec); err != nil {
		return 0, 0, err
	}
	if err := s.manager.SetProgram(slot, r.cfg.Program); err != nil {
		return 0, 0, err
	}
	if err := s.sched.Admit(slot, spec, s.manager.Source(slot)); err != nil {
		return 0, 0, err
	}
	s.used[slot] = true
	s.ids[slot] = id
	s.occupied.Add(1)
	r.byID[id] = location{shard: k, slot: slot}
	return k, slot, nil
}

// AdmitBalanced admits total streams with the given spec, walking candidate
// IDs upward from 0 and skipping IDs whose home shard already holds its
// fair share (⌈total/K⌉) — an even fill under flow-hash placement, for
// drivers and benchmarks that want every shard equally loaded. It returns
// the admitted IDs.
func (r *Router) AdmitBalanced(total int, spec attr.Spec) ([]StreamID, error) {
	if total < 1 || total > r.cfg.Shards*r.cfg.SlotsPerShard {
		return nil, fmt.Errorf("shard: %d streams don't fit %d×%d slots",
			total, r.cfg.Shards, r.cfg.SlotsPerShard)
	}
	quota := (total + r.cfg.Shards - 1) / r.cfg.Shards
	if quota > r.cfg.SlotsPerShard {
		quota = r.cfg.SlotsPerShard
	}
	ids := make([]StreamID, 0, total)
	for id := StreamID(0); len(ids) < total; id++ {
		if id > 1<<20 {
			return nil, fmt.Errorf("shard: flow hash failed to fill %d shards evenly", r.cfg.Shards)
		}
		if _, dup := r.byID[id]; dup {
			continue
		}
		if int(r.shards[r.ShardOf(id)].occupied.Load()) >= quota {
			continue
		}
		if err := r.Admit(id, spec); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Submit dispatches one frame of stream id to its shard's Queue Manager,
// reporting false for unknown streams or a full ring. The per-stream rings
// are SPSC: at most one goroutine may submit into any given shard (Run
// drives its own internal producers, so external Submits must not overlap
// a Run).
func (r *Router) Submit(id StreamID, f qm.Frame) bool {
	loc, ok := r.byID[id]
	if !ok {
		return false
	}
	return r.shards[loc.shard].manager.Submit(loc.slot, f)
}

// Backlog returns stream id's queued frame count (0 for unknown streams).
func (r *Router) Backlog(id StreamID) int {
	loc, ok := r.byID[id]
	if !ok {
		return 0
	}
	return r.shards[loc.shard].manager.Backlog(loc.slot)
}

// ShardResult reports one shard's pipeline run.
type ShardResult struct {
	Shard      int
	Streams    int
	Frames     uint64   // including frames adopted from dead siblings
	PerSlot    []uint64 // frames delivered per local slot
	Decisions  uint64
	IdleCycles uint64
	// VirtualNs is the shard's modeled time: host cost for every frame
	// plus the transfers (and injected fault time) metered on its own bus
	// plus its restart backoffs.
	VirtualNs  float64
	TransferNs float64
	Counters   regblock.Counters
	QM         qm.StreamStats
	// Bandwidth is the shard's aggregate MB/s series over modeled time.
	Bandwidth []stats.Point
}

// Result is the aggregated view of a sharded run: its frame ledger, its
// modeled and wall-clock throughput, and what recovery it took.
type Result struct {
	Shards  int
	Streams int
	// Target is the frame count the run had to account for
	// (streams × framesPerStream); conservation demands
	// Frames + Dropped == Target.
	Target uint64
	Frames uint64
	// Dropped counts frames definitively lost with accounting under the
	// overload policy (shed or evicted); zero under Backpressure.
	Dropped  uint64
	PerShard []ShardResult
	// Counters merges every shard's hardware performance counters.
	Counters regblock.Counters
	// Bandwidth sums the per-shard series window by window.
	Bandwidth []stats.Point
	// VirtualNs is the modeled completion time: the maximum over shards
	// (they run in parallel; the slowest finishes last) of host cost,
	// metered transfers, injected fault time and restart backoffs.
	VirtualNs float64
	// PacketsPerS is the aggregate modeled throughput, Frames over
	// VirtualNs — comparable to the §5.2 single-pipeline operating
	// points.
	PacketsPerS float64
	// WallNs and WallPacketsPerS measure the simulation itself: real
	// elapsed time and frames over it. This is the number that scales
	// with host cores.
	WallNs          float64
	WallPacketsPerS float64

	// Restarts is the total pipeline restarts across all shards.
	Restarts int
	// DeadShards lists shards declared dead after exhausting restarts.
	DeadShards []int
	// ReaggregatedSlots counts dead-shard stream-slots whose flows were
	// re-homed as streamlets onto survivors.
	ReaggregatedSlots int
	// RebindEpochs sums the survivors' scheduler rebind epochs.
	RebindEpochs uint64
	// Rounds is how many supervision rounds the run took (1 = no crash).
	Rounds int
}

// MergeCounters sums hardware performance counters across shards into one
// endsystem-wide view.
func MergeCounters(cs ...regblock.Counters) regblock.Counters {
	var t regblock.Counters
	for _, c := range cs {
		t.Wins += c.Wins
		t.Services += c.Services
		t.Met += c.Met
		t.Missed += c.Missed
		t.Drops += c.Drops
		t.Violations += c.Violations
	}
	return t
}

// Run pushes framesPerStream frames through every admitted stream: it is
// RunSupervised with no fault schedule, default recovery and no trace — one
// round in which each shard runs the full Figure 3 pipeline (pipeline.go)
// on its own pinned thread with a bandwidth meter attached, then the
// per-shard results are merged. Run may be called once per Router.
func (r *Router) Run(framesPerStream int) (*Result, error) {
	return r.RunSupervised(framesPerStream, nil, RecoveryConfig{}, nil)
}
