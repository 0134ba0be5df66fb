package main

// The spine's vocabulary: every workload and every metric the harness can
// emit, in the order they are printed. BENCHMARK.json at the repository root
// restates these tables for the driver; TestBenchmarkJSONMatchesSpec keeps the
// two identical, so a name exists in exactly one spelling.

// Seeds. Every generator in the harness derives from -seed; the held-out seed
// is never used while a change is being written and is the one a claimed gain
// must also hold on (see the README).
const (
	defaultSeed int64 = 1
	heldOutSeed int64 = 20030422
)

// runSeconds is BENCHMARK.json's run_seconds: how long one driver run
// measures. The full run (no -workload) uses the same length per workload.
const runSeconds = 10

// setupProbes is how many extra set-up-only children a run spawns so that
// setup_s is a median of setupProbes+1 independent process starts.
const setupProbes = 10

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the driver's contract), so each is defined per workload in
// the workload table below: "op" is the call a caller of that workload waits
// for.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is the traced run's output: one kernel (or one ratio read off a
// kernel's result structs) per row, named <module>.<what>. They carry no
// bound; they say where an end-to-end change came from.
var perLayer = []metricSpec{
	// attr, decision
	{"attr.key_ns", "ns", "lower", 0},
	{"decision.rank_ns", "ns", "lower", 0},
	{"decision.compare_ns", "ns", "lower", 0},
	{"decision.fastpath_hit_ratio", "ratio", "higher", 0},
	// shuffle
	{"shuffle.wr_pass_ns.n256", "ns", "lower", 0},
	{"shuffle.ba_pass_ns.n32", "ns", "lower", 0},
	{"shuffle.compares_per_decision", "count", "lower", 0},
	// regblock
	{"regblock.update_ns", "ns", "lower", 0},
	// core
	{"core.wr_decision_ns.n4", "ns", "lower", 0},
	{"core.wr_decision_ns.n256", "ns", "lower", 0},
	{"core.ba_decision_ns.n32", "ns", "lower", 0},
	{"core.allocs_per_cycle", "count", "lower", 0},
	{"core.idle_cycle_ratio", "ratio", "lower", 0},
	// ringbuf
	{"ringbuf.pushpop_ns", "ns", "lower", 0},
	{"ringbuf.handoff_ns", "ns", "lower", 0},
	// qm
	{"qm.offer_ns", "ns", "lower", 0},
	{"qm.offer_shared_ns", "ns", "lower", 0},
	{"qm.dequeue_ns", "ns", "lower", 0},
	{"qm.refused_ratio", "ratio", "lower", 0},
	{"qm.dropped_ratio", "ratio", "lower", 0},
	{"qm.pool_borrow_ratio", "ratio", "higher", 0},
	// pci
	{"pci.batch_meter_ns", "ns", "lower", 0},
	{"pci.modeled_pps_error", "1/s", "lower", 0},
	// txengine, streamlet, stats
	{"txengine.transmit_ns", "ns", "lower", 0},
	{"streamlet.advance_ns", "ns", "lower", 0},
	{"streamlet.head_ns", "ns", "lower", 0},
	{"streamlet.fairness", "ratio", "higher", 0},
	{"stats.meter_record_ns", "ns", "lower", 0},
	// shard
	{"shard.step_ns_per_cycle", "ns", "lower", 0},
	{"shard.admit_live_ns", "ns", "lower", 0},
	{"shard.evict_live_ns", "ns", "lower", 0},
	{"shard.threaded_frames_per_s", "1/s", "higher", 0},
	{"shard.scaled_frames_per_s", "1/s", "higher", 0},
	{"shard.parallel_efficiency", "ratio", "higher", 0},
	{"shard.imbalance", "ratio", "lower", 0},
	// endsystem
	{"endsystem.router_build_s", "s", "lower", 0},
	// ctlplane
	{"ctlplane.step_p99_us", "us", "lower", 0},
	{"ctlplane.idle_step_us", "us", "lower", 0},
	{"ctlplane.requests_per_s", "1/s", "higher", 0},
	{"ctlplane.fence_ns_per_request", "ns", "lower", 0},
	{"ctlplane.journal_bytes_per_epoch", "B", "lower", 0},
	{"ctlplane.file_sink_overhead_ratio", "ratio", "lower", 0},
	{"ctlplane.checkpoint_us", "us", "lower", 0},
	{"ctlplane.alloc_bytes_per_epoch", "B", "lower", 0},
	{"ctlplane.recovery_s", "s", "lower", 0},
	{"ctlplane.replay_ns_per_line", "ns", "lower", 0},
	{"ctlplane.replay_vs_live_ratio", "ratio", "lower", 0},
	{"ctlplane.latest_checkpoint_s", "s", "lower", 0},
	// obs
	{"obs.histogram_observe_ns", "ns", "lower", 0},
	{"obs.snapshot_us", "us", "lower", 0},
	{"obs.instrumented_overhead_ratio", "ratio", "lower", 0},
	// cmd/ssserved
	{"ssserved.ack_p99_us", "us", "lower", 0},
	{"ssserved.requests_per_s", "1/s", "higher", 0},
	{"ssserved.sync_fence_cost_us", "us", "lower", 0},
	{"ssserved.ledger_get_us", "us", "lower", 0},
	{"ssserved.metrics_scrape_us", "us", "lower", 0},
	// the traced workload itself
	{"workload.op_p99_us", "us", "lower", 0},
	{"workload.op_samples", "count", "higher", 0},
	{"budget.explained_ratio", "ratio", "higher", 0},
	{"budget.remainder_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

type workloadSpec struct {
	Name string
	// Why is BENCHMARK.json's one-line reason (at most 200 characters).
	Why string
	// Op says what op_p50_us times on this workload.
	Op  string
	run func(*env) error
}

var workloads = []workloadSpec{
	{
		Name: "batch-host",
		Why:  "Paper's 4-slot prototype through the RTC shard loop with PIO metering: a decision is under half of a frame's cost, so ringbuf/qm/pci/shard loop overhead dominates.",
		Op:   "one endsystem.RunShardedOpts(1, 4, frames, PIO, RTC) call",
		run:  runBatchHost,
	},
	{
		Name: "batch-fabric",
		Why:  "Same driver at 256 slots: shuffle+decision+regblock+core are most of a frame's cost, so kernel work shows here and host-path work predicts no change.",
		Op:   "one endsystem.RunShardedOpts(1, 256, frames, PIO, RTC) call",
		run:  runBatchFabric,
	},
	{
		Name: "block-ba",
		Why:  "The headline path: N=32 block decisions (BA, max-first) on Table 3's EDF set retire 32 frames per cycle; the only BA measurement, as shard hard-codes winner-only.",
		Op:   "one RunCycles batch of block decisions",
		run:  runBlockBA,
	},
	{
		Name: "aggregate",
		Why:  "The second claim: Fig 10's 100 streamlets per slot through streamlet+txengine+link+stats, which no other workload touches.",
		Op:   "one experiments.Fig10 run",
		run:  runAggregate,
	},
	{
		Name: "live-churn",
		Why:  "The service defaults (4x16, shared pool, DropOldest) stepped back to back under 8 seeded control requests per epoch, journal on a real file: the floor under any ack.",
		Op:   "one ctlplane.Engine.Step (fence to ledger)",
		run:  runLiveChurn,
	},
	{
		Name: "served-churn",
		Why:  "The built ssserved over loopback at -epoch-ms 1 -sync fence, closed loop of keep-alive admin clients: the only place HTTP, the ticker and fsync are measured.",
		Op:   "HTTP POST sent to fence response received",
		run:  runServedChurn,
	},
	{
		Name: "served-recover",
		Why:  "kill -9 recovery: ssserved -recover on a seeded torn journal, exec to first 200, then SIGTERM must exit 0 with closed books; recovery time is bounded by replay.",
		Op:   "ssserved -recover exec to first 200 on /admin/ledger",
		run:  runServedRecover,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
