package main

import (
	"fmt"
	"time"
)

// A budget explains a workload's untraced wall time as a sum over layers of
// (kernel time per operation) × (operations the untraced run performed,
// read off its result structs), and prints what is left over. It is
// critical-path accounting applied to our own loop: the layers either add up
// to the whole or the remainder says how much of the whole no kernel owns.

type term struct {
	Layer string
	Ns    float64
}

// internal kernel outputs the budget needs but the per-layer table does not
// list (they are derivable from rows it does list).
const (
	keyStepP50   = "_ctlplane.step_p50_us"
	keySinkUs    = "_ctlplane.file_sink_us_per_epoch"
	keyScanLine  = "_ctlplane.checkpoint_scan_ns_per_line"
	keyBootS     = "_ssserved.boot_s"
	keyBuildSlot = "_endsystem.router_build_ns_per_slot"
)

// servedEpochUs is the served workloads' ticker period (-epoch-ms 1).
const servedEpochUs = 1000

// budgetTerms lists workload's layer terms in nanoseconds of busy time.
func budgetTerms(workload string, c map[string]float64, k map[string]summary) []term {
	v := func(name string) float64 { return k[name].Value }
	switch workload {
	case "batch-host", "batch-fabric":
		slots := float64(batchSlots[workload])
		decision := fmt.Sprintf("core.wr_decision_ns.n%.0f", slots)
		return []term{
			{"core+shuffle+decision+regblock", c["decisions"] * v(decision)},
			{"qm offer", c["frames"] * v("qm.offer_ns")},
			{"qm dequeue", c["frames"] * v("qm.dequeue_ns")},
			{"ringbuf tx ring", c["frames"] * v("ringbuf.pushpop_ns")},
			{"pci batch meter", c["frames"] / 32 * v("pci.batch_meter_ns")},
			{"stats meter", c["decisions"] / 256 * v("stats.meter_record_ns")},
			{"endsystem router build", c["calls"] * slots * v(keyBuildSlot)},
		}
	case "block-ba":
		return []term{
			{"shuffle", c["decisions"] * v("shuffle.ba_pass_ns.n32")},
			{"regblock", c["frames"] * v("regblock.update_ns")},
		}
	case "aggregate":
		return []term{
			{"core+shuffle+decision+regblock", c["frames"] * v("core.wr_decision_ns.n4")},
			{"streamlet advance (4 slots)", c["frames"] * 4 * v("streamlet.advance_ns")},
			{"streamlet head", c["frames"] * v("streamlet.head_ns")},
			{"txengine+link+stats", c["frames"] * v("txengine.transmit_ns")},
		}
	case "live-churn":
		return []term{
			{"shard step", c["shard_epochs"] * 128 * v("shard.step_ns_per_cycle")},
			{"qm offer", c["offered"] * v("qm.offer_shared_ns")},
			{"ctlplane fence", c["requests"] * v("ctlplane.fence_ns_per_request")},
			{"journal file sink", c["steps"] * v(keySinkUs) * 1e3},
		}
	case "served-churn":
		return []term{
			{"epoch ticker", c["requests"] * servedEpochUs * 1e3},
			{"fsync at the fence", c["requests"] * v("ssserved.sync_fence_cost_us") * 1e3},
			{"ctlplane step", c["requests"] * v(keyStepP50) * 1e3},
			{"http round trip", c["requests"] * v("ssserved.ledger_get_us") * 1e3},
		}
	case "served-recover":
		return []term{
			{"ctlplane replay", c["lines"] * v("ctlplane.replay_ns_per_line")},
			{"checkpoint scan", c["lines"] * v(keyScanLine)},
			{"process boot", c["calls"] * v(keyBootS) * 1e9},
		}
	}
	return nil
}

// explain folds the terms against the measured wall time and renders the
// budget table, remainder last.
func explain(workload string, terms []term, wall time.Duration) (explained float64, lines []string) {
	wallNs := float64(wall.Nanoseconds())
	var total float64
	for _, t := range terms {
		total += t.Ns
		lines = append(lines, fmt.Sprintf("budget %-14s %-32s %10.3f ms %6.1f%%", workload, t.Layer, t.Ns/1e6, 100*t.Ns/wallNs))
	}
	lines = append(lines, fmt.Sprintf("budget %-14s %-32s %10.3f ms %6.1f%%", workload, "remainder (no kernel owns it)", (wallNs-total)/1e6, 100*(wallNs-total)/wallNs))
	lines = append(lines, fmt.Sprintf("budget %-14s %-32s %10.3f ms", workload, "untraced wall", wallNs/1e6))
	return total / wallNs, lines
}
