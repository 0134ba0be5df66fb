package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sizes fixes how much work one op of each workload does. The reference
// sizes keep every op long enough (≥ 0.1 s, or thousands of samples for the
// microsecond ops) that timer and scheduling noise stay under a percent;
// toy sizes let the tests run every workload in well under a second.
type sizes struct {
	hostFrames    int    // batch-host frames per stream (4 streams)
	fabricFrames  int    // batch-fabric frames per stream (256 streams)
	baDecisions   int    // block-ba decisions per op (×32 frames)
	aggFrames     uint64 // aggregate frames per slot (4 slots)
	aggStreamlets int    // streamlets per slot
	liveSteps     int    // live-churn timed steps per trial
	livePrefill   int    // streams admitted before the first timed step
	liveRequests  int    // control requests per epoch
	servedClients int    // closed-loop admin clients
	recoverEpochs int    // epochs in the journal served-recover replays
	ackRequests   int    // requests per client in the ssserved kernels
	minOps        int    // ops a run takes at least, whatever -seconds says
	kernelOps     int    // iterations of one kernel timing chunk
	kernelSteps   int    // epochs the ctlplane kernels step
}

func referenceSizes() sizes {
	return sizes{
		hostFrames:    1_500_000,
		fabricFrames:  1000,
		baDecisions:   150_000,
		aggFrames:     100_000,
		aggStreamlets: 100,
		liveSteps:     8000,
		livePrefill:   48,
		liveRequests:  8,
		servedClients: min(runtime.NumCPU(), 2),
		recoverEpochs: 1000,
		ackRequests:   500,
		minOps:        3,
		kernelOps:     1 << 14,
		kernelSteps:   2000,
	}
}

func toySizes() sizes {
	return sizes{
		hostFrames:    2000,
		fabricFrames:  8,
		baDecisions:   512,
		aggFrames:     2000,
		aggStreamlets: 20,
		liveSteps:     96,
		livePrefill:   48,
		liveRequests:  8,
		servedClients: 2,
		recoverEpochs: 64,
		ackRequests:   20,
		minOps:        2,
		kernelOps:     256,
		kernelSteps:   24,
	}
}

// env is one pass of one workload inside a child process: what to run, for
// how long, and everything the pass measured.
type env struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	probe   bool      // stop as soon as set-up is complete
	t0      time.Time // the parent's clock just before it exec'd this child
	dir     string    // scratch directory (inside the checkout)
	served  string    // path of the built ssserved binary
	sz      sizes
	tr      *tracer // nil on untraced passes

	setupS   float64
	isReady  bool
	deadline time.Time

	ops      []float64 // seconds per op
	opFrames []uint64  // frames each op delivered (0 when counted per trial)
	frames   uint64    // frames delivered inside the timed ops
	// frameWall is the wall time frames were delivered over when that is
	// not the sum of the ops (the served workloads, whose ops overlap).
	frameWall time.Duration

	attempted, failed uint64
	failures          []string
	counts            map[string]float64 // exact operation counts, for the budget
	exact             map[string]string  // values two runs of one commit must share
	rssMB             float64            // VmHWM of the process under test, when it is not this one
}

func newEnv(spec *workloadSpec, seed int64, seconds float64, sz sizes) *env {
	return &env{
		spec: spec, seed: seed, seconds: seconds, sz: sz, t0: time.Now(),
		counts: map[string]float64{}, exact: map[string]string{},
	}
}

// ready marks the end of set-up — the instant before the first timed
// operation — and reports whether this child was only asked to set up.
func (e *env) ready() bool {
	if !e.isReady {
		e.isReady = true
		e.setupS = time.Since(e.t0).Seconds()
		e.deadline = time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	}
	return e.probe
}

// more reports whether the timed section should take another op.
func (e *env) more() bool {
	return len(e.ops) < e.sz.minOps || time.Now().Before(e.deadline)
}

// op records one timed operation that delivered frames.
func (e *env) op(d time.Duration, frames uint64) {
	e.ops = append(e.ops, d.Seconds())
	e.opFrames = append(e.opFrames, frames)
	e.frames += frames
}

// check counts one correctness check.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.fail(1, format, args...)
	}
}

// expect counts n promised operations of which got happened.
func (e *env) expect(what string, got, want uint64) {
	e.attempted += want
	if got != want {
		missing := want - got
		if got > want {
			missing = got - want
		}
		e.fail(missing, "%s: got %d, want %d", what, got, want)
	}
}

func (e *env) fail(n uint64, format string, args ...any) {
	e.failed += n
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// workloadReport is one workload's outcome: what a child prints as one JSON
// line on standard output, and what a full report holds per workload.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Exact     map[string]string  `json:"exact,omitempty"`
	Budget    []string           `json:"budget,omitempty"`
}

// result folds an untraced pass into the end-to-end metrics.
func (e *env) result() workloadReport {
	res := workloadReport{
		Workload:  e.spec.Name,
		Attempted: e.attempted,
		Failed:    e.failed,
		Failures:  e.failures,
		Metrics:   map[string]summary{"setup_s": point(e.setupS)},
		Exact:     e.exact,
	}
	if e.probe || len(e.ops) == 0 {
		return res
	}
	res.Metrics["op_p50_us"] = summarizeOps(scale(e.ops, 1e6))
	wall := sum(e.ops)
	if e.frameWall > 0 {
		wall = e.frameWall.Seconds()
	}
	// Where every op delivers frames the rate is the median op's, like the
	// latency beside it; where frames are counted per trial or by the daemon
	// it is frames over wall for the whole timed section.
	var rates []float64
	for i, f := range e.opFrames {
		if f > 0 {
			rates = append(rates, float64(f)/e.ops[i])
		}
	}
	fps := point(float64(e.frames) / wall)
	if len(rates) == len(e.ops) {
		fps = summarize(rates)
	}
	res.Metrics["frames_per_s"] = fps
	rss := e.rssMB
	if rss == 0 {
		rss = vmHWM(os.Getpid())
	}
	res.Metrics["peak_rss_mb"] = point(rss)
	return res
}

// vmHWM reads a process's peak resident set size in MB from /proc (0 when it
// cannot be read — the process is gone, or this is not Linux).
func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// childMain runs one workload pass (or, traced, the two passes and the layer
// kernels) and prints the result as one JSON line.
func childMain(a args) error {
	spec := findWorkload(a.workload)
	if spec == nil {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	sz := referenceSizes()
	if a.toy {
		sz = toySizes()
	}
	if a.trace {
		// A traced run splits its time over four passes and the kernels.
		sz.liveSteps /= 4
		sz.minOps = 2
	}
	mk := func(seconds float64) *env {
		e := newEnv(spec, a.seed, seconds, sz)
		e.t0, e.dir, e.served, e.probe = time.Unix(0, a.t0), a.dir, a.served, a.probe
		return e
	}
	var res workloadReport
	if a.trace {
		var err error
		if res, err = tracedRun(mk, a.seconds, a.spans); err != nil {
			return err
		}
	} else {
		e := mk(a.seconds)
		if err := spec.run(e); err != nil {
			return err
		}
		res = e.result()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
