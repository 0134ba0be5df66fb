package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the ssspine binary: a child the
// runner spawns is this same executable, told by the environment to act as
// one.
func TestMain(m *testing.M) {
	if os.Getenv("SSSPINE_TEST_CHILD") == "1" {
		a, err := parseArgs(os.Args[1:])
		if err == nil {
			err = childMain(a)
		}
		if err != nil {
			os.Stderr.WriteString("ssspine test child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	code := m.Run()
	if servedDir != "" {
		os.RemoveAll(servedDir)
	}
	os.Exit(code)
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) of each sample.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 3}, 2.5, 4, 5.5},
		{[]float64{2, 4, 6}, 2, 4, 6},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Value != c.q2 || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v", c.xs, s, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{5, 0, false}, {99, 0, false}, {100, 0.90, true}, {999, 0.90, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		if p, ok := tailLevel(c.n); p != c.p || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailP != 0.99 || s.Tail != 990 {
		t.Errorf("p99 of 1..1000 = p%v %v, want p0.99 990", s.TailP, s.Tail)
	}
	if got := percentileSorted(xs, 0.5); got != 500 {
		t.Errorf("nearest-rank p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSummarizeOpsUsesGroupMediansForNoise(t *testing.T) {
	// A bimodal step distribution whose median never moves: the op quartiles
	// must say "repeatable", not "wide".
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 100
		if i%2 == 1 {
			xs[i] = 300
		}
	}
	s := summarizeOps(xs)
	if s.Value != 200 || s.Q1 != s.Q3 {
		t.Errorf("summarizeOps = %+v, want median 200 and zero-width quartiles", s)
	}
	if raw := summarize(xs); raw.Q1 == raw.Q3 {
		t.Errorf("plain quartiles of the same sample should be wide, got %+v", raw)
	}
	few := summarizeOps([]float64{1, 2, 3})
	if few != summarize([]float64{1, 2, 3}) {
		t.Errorf("few ops are their own quartiles, got %+v", few)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	wide := func(v float64) summary { return summary{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 10} }
	cases := []struct {
		m    metricSpec
		a, b summary
		want verdict
	}{
		{lower, tight(100), tight(105), same},
		{lower, tight(100), tight(111), worse},
		{lower, tight(100), tight(85), better},
		{higher, tight(100), tight(89), worse},
		{higher, tight(100), tight(120), better},
		{lower, wide(100), tight(130), unresolved},
		{lower, wide(100), wide(101), unresolved},
		{lower, wide(100), tight(50), better}, // every quartile of B beats A's
		{lower, summary{}, summary{}, same},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(fps float64, hash string) fullReport {
		return fullReport{Seed: 1, Workloads: map[string]workloadReport{
			"live-churn": {
				Metrics: map[string]summary{"frames_per_s": point(fps), "op_p50_us": point(150), "setup_s": point(0.02), "peak_rss_mb": point(14)},
				Exact:   map[string]string{"journal_hash": hash},
			},
		}}
	}
	var lines []string
	emit := func(l string) { lines = append(lines, l) }
	if bad := compareReports(mk(1000, "aa"), mk(1000, "aa"), emit); bad != 0 {
		t.Errorf("A/A comparison found %d problems:\n%s", bad, strings.Join(lines, "\n"))
	}
	if len(lines) != len(endToEnd) {
		t.Errorf("A/A comparison printed %d rows, want one per end-to-end metric (%d)", len(lines), len(endToEnd))
	}
	if bad := compareReports(mk(1000, "aa"), mk(700, "bb"), emit); bad != 2 {
		t.Errorf("a 30%% slower run with another journal: %d problems, want 2 (worse, exact)", bad)
	}
}

func TestChurnIsSeeded(t *testing.T) {
	draw := func(seed int64) []string {
		c := newChurn(seed, liveShards, 48)
		var out []string
		for i := 0; i < 200; i++ {
			b, _ := json.Marshal(c.request())
			out = append(out, string(b))
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("the same seed drew different requests")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds drew the same requests")
	}
	a, b := newAdminClient(3, 0), newAdminClient(3, 0)
	for i := 0; i < 200; i++ {
		r1, q1, w1 := a.draw()
		r2, q2, w2 := b.draw()
		if r1 != r2 || q1 != q2 || w1 != w2 {
			t.Fatalf("admin client draw %d differs for one seed", i)
		}
		if len(a.live) > maxLive {
			t.Fatalf("admin client holds %d streams, cap %d", len(a.live), maxLive)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "outer", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "inner", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "inner", Start: 50, End: 60},
	}
	self := selfTimes(spans)
	if self["outer"] != 60 || self["inner"] != 40 {
		t.Errorf("self times %v, want outer 60 inner 40", self)
	}
	tr := newTracer("w", time.Now(), 0)
	o := tr.begin("outer")
	i := tr.begin("inner")
	tr.end(i)
	tr.end(o)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Errorf("nesting not recorded: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("free")) // a nil tracer is the untraced run
}

func TestBudgetCoversEveryWorkload(t *testing.T) {
	k := map[string]summary{}
	for _, m := range perLayer {
		k[m.Name] = point(1)
	}
	for _, w := range workloads {
		terms := budgetTerms(w.Name, map[string]float64{"frames": 1, "decisions": 1, "requests": 1, "steps": 1, "lines": 1, "calls": 1, "offered": 1, "shard_epochs": 1}, k)
		if len(terms) == 0 {
			t.Errorf("%s has no budget terms", w.Name)
		}
	}
	explained, lines := explain("w", []term{{"a", 300}, {"b", 500}}, time.Microsecond)
	if math.Abs(explained-0.8) > 1e-9 || len(lines) != 4 {
		t.Errorf("explain = %v with %d lines, want 0.8 and 4 (two terms, remainder, wall)", explained, len(lines))
	}
}

var (
	servedOnce sync.Once
	servedDir  string // removed by TestMain
	servedBin  string
	servedErr  error
)

// builtServed builds cmd/ssserved once for the tests that need the daemon,
// and skips them where that is not possible.
func builtServed(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("needs a build of cmd/ssserved")
	}
	servedOnce.Do(func() {
		if servedDir, servedErr = os.MkdirTemp("", "ssspine-test-"); servedErr != nil {
			return
		}
		servedBin = filepath.Join(servedDir, "ssserved")
		out, err := exec.Command("go", "build", "-o", servedBin, "repro/cmd/ssserved").CombinedOutput()
		if err != nil {
			servedErr = err
			t.Logf("go build: %s", out)
		}
	})
	if servedErr != nil {
		t.Skipf("cannot build cmd/ssserved here: %v", servedErr)
	}
	return servedBin
}

// toyEnv is an in-process pass at test sizes.
func toyEnv(t *testing.T, name string) *env {
	t.Helper()
	spec := findWorkload(name)
	if spec == nil {
		t.Fatalf("no workload %q", name)
	}
	e := newEnv(spec, defaultSeed, 0.05, toySizes())
	e.dir = t.TempDir()
	return e
}

func checkEndToEnd(t *testing.T, e *env) {
	t.Helper()
	res := e.result()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: attempted %d failed %d: %v", e.spec.Name, res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range endToEnd {
		if s, ok := res.Metrics[m.Name]; !ok || !(s.Value > 0) {
			t.Errorf("%s: %s = %+v, want a positive value", e.spec.Name, m.Name, s)
		}
	}
	if len(e.ops) < e.sz.minOps {
		t.Errorf("%s: %d ops, want at least %d", e.spec.Name, len(e.ops), e.sz.minOps)
	}
}

func TestInProcessWorkloadsAtToySize(t *testing.T) {
	for _, name := range []string{"batch-host", "batch-fabric", "block-ba", "aggregate", "live-churn"} {
		t.Run(name, func(t *testing.T) {
			e := toyEnv(t, name)
			if err := e.spec.run(e); err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, e)
			if left, _ := os.ReadDir(e.dir); len(left) != 0 {
				t.Errorf("%s left %d files in its scratch directory", name, len(left))
			}
		})
	}
}

func TestLiveChurnJournalRepeats(t *testing.T) {
	hash := func(seed int64) string {
		e := toyEnv(t, "live-churn")
		e.seed = seed
		if err := e.spec.run(e); err != nil {
			t.Fatal(err)
		}
		if e.failed != 0 {
			t.Fatalf("seed %d: %v", seed, e.failures)
		}
		return e.exact["journal_hash"] + "/" + e.exact["journal_lines"]
	}
	if a, b := hash(5), hash(5); a != b {
		t.Errorf("one seed, two journals: %s, %s", a, b)
	}
	if a, b := hash(5), hash(6); a == b {
		t.Errorf("two seeds, one journal: %s", a)
	}
}

func TestProbeStopsAfterSetup(t *testing.T) {
	e := toyEnv(t, "block-ba")
	e.probe = true
	if err := e.spec.run(e); err != nil {
		t.Fatal(err)
	}
	if len(e.ops) != 0 || !(e.setupS > 0) {
		t.Errorf("a probe ran %d ops, set-up %v s", len(e.ops), e.setupS)
	}
}

func TestServedWorkloadsAtToySize(t *testing.T) {
	bin := builtServed(t)
	for _, name := range []string{"served-churn", "served-recover"} {
		t.Run(name, func(t *testing.T) {
			e := toyEnv(t, name)
			e.served = bin
			if err := e.spec.run(e); err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, e)
		})
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	bin := builtServed(t)
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	mk := func(seconds float64) *env {
		e := newEnv(findWorkload("block-ba"), defaultSeed, seconds, toySizes())
		e.dir, e.served = dir, bin
		return e
	}
	res, err := tracedRun(mk, 0.2, spans)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run failed %d checks: %v", res.Failed, res.Failures)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run emitted %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("traced run emitted no %s", m.Name)
		}
	}
	if v := res.Metrics["pci.modeled_pps_error"].Value; v != 0 {
		t.Errorf("pci.modeled_pps_error = %v, want 0", v)
	}
	if v := res.Metrics["core.allocs_per_cycle"].Value; v != 0 {
		t.Errorf("core.allocs_per_cycle = %v, want 0", v)
	}
	var written []span
	b, err := os.ReadFile(spans)
	if err == nil {
		err = json.Unmarshal(b, &written)
	}
	if err != nil || len(written) == 0 || float64(len(written)) != res.Metrics["trace.spans"].Value {
		t.Errorf("span file holds %d spans (%v), trace.spans says %v", len(written), err, res.Metrics["trace.spans"].Value)
	}
	if len(res.Budget) == 0 || !strings.Contains(strings.Join(res.Budget, "\n"), "remainder") {
		t.Errorf("no budget table with a remainder: %v", res.Budget)
	}
}

// TestChildProtocol drives one workload the way the driver does — parent,
// probes, measuring child — with this test binary as the child.
func TestChildProtocol(t *testing.T) {
	t.Setenv("SSSPINE_TEST_CHILD", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The runner's scratch root is relative to the working directory.
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(back)
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	r := &runner{exe: exe, toy: true}
	rep, err := r.runWorkload(args{workload: "block-ba", seed: defaultSeed, seconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
	}
	if n := rep.Metrics["setup_s"].N; n != setupProbes+1 {
		t.Errorf("setup_s is a median of %d starts, want %d", n, setupProbes+1)
	}
	for _, m := range endToEnd {
		if !(rep.Metrics[m.Name].Value > 0) {
			t.Errorf("%s = %+v, want a positive value", m.Name, rep.Metrics[m.Name])
		}
	}
	if _, err := r.runWorkload(args{workload: "no-such-workload"}); err == nil {
		t.Error("an unknown workload was accepted")
	}
	if left, _ := os.ReadDir(scratchRoot); len(left) != 0 {
		t.Errorf("the run left %d entries under %s", len(left), scratchRoot)
	}
}

func TestParseArgs(t *testing.T) {
	a, err := parseArgs([]string{"--workload", "aggregate", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || a.workload != "aggregate" || a.seed != 9 || a.seconds != 3 || !a.trace {
		t.Errorf("driver arguments parsed as %+v, %v", a, err)
	}
	if a, err := parseArgs(nil); err != nil || a.seed != defaultSeed || a.seconds != runSeconds || a.trace {
		t.Errorf("defaults parsed as %+v, %v", a, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("%v was accepted", bad)
		}
	}
}
