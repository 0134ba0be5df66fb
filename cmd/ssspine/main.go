// Command ssspine is the measurement spine: one benchmark for the Figure 3
// pipeline, end to end and layer by layer. BENCHMARK.json at the repository
// root tells the driver how to run it; README.md in this directory says what
// each number means and which change should move which.
//
//	go run ./cmd/ssspine --workload batch-host --seed 1 --seconds 10 --trace 0
//	go run ./cmd/ssspine -seed 1 -out A.json          every workload
//	go run ./cmd/ssspine -trace 1 -out T.json         every workload, per-layer
//	go run ./cmd/ssspine -compare A.json B.json
//
// Each workload runs in fresh re-exec'd children of this binary, so set-up
// time and peak memory are per workload, and the last line of standard
// output is one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type args struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	spans    string
	compare  bool
	rest     []string

	// child-only
	child  bool
	probe  bool
	toy    bool
	t0     int64
	dir    string
	served string
}

func parseArgs(argv []string) (args, error) {
	var a args
	var trace string
	fs := flag.NewFlagSet("ssspine", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "run one workload (default: every workload)")
	fs.Int64Var(&a.seed, "seed", defaultSeed, "seed for every generator in the harness")
	fs.Float64Var(&a.seconds, "seconds", runSeconds, "how long each workload's timed section measures")
	fs.StringVar(&trace, "trace", "0", "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	fs.StringVar(&a.out, "out", "", "write the full report (medians, quartiles, counts) to this file")
	fs.StringVar(&a.spans, "spans", "", "with -trace 1: write the span file here (default .ssspine/spans-<workload>.json)")
	fs.BoolVar(&a.compare, "compare", false, "compare two -out reports: ssspine -compare A.json B.json")
	fs.BoolVar(&a.child, "child", false, "internal: run one workload pass in this process")
	fs.BoolVar(&a.probe, "probe", false, "internal: stop after set-up")
	fs.BoolVar(&a.toy, "toy", false, "internal: test sizes")
	fs.Int64Var(&a.t0, "t0", 0, "internal: the parent's clock at exec, Unix ns")
	fs.StringVar(&a.dir, "dir", "", "internal: scratch directory")
	fs.StringVar(&a.served, "served", "", "internal: built ssserved binary")
	if err := fs.Parse(argv); err != nil {
		return a, err
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		a.trace = true
	default:
		return a, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	if a.seconds <= 0 {
		return a, fmt.Errorf("-seconds %v: want > 0", a.seconds)
	}
	a.rest = fs.Args()
	return a, nil
}

func main() {
	a, err := parseArgs(os.Args[1:])
	if err == nil {
		switch {
		case a.child:
			err = childMain(a)
		case a.compare:
			err = compareMain(a.rest)
		default:
			err = parentMain(a)
		}
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "ssspine: %v\n", err)
		}
		os.Exit(1)
	}
}

// scratchRoot is the one directory the benchmark writes under (journals,
// the built daemon, span files); .gitignore names it.
const scratchRoot = ".ssspine"

// buildServed builds cmd/ssserved once per invocation, before any workload
// and outside every timed section. The binary is kept under scratchRoot so a
// later invocation only relinks when a source changed.
func buildServed() (string, error) {
	bin, err := filepath.Abs(filepath.Join(scratchRoot, "bin", "ssserved"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/ssserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/ssserved: %w", err)
	}
	return bin, nil
}

// runner spawns workload children.
type runner struct {
	exe    string
	served string
	toy    bool
}

func newRunner() (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	served, err := buildServed()
	if err != nil {
		return nil, err
	}
	return &runner{exe: exe, served: served}, nil
}

// spawn runs one child to completion and decodes the JSON object on the last
// line of its standard output.
func (r *runner) spawn(a args, dir string, probe bool) (workloadReport, error) {
	argv := []string{
		"-child", "-workload", a.workload,
		"-seed", strconv.FormatInt(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64),
		"-dir", dir, "-served", r.served,
	}
	if a.trace {
		argv = append(argv, "-trace", "1", "-spans", a.spans)
	}
	if probe {
		argv = append(argv, "-probe")
	}
	if r.toy {
		argv = append(argv, "-toy")
	}
	cmd := exec.Command(r.exe)
	cmd.Stderr = os.Stderr
	// The load generators and the engines under test share the box: cap the
	// Go scheduler at the cores the workloads are sized for.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", min(runtime.NumCPU(), 4)))
	cmd.Args = append([]string{r.exe}, append(argv, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	out, err := cmd.Output()
	var res workloadReport
	if err != nil {
		return res, fmt.Errorf("%s child: %w", a.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s child printed no result: %w", a.workload, err)
	}
	return res, nil
}

// runWorkload measures one workload: setupProbes set-up-only children and
// one measuring child untraced, or the single traced child.
func (r *runner) runWorkload(a args) (workloadReport, error) {
	var rep workloadReport
	if findWorkload(a.workload) == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return rep, fmt.Errorf("unknown workload %q (have %s)", a.workload, strings.Join(names, ", "))
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return rep, err
	}
	if a.trace && a.spans == "" {
		a.spans = filepath.Join(scratchRoot, "spans-"+a.workload+".json")
	}
	if a.spans != "" {
		if a.spans, err = filepath.Abs(a.spans); err != nil {
			return rep, err
		}
	}

	var setups []float64
	if !a.trace {
		for i := 0; i < setupProbes; i++ {
			res, err := r.spawn(a, dir, true)
			if err != nil {
				return rep, err
			}
			setups = append(setups, res.Metrics["setup_s"].Value)
		}
	}
	if rep, err = r.spawn(a, dir, false); err != nil {
		return rep, err
	}
	if !a.trace {
		rep.Metrics["setup_s"] = summarize(append(setups, rep.Metrics["setup_s"].Value))
	}
	return rep, nil
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricSet(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric by name with its unit, quartiles and
// sample count, then the budget table and any failed checks.
func printReport(name string, rep workloadReport, trace bool) {
	fmt.Printf("%-14s op: %s\n", name, findWorkload(name).Op)
	for _, m := range metricSet(trace) {
		s := rep.Metrics[m.Name]
		line := fmt.Sprintf("%-14s %-34s %14.6g %-5s q1 %.6g q3 %.6g n %d", name, m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.N)
		if s.TailP > 0 {
			line += fmt.Sprintf(" p%g %.6g", s.TailP*100, s.Tail)
		}
		fmt.Println(line)
	}
	for _, l := range rep.Budget {
		fmt.Println(l)
	}
	for _, f := range rep.Failures {
		fmt.Printf("%-14s FAILED CHECK: %s\n", name, f)
	}
	fmt.Printf("%-14s attempted %d failed %d\n", name, rep.Attempted, rep.Failed)
}

// fullReport is what -out writes and -compare reads.
type fullReport struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Trace     bool                      `json:"trace"`
	NumCPU    int                       `json:"num_cpu"`
	GoVersion string                    `json:"go_version"`
	Workloads map[string]workloadReport `json:"workloads"`
}

func parentMain(a args) error {
	r, err := newRunner()
	if err != nil {
		return err
	}
	todo := []string{a.workload}
	if a.workload == "" {
		todo = todo[:0]
		for _, w := range workloads {
			todo = append(todo, w.Name)
		}
	}
	full := fullReport{
		Seed: a.seed, Seconds: a.seconds, Trace: a.trace,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]workloadReport{},
	}
	line := driverLine{Correct: true, Metrics: map[string]driverValue{}}
	for _, name := range todo {
		wa := a
		wa.workload = name
		rep, err := r.runWorkload(wa)
		if err != nil {
			return err
		}
		printReport(name, rep, a.trace)
		full.Workloads[name] = rep
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		for _, m := range metricSet(a.trace) {
			line.Metrics[m.Name] = driverValue{Value: rep.Metrics[m.Name].Value, Unit: m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	if a.out != "" {
		b, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(a.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if a.workload != "" {
		// The driver's contract: one JSON object, last line of stdout, exit
		// 0 — the object's "correct" carries the verdict.
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed their checks", line.Failed, line.Attempted)
	}
	return nil
}
