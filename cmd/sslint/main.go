// Command sslint is the ShareStreams-Go static-analysis gate: a
// multichecker over the project-specific analyzers in internal/lint that
// machine-checks the scheduler's otherwise unwritten invariants.
//
// Usage:
//
//	go run ./cmd/sslint [packages]          # default ./...
//	go run ./cmd/sslint -list               # describe the analyzers
//	go run ./cmd/sslint -json out.json ./...# machine-readable findings
//	go run ./cmd/sslint -github ./...       # GitHub Actions annotations
//	go run ./cmd/sslint -stats ./...        # //sslint:allow suppression audit
//
// The suite (see DESIGN.md §10 "Static verification"):
//
//	retainalias   copy-on-retain contract for cycle-aliased result slices
//	walltime      no wall clock / global rand in modeled-time code
//	spsc          atomic, method-confined SPSC head/tail access, every
//	              store dominated by a load on all paths
//	exhaustdisc   exhaustive switches over discipline/configuration enums
//	allocproof    no allocation on any warm CFG path of the hot set,
//	              through same-package helpers
//	conserve      ring removals reach a ledger, pool borrows reach a reclaim
//	boundedloop   provably bounded trip counts for hot-set loops
//
// Findings are suppressed only by an explicit annotation with a reason —
// `//sslint:allow <analyzer> — <reason>` — and unused or malformed
// annotations are findings themselves. walltime is scoped away from
// repro/cmd/...: the benchmark harnesses there measure wall time by design.
// Test files are never analyzed (tests probe the contracts deliberately).
//
// The -json schema is versioned and stable: {"version": 1, "findings":
// [{"file", "line", "col", "analyzer", "message"}...], "count": N} with
// cwd-relative file paths sorted by (file, line, col). -github emits one
// `::error file=...,line=...,col=...` workflow command per finding so CI
// annotates pull requests in place. -stats prints per-analyzer
// //sslint:allow counts and fails (exit 1) on any allow whose reason clause
// is empty or malformed — suppression growth stays visible and argued.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/allocproof"
	"repro/internal/lint/analysis"
	"repro/internal/lint/boundedloop"
	"repro/internal/lint/conserve"
	"repro/internal/lint/exhaustdisc"
	"repro/internal/lint/retainalias"
	"repro/internal/lint/spsc"
	"repro/internal/lint/walltime"
)

// analyzers is the full suite, in report order.
var analyzers = []*analysis.Analyzer{
	retainalias.Analyzer,
	walltime.Analyzer,
	spsc.Analyzer,
	exhaustdisc.Analyzer,
	allocproof.Analyzer,
	conserve.Analyzer,
	boundedloop.Analyzer,
}

// skipFor lists analyzer names not applied to packages matching a path
// prefix.
var skipFor = map[string][]string{
	"walltime": {"repro/cmd/"}, // wall-clock benchmark harnesses live under cmd/
}

// finding is one diagnostic in the stable -json schema.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report is the -json document.
type report struct {
	Version  int       `json:"version"`
	Findings []finding `json:"findings"`
	Count    int       `json:"count"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.String("json", "", "write findings as JSON to this file ('-' for stdout)")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations for findings")
	stats := flag.Bool("stats", false, "audit //sslint:allow suppressions instead of reporting findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sslint [-list] [-json file] [-github] [-stats] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sslint: %v\n", err)
		os.Exit(2)
	}

	if *stats {
		os.Exit(runStats(pkgs))
	}

	cwd, _ := os.Getwd()
	all := []finding{} // non-nil so an empty run marshals as [], not null
	for _, pkg := range pkgs {
		run := applicable(pkg.Path)
		diags, err := analysis.Run(pkg, run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sslint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			all = append(all, finding{
				File:     relPath(cwd, p.Filename),
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})

	for _, f := range all {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=sslint %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, escapeWorkflow(f.Message))
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report{Version: 1, Findings: all, Count: len(all)}); err != nil {
			fmt.Fprintf(os.Stderr, "sslint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "sslint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// runStats audits //sslint:allow suppressions across the loaded packages:
// per-analyzer counts plus every annotation's site and reason. Malformed
// annotations (no analyzer, no dash, or an empty reason clause) fail the
// audit.
func runStats(pkgs []*analysis.Package) int {
	cwd, _ := os.Getwd()
	counts := map[string]int{}
	bad := 0
	type row struct{ analyzer, site, reason string }
	var rows []row
	for _, pkg := range pkgs {
		allows, problems := analysis.Allows(pkg)
		for _, a := range allows {
			counts[a.Analyzer]++
			rows = append(rows, row{
				analyzer: a.Analyzer,
				site:     fmt.Sprintf("%s:%d", relPath(cwd, a.File), a.Line),
				reason:   a.Reason,
			})
		}
		for _, p := range problems {
			pos := pkg.Fset.Position(p.Pos)
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", relPath(cwd, pos.Filename), pos.Line, pos.Column, p.Message)
			bad++
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].analyzer != rows[j].analyzer {
			return rows[i].analyzer < rows[j].analyzer
		}
		return rows[i].site < rows[j].site
	})
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		fmt.Printf("%-14s %d\n", n, counts[n])
		total += counts[n]
	}
	fmt.Printf("%-14s %d\n", "total", total)
	for _, r := range rows {
		fmt.Printf("  %-12s %s — %s\n", r.analyzer, r.site, r.reason)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "sslint: %d malformed suppression(s)\n", bad)
		return 1
	}
	return 0
}

// relPath strips the working directory prefix for stable, repo-relative
// output.
func relPath(cwd, name string) string {
	if cwd != "" && strings.HasPrefix(name, cwd+string(os.PathSeparator)) {
		return name[len(cwd)+1:]
	}
	return name
}

// writeJSON writes the report to path, or stdout for "-".
func writeJSON(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// escapeWorkflow escapes a message for a GitHub workflow-command value.
func escapeWorkflow(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// applicable returns the analyzers to run on the package at path.
func applicable(path string) []*analysis.Analyzer {
	var run []*analysis.Analyzer
	for _, a := range analyzers {
		skip := false
		for _, prefix := range skipFor[a.Name] {
			if strings.HasPrefix(path, prefix) {
				skip = true
			}
		}
		if !skip {
			run = append(run, a)
		}
	}
	sort.SliceStable(run, func(i, j int) bool { return run[i].Name < run[j].Name })
	return run
}
