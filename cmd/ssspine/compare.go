package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// verdict is -compare's judgement of one metric on one workload.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to two summaries of it. B is worse when its
// median is worse than A's by more than the bound; when either side's own
// spread (interquartile distance over median) is wider than the bound the
// pair cannot be told apart and is unresolved, unless B's whole
// interquartile range lies on the better side of A's.
func judge(m metricSpec, a, b summary) verdict {
	if a.Value == 0 {
		if b.Value == 0 {
			return same
		}
		return unresolved
	}
	change := (b.Value - a.Value) / a.Value // > 0: B reads higher
	if m.Better == "higher" {
		change = -change
	}
	// change > 0 now means B is worse.
	noisy := a.spread() > m.Bound || b.spread() > m.Bound
	switch {
	case change > m.Bound:
		if noisy {
			return unresolved
		}
		return worse
	case noisy:
		clear := b.Q3 < a.Q1
		if m.Better == "higher" {
			clear = b.Q1 > a.Q3
		}
		if clear {
			return better
		}
		return unresolved
	case change < -m.Bound:
		return better
	default:
		return same
	}
}

func readReport(path string) (fullReport, error) {
	var rep fullReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareMain prints worse / unresolved / better / same for every
// end-to-end metric × workload of two -out reports, and every exact count
// that differs. It fails when anything is worse or any exact count differs.
func compareMain(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two report files, got %d", len(paths))
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	bad := compareReports(a, b, func(line string) { fmt.Println(line) })
	if bad > 0 {
		return fmt.Errorf("%d regressions or exact-count mismatches", bad)
	}
	return nil
}

func compareReports(a, b fullReport, emit func(string)) (bad int) {
	if a.Seed != b.Seed {
		emit(fmt.Sprintf("note: seeds differ (%d, %d); exact counts are compared only between equal seeds", a.Seed, b.Seed))
	}
	for _, w := range workloads {
		ra, okA := a.Workloads[w.Name]
		rb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			if sa.N == 0 && sb.N == 0 {
				continue // a traced report carries no end-to-end rows
			}
			v := judge(m, sa, sb)
			if v == worse {
				bad++
			}
			emit(fmt.Sprintf("%-10s %-14s %-14s %14.6g -> %14.6g %-5s (%+.1f%%, bound %.0f%%, spreads %.1f%% %.1f%%)",
				v, w.Name, m.Name, sa.Value, sb.Value, m.Unit,
				100*(sb.Value-sa.Value)/sa.Value, 100*m.Bound, 100*sa.spread(), 100*sb.spread()))
		}
		if rb.Failed > ra.Failed {
			bad++
			emit(fmt.Sprintf("%-10s %-14s failed operations %d -> %d", worse, w.Name, ra.Failed, rb.Failed))
		}
		if a.Seed != b.Seed {
			continue
		}
		keys := make([]string, 0, len(ra.Exact))
		for k := range ra.Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if ra.Exact[k] != rb.Exact[k] {
				bad++
				emit(fmt.Sprintf("%-10s %-14s exact count %s: %s -> %s", "differs", w.Name, k, ra.Exact[k], rb.Exact[k]))
			}
		}
	}
	return bad
}
