package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// absoluteFloor widens a relative bound for metrics whose values are small
// enough that a relative bound alone would flag rounding: a change smaller
// than the floor, in the metric's own unit, is within bounds whatever its
// share of the median.
var absoluteFloor = map[string]float64{
	"setup_s":       0.25,
	"allocs_per_op": 0.25,
}

type verdict string

const (
	within     verdict = "within"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// judge classifies metric d's move from a to b. The move is within bounds
// when it is smaller than the bound (or the absolute floor). Outside the
// bound it is a verdict only if the two runs' segment bands (p10..p90) do not
// overlap; when they do, the run-to-run noise is as large as the difference
// and the pair is unresolved, not unchanged.
func judge(d metricDef, a, b band) (verdict, float64) {
	if a.Median == 0 {
		return unresolved, 0
	}
	delta := (b.Median - a.Median) / a.Median
	worsening := delta
	if d.Better == higher {
		worsening = -delta
	}
	abs := b.Median - a.Median
	if abs < 0 {
		abs = -abs
	}
	if (worsening <= d.Bound && worsening >= -d.Bound) || abs <= absoluteFloor[d.Name] {
		return within, delta
	}
	if a.P10 <= b.P90 && b.P10 <= a.P90 {
		return unresolved, delta
	}
	if worsening > 0 {
		return worse, delta
	}
	return better, delta
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, this program reads %d", path, r.Schema, schemaVersion)
	}
	return &r, nil
}

func (r *report) endToEnd(workload string) map[string]band {
	for _, res := range r.Results {
		if res.Workload == workload && !res.Traced {
			return res.EndToEnd
		}
	}
	return nil
}

// compareReports prints, for every (end-to-end metric, workload) pair both
// reports hold, A, B, the change, the bound BENCHMARK.json declares and the
// verdict. It reports whether any pair is worse.
func compareReports(w io.Writer, pathA, pathB, specPath string) (anyWorse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "WARNING: reports differ in machine or run length (%q/%d/%.0fs vs %q/%d/%.0fs)\n",
			a.Env.CPUModel, a.Env.NProc, a.Seconds, b.Env.CPUModel, b.Env.NProc, b.Seconds)
	}
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	counts := map[verdict]int{}
	for _, wl := range spec.Workloads {
		ea, eb := a.endToEnd(wl.Name), b.endToEnd(wl.Name)
		if ea == nil || eb == nil {
			continue
		}
		for _, d := range spec.EndToEnd {
			ba, okA := ea[d.Name]
			bb, okB := eb[d.Name]
			if !okA || !okB {
				continue
			}
			v, delta := judge(d, ba, bb)
			counts[v]++
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ba.Median, bb.Median, 100*delta, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d within, %d better, %d unresolved, %d worse\n",
		counts[within], counts[better], counts[unresolved], counts[worse])
	return counts[worse] > 0, nil
}
