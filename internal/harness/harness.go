// Package harness reproduces the paper's performance study (§4) and drills
// the runtime built on it. Each of E1–E7 regenerates one reported result:
// it exercises the real mechanism (DFM dispatch, TCP round trips,
// descriptor evolution) and, where the paper's numbers depend on 1999
// hardware (multi-second downloads, stale-binding discovery, process
// spawn), computes modeled Centurion time from the calibrated cost model.
// E8–E15 are crash, failover, overload, transport and observability
// drills; E8, E11, E13 and E14 stand their clusters up with testbed.
//
// Every experiment returns a Report whose Checks encode the paper's *shape*
// criteria — who wins, by roughly what factor, what is independent of what —
// so the reproduction is pass/fail rather than eyeballed.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"godcdo/internal/metrics"
)

// Check is one shape criterion derived from the paper.
type Check struct {
	// Name states the criterion.
	Name string
	// Pass reports whether the measured data satisfies it.
	Pass bool
	// Detail carries the measured values behind the verdict.
	Detail string
}

// Report is one experiment's output.
type Report struct {
	// ID is the experiment identifier (E1–E15).
	ID string
	// Title restates what the paper reports.
	Title string
	// Table carries the regenerated rows.
	Table *metrics.Table
	// Extras carry supplementary tables — per-stage latency breakdowns from
	// the observability layer.
	Extras []*metrics.Table
	// Notes explain methodology (real vs modeled columns, workloads).
	Notes []string
	// Checks are the shape criteria.
	Checks []Check
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the report for the bench CLI and EXPERIMENTS.md.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, extra := range r.Extras {
		b.WriteByte('\n')
		b.WriteString(extra.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s (%s)\n", verdict, c.Name, c.Detail)
	}
	return b.String()
}

// check builds a Check from a condition and a formatted detail string.
func check(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// RunAll runs every experiment in order.
func RunAll() ([]*Report, error) {
	runners := []struct {
		name string
		run  func() (*Report, error)
	}{
		{"E1", RunE1},
		{"E2", RunE2},
		{"E3", RunE3},
		{"E4", RunE4},
		{"E5", RunE5},
		{"E6", RunE6},
		{"E7", RunE7},
		{"E8", RunE8},
		{"E9", RunE9},
		{"E10", RunE10},
		{"E11", RunE11},
		{"E12", RunE12},
		{"E13", RunE13},
		{"E14", RunE14},
		{"E15", RunE15},
	}
	reports := make([]*Report, 0, len(runners))
	for _, r := range runners {
		rep, err := r.run()
		if err != nil {
			return reports, fmt.Errorf("%s: %w", r.name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// stageBreakdown renders the canonical pipeline-stage histograms from a
// metrics registry as a count/p50/p99 table. Per-function "dfm.*"
// histograms are elided — the stage view is about where pipeline time goes,
// not individual functions.
func stageBreakdown(reg *metrics.Registry) *metrics.Table {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "dfm.") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	table := metrics.NewTable("per-stage latency breakdown (log-scale histograms)",
		"stage", "count", "p50", "p99")
	for _, name := range names {
		h := snap.Histograms[name]
		table.AddRow(name, h.Count,
			metrics.FormatDuration(time.Duration(h.P50Ns)),
			metrics.FormatDuration(time.Duration(h.P99Ns)))
	}
	return table
}

// timeOp measures the mean wall time of fn over iters iterations.
func timeOp(iters int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}
