// Command benchmark is the repository's one performance benchmark: six
// seeded closed-loop workloads over the headline paths, measured end to end
// with nothing instrumented, then traced from outside for a per-layer ledger.
// See README.md beside this file.
//
//	benchmark -workload rpc_seq -seed 7 -seconds 10 -trace 0   one workload, end to end
//	benchmark -workload rpc_seq -seed 7 -seconds 10 -trace 1   the same, per-layer ledger
//	benchmark -seed 7 -out A.json                              all six, both runs each
//	benchmark -compare A.json B.json                           judge B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// report is what -out writes and -compare reads.
type report struct {
	Schema   int       `json:"schema_version"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Segments int       `json:"segments"`
	Env      envInfo   `json:"env"`
	Results  []*result `json:"results"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all six, untraced then traced)")
		seed       = flag.Int64("seed", 1, "seed for payload bytes, target sequence and read/write sequence")
		seconds    = flag.Float64("seconds", 20, "measured seconds per run")
		trace      = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced per-layer run")
		out        = flag.String("out", "", "write the full report (JSON) to this file")
		compare    = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		spec       = flag.String("spec", "BENCHMARK.json", "with -compare: where the regression bounds are declared")
		journalDir = flag.String("journal-dir", filepath.Join(".bench_build", "journal"), "directory for evolve_under_load's journal")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare A.json B.json")
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1), *spec)
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() != 0 {
		fatal("usage: benchmark [-workload NAME] [-seed N] [-seconds S>=1] [-trace 0|1] [-out FILE]")
	}
	if err := os.MkdirAll(*journalDir, 0o755); err != nil {
		fatal("%v", err)
	}

	cfg := &config{
		seed:        *seed,
		seconds:     *seconds,
		segments:    segmentsFor(*seconds),
		warm:        2 * time.Second,
		setups:      5,
		journalDir:  *journalDir,
		replayScale: 1,
	}
	if half := time.Duration(*seconds / 2 * float64(time.Second)); half < cfg.warm {
		cfg.warm = half
	}
	rep := &report{Schema: schemaVersion, Seed: *seed, Seconds: *seconds, Segments: cfg.segments, Env: fingerprint(*journalDir)}
	fmt.Printf("benchmark schema %d  seed %d  %.0f s/run in %d segments\n", rep.Schema, rep.Seed, rep.Seconds, rep.Segments)
	fmt.Printf("cpu %q  nproc %d  GOMAXPROCS %d  %s  commit %s  load %.2f\n",
		rep.Env.CPUModel, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, rep.Env.LoadStart)
	fmt.Printf("journal in %s (%s)\n", rep.Env.JournalDir, rep.Env.JournalFS)
	if w := rep.Env.loadWarning(); w != "" {
		fmt.Println(w)
	}

	defs := workloads
	runs := []func(*workloadDef, *config) (*result, error){runUntraced, runTraced}
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fatal("unknown workload %q", *workload)
		}
		defs, runs = []workloadDef{*def}, runs[*trace:*trace+1]
	}
	correct := true
	for i := range defs {
		for _, run := range runs {
			res, err := run(&defs[i], cfg)
			if err != nil {
				fatal("%v", err)
			}
			rep.Results = append(rep.Results, res)
			printResult(res)
			correct = correct && res.Correct
		}
	}
	rep.Env.LoadEnd = loadAvg()
	fmt.Printf("load average at end %.2f\n", rep.Env.LoadEnd)
	if *out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatal("write report: %v", err)
		}
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is the one
		// run's result.
		fmt.Println(resultLine(rep.Results[0]))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func printResult(res *result) {
	mode := "end to end (untraced)"
	if res.Traced {
		mode = "per layer (traced)"
	}
	fmt.Printf("\n== %s — %s: %d operations attempted, %d failed, %d latency samples, %.1f s wall\n",
		res.Workload, mode, res.Attempted, res.Failed, res.Samples, res.WallS)
	for _, d := range endToEndMetrics {
		if b, ok := res.EndToEnd[d.Name]; ok {
			over := "segments"
			if d.Name == "setup_s" {
				over = "set-ups"
			}
			fmt.Printf("  %-36s %14.4f %-6s  p10 %.4f  p90 %.4f  over %d %s\n", d.Name, b.Median, d.Unit, b.P10, b.P90, b.N, over)
		}
	}
	if res.PerLayer != nil {
		for _, d := range perLayerMetrics {
			fmt.Printf("  %-36s %14.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// resultLine renders one run as the single JSON object the driver reads.
func resultLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Traced {
		for _, d := range perLayerMetrics {
			metrics[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEndMetrics {
			metrics[d.Name] = value{res.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal("%v", err)
	}
	return string(raw)
}
