// Command dcdo-bench regenerates the paper's performance study (§4): every
// experiment E1–E15, each printing the table it reproduces and the pass/fail
// shape criteria derived from the paper's reported numbers.
//
// Usage:
//
//	dcdo-bench                         # run all experiments
//	dcdo-bench -e E4                   # run one experiment
//	dcdo-bench -e E15 -batch 32        # batched invoke at a non-default batch size
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"godcdo/internal/harness"
	"godcdo/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcdo-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcdo-bench", flag.ContinueOnError)
	experiment := fs.String("e", "all", "experiment to run (E1..E15 or all)")
	batch := fs.Int("batch", 0, "batch size for E15's scatter-gather measurement (0 = experiment default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch != 0 {
		if *batch < 1 || *batch > wire.MaxBatchCalls {
			return fmt.Errorf("-batch %d out of range [1, %d]", *batch, wire.MaxBatchCalls)
		}
		harness.SetBatchSize(*batch)
	}

	runners := map[string]func() (*harness.Report, error){
		"E1":  harness.RunE1,
		"E2":  harness.RunE2,
		"E3":  harness.RunE3,
		"E4":  harness.RunE4,
		"E5":  harness.RunE5,
		"E6":  harness.RunE6,
		"E7":  harness.RunE7,
		"E8":  harness.RunE8,
		"E9":  harness.RunE9,
		"E10": harness.RunE10,
		"E11": harness.RunE11,
		"E12": harness.RunE12,
		"E13": harness.RunE13,
		"E14": harness.RunE14,
		"E15": harness.RunE15,
	}

	var reports []*harness.Report
	switch want := strings.ToUpper(*experiment); want {
	case "ALL":
		all, err := harness.RunAll()
		if err != nil {
			return err
		}
		reports = all
	default:
		runner, ok := runners[want]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E15 or all)", *experiment)
		}
		rep, err := runner()
		if err != nil {
			return err
		}
		reports = []*harness.Report{rep}
	}

	failed := 0
	for _, rep := range reports {
		fmt.Println(rep.String())
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape criteria", failed)
	}
	fmt.Printf("all %d experiment(s) passed their shape criteria\n", len(reports))
	return nil
}
