package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/rpc"
	"godcdo/internal/supervisor"
	"godcdo/internal/testbed"
)

// e11Fleet is the number of managed DCDO instances.
const e11Fleet = 6

// e11SlowLatency is the per-call latency fault baked into the v1.1
// component: slow enough to trip the p99 guard, fast enough that no call
// ever times out — the regression is a latency SLO breach, not an outage.
const e11SlowLatency = 2 * time.Millisecond

// RunE11 is the chaos experiment for the rollout control plane. A six-
// instance fleet serves a continuous client workload while a supervisor
// executes two canary rollouts against it.
//
// Act I — a bad version: v1.1's implementation carries a per-version
// latency fault. The supervisor canaries it, the SLO guard's sliding
// window catches the p99 regression during the bake, and the rollout
// auto-rolls the canary back to the baseline — while the workload sees
// slow calls but zero failures (rollback is invisible to clients).
//
// Act II — a crash mid-rollout: a good version (v1.2) rolls out, and the
// supervisor is killed after the canary's promotion, mid-way through the
// second wave (journal pass open, wave unpromoted). A second supervisor
// restarts from the persisted store image and the journal: manager
// recovery finishes the interrupted pass, Resume reconstructs the rollout
// (policy, promoted set, unbaked wave) and drives it to completion — the
// fleet lands on v1.2 with the workload still at zero failures.
func RunE11() (rep *Report, err error) {
	tb, err := testbed.Build(testbed.Config{
		Name: "e11",
		Greetings: []testbed.Greeting{
			{ID: "en", Text: "hello"},
			{ID: "fr", Text: "bonjour", Delay: e11SlowLatency}, // the per-version fault
			{ID: "de", Text: "guten tag"},
		},
		Fleet: e11Fleet,
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, tb.Close()) }()
	o, mgr, client, loids := tb.Obs, tb.Mgr, tb.Client, tb.Fleet
	root, badVersion, goodVersion := tb.Versions[0], tb.Versions[1], tb.Versions[2]
	o.Metrics.RegisterCounters("client.e11", client.Metrics())
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		return nil, err
	}

	// --- Client workload: continuous round-robin greet invokes. -----------
	var calls, failures atomic.Uint64
	stopped, stopWorkload := context.WithCancel(context.Background())
	var workloadWG sync.WaitGroup
	workloadWG.Add(1)
	go func() {
		defer workloadWG.Done()
		for i := 0; stopped.Err() == nil; i++ {
			loid := loids[i%len(loids)]
			calls.Add(1)
			if _, err := testbed.Greet.Call(context.Background(), client, loid, rpc.None{}); err != nil {
				// §3.2: calls racing a mid-flight evolution may observe the
				// function transiently disabled and must tolerate it. A
				// failure counts only if it survives a few quick retries —
				// that is actual downtime, not a reconfiguration window.
				recovered := false
				for r := 0; r < 5 && !recovered; r++ {
					time.Sleep(time.Millisecond)
					_, err2 := testbed.Greet.Call(context.Background(), client, loid, rpc.None{})
					recovered = err2 == nil
				}
				if !recovered {
					failures.Add(1)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer func() {
		stopWorkload()
		workloadWG.Wait()
	}()

	slo := supervisor.SLO{
		LatencyHistogram: "client.invoke",
		MaxP99:           time.Millisecond,
		ErrorCounters:    "client.e11",
		MaxErrorRate:     0.05,
		MinSamples:       10,
	}

	// --- Act I: canary the bad version; the SLO guard rolls it back. ------
	sup := &supervisor.Supervisor{Mgr: mgr, Reg: o.Metrics, Obs: o, Hub: supervisor.NewHub()}
	sup.Hub.Bind(o.GetEvents())
	actIStart := time.Now()
	err = sup.Start(context.Background(), supervisor.Policy{
		Name:          "bad-canary",
		Target:        badVersion,
		CanarySize:    1,
		WaveWidths:    []int{2},
		BakeTime:      120 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		SLO:           slo,
	})
	if err != nil {
		return nil, fmt.Errorf("e11: start bad rollout: %w", err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	actI, err := sup.Wait(waitCtx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("e11: bad rollout never finished: %w", err)
	}
	actICost := time.Since(actIStart)

	baselineHolds := 0
	for _, loid := range loids {
		if rec, err := mgr.RecordOf(loid); err == nil && rec.Version.Equal(root) {
			baselineHolds++
		}
	}
	currentAfterI, _ := mgr.CurrentVersion()

	// --- Act II: good rollout, supervisor killed mid-wave 2. --------------
	sup2 := &supervisor.Supervisor{Mgr: mgr, Reg: o.Metrics, Obs: o}
	err = sup2.Start(testbed.CancelAfter(tb.Obs.Events, "evolved", 2, sup.Hub.Publish), supervisor.Policy{
		Name:          "good-rollout",
		Target:        goodVersion,
		CanarySize:    1,
		WaveWidths:    []int{2},
		BakeTime:      120 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		SLO:           slo,
	})
	if err != nil {
		return nil, fmt.Errorf("e11: start good rollout: %w", err)
	}
	waitCtx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	crashed, err := sup2.Wait(waitCtx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("e11: crashed rollout never exited: %w", err)
	}
	// The crash: journal handle closed with the wave pass open, supervisor
	// and manager #1 abandoned.
	if err := tb.Crash(); err != nil {
		return nil, err
	}

	// --- Act III: restart from disk; Resume completes the rollout. --------
	mgr2, err := tb.Restart()
	if err != nil {
		return nil, err
	}
	if err := tb.Adopt(mgr2); err != nil {
		return nil, err
	}

	sup3 := &supervisor.Supervisor{Mgr: mgr2, Reg: o.Metrics, Obs: o}
	resumeStart := time.Now()
	resumed, err := sup3.Resume(context.Background())
	if err != nil {
		return nil, fmt.Errorf("e11: resume: %w", err)
	}
	waitCtx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	actIII, err := sup3.Wait(waitCtx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("e11: resumed rollout never finished: %w", err)
	}
	resumeCost := time.Since(resumeStart)

	stopWorkload()
	workloadWG.Wait()
	totalCalls, totalFailures := calls.Load(), failures.Load()

	// Converged = every instance answers greet with the v1.2 implementation
	// and its record matches.
	converged := tb.Converged(mgr2, goodVersion, "guten tag")
	currentAfterIII, _ := mgr2.CurrentVersion()

	table := metrics.NewTable(
		"E11 — policy-driven canary rollouts: SLO auto-rollback and crash-resume",
		"act", "rollout", "outcome", "fleet")
	table.AddRow("I: bad version canaried",
		fmt.Sprintf("-> %s (p99 guard %s)", badVersion, slo.MaxP99),
		fmt.Sprintf("%s in %s (%s)", actI.Phase, metrics.FormatDuration(actICost), actI.Err),
		fmt.Sprintf("%d/%d on baseline %s", baselineHolds, e11Fleet, root))
	table.AddRow("II: good rollout, killed mid-wave",
		fmt.Sprintf("-> %s", goodVersion),
		fmt.Sprintf("crashed at phase %s, wave %d, %d promoted", crashed.Phase, crashed.Wave, len(crashed.Promoted)),
		"journal pass left open")
	table.AddRow("III: restart + resume",
		fmt.Sprintf("resumed=%v", resumed),
		fmt.Sprintf("%s in %s, %d waves", actIII.Phase, metrics.FormatDuration(resumeCost), actIII.Wave),
		fmt.Sprintf("%d/%d on %s", converged, e11Fleet, goodVersion))
	table.AddRow("client workload",
		fmt.Sprintf("%d invokes", totalCalls),
		fmt.Sprintf("%d failures", totalFailures),
		"continuous through rollback, crash, and resume")

	checks := []Check{
		check("act I: SLO guard trips on the slow canary and auto-rolls back",
			actI.Phase == supervisor.PhaseRolledBack && actI.Err != "",
			"phase=%s err=%q", actI.Phase, actI.Err),
		check("act I: whole fleet back on the baseline, designation untouched",
			baselineHolds == e11Fleet && currentAfterI.Equal(root),
			"baseline=%d/%d current=%s", baselineHolds, e11Fleet, currentAfterI),
		check("act II: crash leaves the rollout unterminated (no done record)",
			crashed.Phase != supervisor.PhaseCompleted && crashed.Phase != supervisor.PhaseRolledBack &&
				len(crashed.Promoted) == 1,
			"phase=%s promoted=%d", crashed.Phase, len(crashed.Promoted)),
		check("act III: restarted supervisor finds and resumes the open rollout",
			resumed, "resumed=%v", resumed),
		check("act III: resumed rollout completes; fleet and designation on the target",
			actIII.Phase == supervisor.PhaseCompleted && converged == e11Fleet &&
				currentAfterIII.Equal(goodVersion),
			"phase=%s converged=%d/%d current=%s", actIII.Phase, converged, e11Fleet, currentAfterIII),
		check("zero client-visible failures through rollback, crash, and resume (§3.2 windows retried)",
			totalFailures == 0 && totalCalls > 0,
			"failures=%d calls=%d", totalFailures, totalCalls),
	}

	return &Report{
		ID:     "E11",
		Title:  "rollout control plane: canary waves, SLO auto-rollback, and crash-resume from the journal",
		Table:  table,
		Extras: []*metrics.Table{stageBreakdown(o.Metrics)},
		Notes: []string{
			fmt.Sprintf("per-version fault: v1.1's greet sleeps %s per call — an SLO regression, not an outage", e11SlowLatency),
			"SLO guard reads the same client.invoke histogram and client counters /debug/obs exports",
			"crash simulated by ending the rollout's ctx after wave 2's first apply: the journalled pass left open, no done record",
			"restart rebuilds the manager from the persisted store image; Resume reconstructs the rollout from journal records",
		},
		Checks: checks,
	}, nil
}
