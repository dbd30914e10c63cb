package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/testbed"
	"godcdo/internal/version"
)

// e8Seed fixes the fault schedule so the chaos run is reproducible.
const e8Seed = 43

// e8Fleet is the number of managed DCDO instances.
const e8Fleet = 4

// e8Applies is the crash point: the manager "dies" after this many
// successful applications, leaving the journal pass open.
const e8Applies = 2

// RunE8 is the chaos experiment for crash-safe fleet evolution: a manager
// with a durable evolution journal starts a fleet pass to a new current
// version while one instance's node is partitioned, and is killed mid-pass
// (journal open, no done record). A second manager is then "restarted" from
// the persisted store image and the journal: Recover replays the
// interrupted pass, probing every planned instance's actual version —
// verifying the ones the dead manager already evolved, resuming the ones it
// never reached, and quarantining the partitioned one. After the partition
// heals, the liveness prober re-converges the straggler. The run asserts
// the whole fleet converges to the target with no half-applied descriptors
// and that recovery is idempotent (a second Recover is a no-op).
func RunE8() (rep *Report, err error) {
	tb, err := testbed.Build(testbed.Config{
		Name:      "e8",
		Seed:      e8Seed,
		Greetings: []testbed.Greeting{{ID: "en", Text: "hello"}, {ID: "fr", Text: "bonjour"}},
		Fleet:     e8Fleet,
		// Short timeouts: probing the partitioned node must fail in
		// milliseconds, not the default seconds.
		Retry: rpc.RetryPolicy{
			CallTimeout: 20 * time.Millisecond,
			MaxAttempts: 2,
			MaxRebinds:  1,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.2,
		},
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, tb.Close()) }()
	mgr, client, faults, loids, target := tb.Mgr, tb.Client, tb.Faults, tb.Fleet, tb.Versions[1]
	// Victim sits mid-plan (sorted order), so the crashed pass has touched
	// instances both before and after it.
	victim := loids[1]

	// --- Act I: designate v1.1, partition the victim, die mid-pass. -------
	if err := mgr.SetCurrentVersion(context.Background(), target); err != nil {
		return nil, err
	}
	faults.Partition(tb.Endpoints[victim])
	crashRep, err := mgr.EvolveFleet(testbed.CancelAfter(tb.Obs.Events, "evolved", e8Applies, nil), target, nil)
	if err != nil && !(crashRep.Halted && len(crashRep.Failed) == 0 && errors.Is(err, context.Canceled)) {
		return nil, fmt.Errorf("e8: crashed pass: %w", err)
	}
	// The crash: the journal file handle closes with the pass still open —
	// no done record — and manager #1 is abandoned.
	if err := tb.Crash(); err != nil {
		return nil, err
	}

	// --- Act II: restart from the image + journal, recover. ---------------
	mgr2, err := tb.Restart()
	if err != nil {
		return nil, err
	}
	for _, loid := range loids {
		inst := manager.RemoteInstance{Client: client, Target: loid}
		if loid == victim {
			// Still partitioned: cannot be probed, adopt unverified at its
			// last known version.
			err = mgr2.AdoptUnverified(inst, registry.NativeImplType, version.ID{1}, "partitioned at crash")
		} else {
			err = mgr2.Adopt(context.Background(), inst, registry.NativeImplType)
		}
		if err != nil {
			return nil, err
		}
	}

	recoverStart := time.Now()
	recRep, err := mgr2.Recover(context.Background())
	if err != nil {
		return nil, fmt.Errorf("e8: recover: %w", err)
	}
	recoverCost := time.Since(recoverStart)
	// Idempotence probe: a second recovery must find a clean journal.
	recRep2, err := mgr2.Recover(context.Background())
	if err != nil {
		return nil, fmt.Errorf("e8: second recover: %w", err)
	}
	journalAfter, err := mgr2.Journal().Records()
	if err != nil {
		return nil, err
	}

	// --- Act III: the partition heals; the prober converges the victim. ---
	faults.Heal(tb.Endpoints[victim])
	prober := &manager.Prober{Mgr: mgr2, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	healStart := time.Now()
	reconverged := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		rep, err := prober.Sweep(context.Background())
		if err != nil {
			return nil, fmt.Errorf("e8: sweep: %w", err)
		}
		if len(rep.Reconverged) > 0 {
			reconverged = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	healCost := time.Since(healStart)

	// --- Verdicts ----------------------------------------------------------
	// Converged = every instance answers greet with the v1.1 (fr)
	// implementation and its table record matches — no half-applied
	// descriptors anywhere.
	converged := tb.Converged(mgr2, target, "bonjour")
	victimQuarantined, _ := mgr2.IsQuarantined(victim)
	current, _ := mgr2.CurrentVersion()

	table := metrics.NewTable(
		"E8 — manager killed mid-pass, restarted, fleet re-converged",
		"phase", "evolved/verified", "skipped/quarantined", "outcome")
	table.AddRow("pass (crashed after 2 applies)",
		fmt.Sprintf("%d", len(crashRep.Evolved)),
		fmt.Sprintf("%d", len(crashRep.Skipped)),
		fmt.Sprintf("halted=%v", crashRep.Halted))
	table.AddRow("recovery (journal replay)",
		fmt.Sprintf("%d+%d", len(recRep.Verified), len(recRep.Resumed)),
		fmt.Sprintf("%d", len(recRep.Quarantined)),
		fmt.Sprintf("%d pass(es) in %s", recRep.Passes, metrics.FormatDuration(recoverCost)))
	table.AddRow("recovery (replayed again)",
		"-", "-", fmt.Sprintf("%d pass(es): no-op", recRep2.Passes))
	table.AddRow("post-heal (prober)",
		fmt.Sprintf("%d/%d fleet at %s", converged, e8Fleet, target),
		fmt.Sprintf("%v", victimQuarantined),
		fmt.Sprintf("reconverged in %s", metrics.FormatDuration(healCost)))

	checks := []Check{
		check("crashed pass: 2 applied, partitioned instance quarantined, no done record",
			crashRep.Halted && len(crashRep.Evolved) == e8Applies &&
				len(crashRep.Skipped) == 1 && crashRep.Skipped[0] == victim,
			"report=%+v", crashRep),
		check("recovery finishes the interrupted pass (verify + resume + quarantine)",
			recRep.Passes == 1 && len(recRep.Verified) == e8Applies &&
				len(recRep.Resumed) == 1 && len(recRep.Quarantined) == 1 &&
				recRep.Quarantined[0] == victim,
			"report=%+v", recRep),
		check("current-version designation survives the crash via the journal",
			current.Equal(target),
			"current=%s want=%s", current, target),
		check("recovery is idempotent: second replay finds a clean journal",
			recRep2.Passes == 0 && len(journalAfter) == 1 && journalAfter[0].Op == manager.OpCurrent,
			"passes=%d journal=%d records", recRep2.Passes, len(journalAfter)),
		check("healed partition: prober re-converges the straggler",
			reconverged && !victimQuarantined,
			"reconverged=%v quarantined=%v", reconverged, victimQuarantined),
		check("whole fleet at target with no half-applied descriptors",
			converged == e8Fleet,
			"converged=%d/%d", converged, e8Fleet),
	}

	return &Report{
		ID:     "E8",
		Title:  "crash-safe fleet evolution: journal replay after a mid-pass manager crash with a partitioned instance",
		Table:  table,
		Extras: []*metrics.Table{stageBreakdown(tb.Obs.Metrics)},
		Notes: []string{
			fmt.Sprintf("real components over inproc transport behind a seeded FaultDialer (seed %d)", e8Seed),
			"store image persisted with vault.WriteDurable before the pass; journal fsynced per record",
			fmt.Sprintf("crash simulated by ending the pass's ctx after %d applies: journal left open, manager abandoned, new manager restarts from disk", e8Applies),
			"recovery probes each planned instance's actual version — the journal narrows, the probe decides",
		},
		Checks: checks,
	}, nil
}
