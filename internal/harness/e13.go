package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/rpc"
	"godcdo/internal/testbed"
	"godcdo/internal/version"
)

// e13Seed fixes the fault schedule so the chaos run is reproducible.
const e13Seed = 47

// e13PlainFleet is the number of unreplicated DCDOs beside the replica group.
const e13PlainFleet = 3

// e13Applies is the primary manager's crash point: it dies after this many
// successful applications, before reaching the replicated LOID.
const e13Applies = 2

// e13SeedBumps is the replicated counter value established before any fault
// is injected, proving state shipping end to end.
const e13SeedBumps = 10

// e13AmbiguityBound caps how many non-idempotent calls may surface as
// ambiguous across both node losses: each disruption can clip at most the
// in-flight call of the single writer, so a handful is generous.
const e13AmbiguityBound = 8

// RunE13 is the chaos experiment for replicated DCDOs and manager failover:
// three replicas serve one LOID behind a primary/backup group while two load
// generators (one idempotent reader, one non-idempotent writer) run
// continuously. First the primary replica's node is partitioned and the
// group fails over to a backup — idempotent traffic must see zero failures
// and the writer at worst bounded ambiguity, with the replicated counter
// proving no acked write was lost and none executed twice. Then the primary
// manager is killed mid-fleet-pass; the standby manager — fed a live copy of
// the journal over mgr.repl shipping — detects the death via the health
// prober, takes over with a fenced epoch bump (the deposed manager's next
// shipment is refused), and finishes the pass, evolving the replica group
// zero-downtime: backups first, then a promotion, then the old primary. The
// run asserts full fleet convergence, the epoch/generation lineage, and that
// recovery compacts the shipped journal to a clean designation + epoch.
func RunE13() (rep *Report, err error) {
	ctx := context.Background()
	tb, err := testbed.Build(testbed.Config{
		Name:      "e13",
		Seed:      e13Seed,
		Greetings: []testbed.Greeting{{ID: "en", Text: "hello"}, {ID: "fr", Text: "bonjour"}},
		Counter:   true,
		Fleet:     e13PlainFleet,
		Groups:    []int{3},
		Standby:   true,
		// Generous rebind budget: a call that lands inside the failover
		// window must be able to chase the binding through trim ->
		// not-primary -> re-resolve cycles until the new primary is
		// published.
		Retry: rpc.RetryPolicy{
			CallTimeout: 25 * time.Millisecond,
			MaxAttempts: 2,
			MaxRebinds:  16,
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
	agent, faults, client, mgr1, mgr2 := tb.Agent, tb.Faults, tb.Client, tb.Mgr, tb.Standby.Mgr
	group, target := tb.Groups[0], tb.Versions[1]
	groupLOID, memberEndpoints := group.LOID, group.Set().Endpoints()
	standbyGroup := mgr2.ReplicaGroup(groupLOID)

	// Seed the replicated counter and verify the shipment reached a backup.
	for i := 0; i < e13SeedBumps; i++ {
		if _, err := testbed.Bump.Call(ctx, client, groupLOID, rpc.None{}); err != nil {
			return nil, fmt.Errorf("e13: seed bump %d: %w", i, err)
		}
	}
	backupStatus, err := group.Status(ctx, memberEndpoints[1])
	if err != nil {
		return nil, fmt.Errorf("e13: backup status: %w", err)
	}

	// The standby watches the primary manager's node; it takes over on
	// consecutive missed probes.
	tb.Monitor(10 * time.Second)

	// --- Load: an idempotent reader and a non-idempotent writer. ----------
	load := testbed.StartLoad(tb, groupLOID, testbed.Greet, func(out []byte) bool {
		return string(out) == "hello" || string(out) == "bonjour"
	}, true)
	defer load.Stop()
	time.Sleep(15 * time.Millisecond)

	// --- Act I: kill the primary replica's node mid-load, fail over. ------
	faults.Partition(memberEndpoints[0])
	failoverStart := time.Now()
	newPrimary, err := group.Failover(ctx)
	if err != nil {
		return nil, fmt.Errorf("e13: failover: %w", err)
	}
	failoverCost := time.Since(failoverStart)
	setAfterFailover := agent.Set(groupLOID)
	time.Sleep(20 * time.Millisecond)

	// --- Act II: kill the primary manager mid-fleet-pass. -----------------
	if err := mgr1.SetCurrentVersion(ctx, target); err != nil {
		return nil, err
	}
	crashRep, err := mgr1.EvolveFleet(testbed.CancelAfter(tb.Obs.Events, "evolved", e13Applies, nil), target, nil)
	if err != nil && !(crashRep.Halted && len(crashRep.Failed) == 0 && errors.Is(err, context.Canceled)) {
		return nil, fmt.Errorf("e13: crashed pass: %w", err)
	}
	// The crash: journal handle closes with the pass open, the health
	// endpoint goes dark, and manager #1 is abandoned.
	if err := tb.Crash(); err != nil {
		return nil, err
	}
	takeover, err := tb.AwaitTakeover(10 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("e13: takeover: %w", err)
	}

	// The deposed manager's next shipment is fenced by the epoch bump.
	fenceErr := tb.Shipper.Ship(manager.JournalRecord{Op: manager.OpMgrEpoch, Pass: 1})

	// Let the load observe the evolved group before stopping.
	time.Sleep(10 * time.Millisecond)
	load.Stop()

	// --- Verdicts ---------------------------------------------------------
	journalAfter, err := mgr2.Journal().Records()
	if err != nil {
		return nil, err
	}
	convergedPlain := tb.Converged(mgr2, target, "bonjour")
	groupGreet, err := testbed.Greet.Call(ctx, client, groupLOID, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("e13: greet after convergence: %w", err)
	}
	finalSet := agent.Set(groupLOID)
	convergedMembers := 0
	memberCount := 0
	for _, ep := range finalSet.Endpoints() {
		memberCount++
		st, err := group.Status(ctx, ep)
		if err != nil {
			continue
		}
		at, err := version.Decode(st.VersionSegs)
		if err == nil && at.Equal(target) {
			convergedMembers++
		}
	}
	total, err := testbed.Total.Call(ctx, client, groupLOID, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("e13: total: %w", err)
	}
	minTotal := uint64(e13SeedBumps) + load.WriteOK.Load()
	maxTotal := minTotal + load.WriteAmbiguous.Load()

	table := metrics.NewTable(
		"E13 — primary replica and primary manager killed mid-load",
		"phase", "idempotent ok/fail", "writer ok/ambig/other", "outcome")
	table.AddRow("replica failover",
		"-", "-",
		fmt.Sprintf("%s in %s (gen %d)", newPrimary, metrics.FormatDuration(failoverCost), setAfterFailover.Generation))
	table.AddRow("manager takeover",
		"-", "-",
		fmt.Sprintf("epoch %d, %d pass(es), resumed %d", takeover.Epoch, takeover.Report.Passes, len(takeover.Report.Resumed)))
	table.AddRow("full run",
		fmt.Sprintf("%d/%d", load.ReadOK.Load(), load.ReadFail.Load()),
		fmt.Sprintf("%d/%d/%d", load.WriteOK.Load(), load.WriteAmbiguous.Load(), load.WriteOther.Load()),
		fmt.Sprintf("counter %d in [%d,%d]", total, minTotal, maxTotal))
	table.AddRow("convergence",
		fmt.Sprintf("plain %d/%d", convergedPlain, e13PlainFleet),
		fmt.Sprintf("replicas %d/%d", convergedMembers, memberCount),
		fmt.Sprintf("primary=%s epoch=%d gen=%d", finalSet.Primary, standbyGroup.Epoch(), finalSet.Generation))

	checks := []Check{
		check("state replication: seeded counter reached a backup before any fault",
			backupStatus.Seq > 0,
			"backup seq=%d", backupStatus.Seq),
		check("replica failover publishes a new primary without the dead node",
			newPrimary == memberEndpoints[1] && !setAfterFailover.Contains(memberEndpoints[0]) &&
				setAfterFailover.Generation == 2,
			"newPrimary=%s set=%+v", newPrimary, setAfterFailover),
		check("zero client-visible failures for idempotent traffic across both node losses",
			load.ReadOK.Load() > 0 && load.ReadFail.Load() == 0,
			"ok=%d fail=%d", load.ReadOK.Load(), load.ReadFail.Load()),
		check("non-idempotent traffic: bounded ambiguity, no other failures",
			load.WriteOK.Load() > 0 && load.WriteOther.Load() == 0 && load.WriteAmbiguous.Load() <= e13AmbiguityBound,
			"ok=%d ambiguous=%d other=%d", load.WriteOK.Load(), load.WriteAmbiguous.Load(), load.WriteOther.Load()),
		check("counter: every acked write applied exactly once, ambiguous writes at most once",
			total >= minTotal && total <= maxTotal,
			"total=%d want [%d,%d]", total, minTotal, maxTotal),
		check("crashed pass halted before the replicated LOID",
			crashRep.Halted && len(crashRep.Evolved) == e13Applies,
			"report=%+v", crashRep),
		check("standby takeover: fenced epoch bump, interrupted pass finished",
			takeover.Epoch == 2 && takeover.Report.Passes == 1 &&
				len(takeover.Report.Resumed) == 2 && len(takeover.Report.Quarantined) == 0,
			"epoch=%d report=%+v", takeover.Epoch, takeover.Report),
		check("deposed manager's journal shipment refused with ErrFenced",
			errors.Is(fenceErr, rpc.ErrFenced),
			"err=%v", fenceErr),
		check("zero-downtime evolution: group converged with one promotion (epoch 3, gen 3)",
			string(groupGreet) == "bonjour" && convergedMembers == memberCount &&
				standbyGroup.Epoch() == 3 && finalSet.Generation == 3,
			"greet=%q members=%d/%d epoch=%d gen=%d", groupGreet, convergedMembers, memberCount, standbyGroup.Epoch(), finalSet.Generation),
		check("whole plain fleet at target",
			convergedPlain == e13PlainFleet,
			"converged=%d/%d", convergedPlain, e13PlainFleet),
		check("shipped journal compacts to designation + manager epoch",
			len(journalAfter) == 2 && journalAfter[0].Op == manager.OpCurrent &&
				journalAfter[1].Op == manager.OpMgrEpoch && journalAfter[1].Pass == takeover.Epoch,
			"journal=%+v", journalAfter),
	}

	return &Report{
		ID:     "E13",
		Title:  "replica + manager failover under load: zero idempotent failures, bounded ambiguity, zero-downtime evolution",
		Table:  table,
		Extras: []*metrics.Table{stageBreakdown(tb.Obs.Metrics)},
		Notes: []string{
			fmt.Sprintf("3 replicas behind one LOID + %d plain DCDOs over inproc transport behind a seeded FaultDialer (seed %d)", e13PlainFleet, e13Seed),
			"primary replica loss: endpoint partitioned mid-load; Group.Failover promotes the first reachable backup and publishes generation 2",
			"primary manager loss: journal closed mid-pass and health endpoint darkened; the standby's health monitor triggers a fenced takeover over the shipped journal",
			"the replicated LOID evolves backups-first during recovery, then promotes an evolved backup, then evolves the old primary — clients never see a member running neither version",
			"writer correctness: counter total must equal seed + acked bumps, plus at most one per ambiguous outcome",
		},
		Checks: checks,
	}, nil
}
