package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/testbed"
)

// e14Seed fixes the fault schedule so the chaos run is reproducible.
const e14Seed = 53

// e14SeedBumps is the replicated counter value established on the degree-3
// group before any fault is injected.
const e14SeedBumps = 10

// e14SoloSeed is the counter value written to the degree-1 object before
// its live retune — after the reconciler grows the group, every member must
// serve exactly this value, proving the expansion seeded real state.
const e14SoloSeed = 7

// e14MeasuredReads is the read sample used to measure the off-primary
// fraction after the backup-ok retune.
const e14MeasuredReads = 300

// e14OffPrimaryFloor is the acceptance floor for reads served by backups
// under a backup-ok policy (round-robin over 3 members lands ~2/3 off the
// primary; 30% leaves slack for the ramp).
const e14OffPrimaryFloor = 0.30

// RunE14 is the distribution-policy chaos experiment, in three acts over
// one fleet: (I) a degree-3 policy group loses a backup under load and the
// reconciler heals the replication degree back to N on a spare node with
// zero idempotent-read failures; (II) a live policy retune over the
// manager's RPC surface (the dcdo-ctl path) takes a degree-1 object to
// degree 3 with backup-ok reads, with zero downtime for a reader running
// across the transition and at least 30% of subsequent idempotent reads
// served off-primary; (III) the primary manager is killed mid-reconcile and
// the standby — recovering policies from the shipped journal — finishes the
// convergence its predecessor started.
func RunE14() (rep *Report, err error) {
	ctx := context.Background()
	tb, err := testbed.Build(testbed.Config{
		Name:    "e14",
		Seed:    e14Seed,
		Counter: true,
		Groups:  []int{3, 1},
		Spares:  4,
		Standby: true,
		// MaxAttempts 8: an idempotent read that lands inside the
		// dead-backup window gets CodeUnavailable from the primary (it
		// cannot commit pending state to the group) until the reconciler
		// drops the dead member; the backoff schedule must outlast that
		// few-millisecond convergence window.
		Retry: rpc.RetryPolicy{
			CallTimeout: 25 * time.Millisecond,
			MaxAttempts: 8,
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
	agent, cache, faults, client, dialer := tb.Agent, tb.Cache, tb.Faults, tb.Client, tb.Dialer
	mgr1, mgr2, mgrLOID, spares := tb.Mgr, tb.Standby.Mgr, tb.MgrLOID, tb.Spares
	groupLOID, groupEndpoints, soloLOID := tb.Groups[0].LOID, tb.Groups[0].Set().Endpoints(), tb.Groups[1].LOID

	// The group's declarative contract: stay at degree 3. The solo object
	// starts without a designation (implicit degree-1 default).
	groupPol := policy.Default()
	groupPol.Degree = 3
	if err := mgr1.SetPolicy(groupLOID, groupPol); err != nil {
		return nil, err
	}

	// Seed both counters before any fault.
	for i := 0; i < e14SeedBumps; i++ {
		if _, err := testbed.Bump.Call(ctx, client, groupLOID, rpc.None{}); err != nil {
			return nil, fmt.Errorf("e14: seed bump %d: %w", i, err)
		}
	}
	for i := 0; i < e14SoloSeed; i++ {
		if _, err := testbed.Bump.Call(ctx, client, soloLOID, rpc.None{}); err != nil {
			return nil, fmt.Errorf("e14: solo seed bump %d: %w", i, err)
		}
	}

	// --- Standby manager, watching the primary's health endpoint. ---------
	tb.Monitor(30 * time.Second)

	// --- The reconciler: the policy plane's convergence loop. -------------
	rec1 := &manager.Reconciler{Mgr: mgr1, Candidates: spares, Interval: 2 * time.Millisecond}
	rec1.Run()
	defer rec1.Stop()

	// --- Act I: kill a backup under load; the reconciler heals degree. ----
	load := testbed.StartLoad(tb, groupLOID, testbed.Total, func(n uint64) bool {
		return n >= e14SeedBumps
	}, true)
	defer load.Stop()
	time.Sleep(10 * time.Millisecond)

	deadBackup := groupEndpoints[2]
	faults.Partition(deadBackup)
	healStart := time.Now()
	var healedSet naming.ReplicaSet
	for deadline := time.Now().Add(5 * time.Second); ; {
		healedSet = agent.Set(groupLOID)
		if len(healedSet.Endpoints()) == 3 && !healedSet.Contains(deadBackup) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("e14: degree never healed: %+v", healedSet)
		}
		time.Sleep(time.Millisecond)
	}
	healCost := time.Since(healStart)
	time.Sleep(10 * time.Millisecond)
	load.Stop()

	groupTotal, err := testbed.Total.Call(ctx, client, groupLOID, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("e14: group total: %w", err)
	}
	minTotal := uint64(e14SeedBumps) + load.WriteOK.Load()
	maxTotal := minTotal + load.WriteAmbiguous.Load() + load.WriteOther.Load()

	// --- Act II: live retune over RPC — degree 1 -> 3, backup-ok reads. ---
	// A continuous reader across the retune: the downtime probe.
	soloLoad := testbed.StartLoad(tb, soloLOID, testbed.Total, func(n uint64) bool {
		return n == e14SoloSeed
	}, false)
	defer soloLoad.Stop()
	time.Sleep(5 * time.Millisecond)

	retunePol := policy.Default()
	retunePol.Degree = 3
	retunePol.ReadPreference = policy.ReadBackupOK
	retunePol.Consistency = policy.ConsistencyEventual
	if _, err := manager.MethodPolicySet.Call(ctx, client, mgrLOID, manager.PolicyArgs{LOID: soloLOID, Policy: retunePol}); err != nil {
		return nil, fmt.Errorf("e14: policy set over RPC: %w", err)
	}
	got, err := manager.MethodPolicyGet.Call(ctx, client, mgrLOID, soloLOID)
	if err != nil {
		return nil, fmt.Errorf("e14: policy get over RPC: %w", err)
	}
	gotOK, roundTripped, gotDoc := got.Designated, got.Policy, got.Policy.String()

	retuneStart := time.Now()
	var soloSet naming.ReplicaSet
	for deadline := time.Now().Add(5 * time.Second); ; {
		soloSet = agent.Set(soloLOID)
		if len(soloSet.Endpoints()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("e14: solo group never reached degree 3: %+v", soloSet)
		}
		time.Sleep(time.Millisecond)
	}
	retuneCost := time.Since(retuneStart)
	time.Sleep(5 * time.Millisecond)
	soloLoad.Stop()

	// Pick up the grown set (and the policy document riding the binding),
	// then measure where idempotent reads actually land.
	cache.Invalidate(soloLOID)
	statsBefore := client.Stats()
	measuredBad := 0
	for i := 0; i < e14MeasuredReads; i++ {
		n, err := testbed.Total.Call(ctx, client, soloLOID, rpc.None{})
		if err != nil {
			return nil, fmt.Errorf("e14: measured read %d: %w", i, err)
		}
		if n != e14SoloSeed {
			measuredBad++
		}
	}
	statsAfter := client.Stats()
	idemDelta := statsAfter.IdempotentCalls - statsBefore.IdempotentCalls
	backupDelta := statsAfter.BackupReads - statsBefore.BackupReads
	offPrimary := float64(backupDelta) / float64(idemDelta)

	// --- Act III: kill the primary manager mid-reconcile. -----------------
	// Stop the reconciler between observation and action: it has journalled
	// (and shipped) its intent for the next repair, then dies before doing
	// it — the standby must finish from the document, not from a checkpoint.
	rec1.Stop()
	soloDead := soloSet.Backups[len(soloSet.Backups)-1]
	faults.Partition(soloDead)
	if err := mgr1.Journal().Reconcile(soloLOID, "drop dead "+soloDead); err != nil {
		return nil, err
	}
	if err := tb.Crash(); err != nil {
		return nil, err
	}
	takeover, err := tb.AwaitTakeover(20 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("e14: takeover: %w", err)
	}
	fenceErr := tb.Shipper.Ship(manager.JournalRecord{Op: manager.OpMgrEpoch, Pass: 1})

	// Snapshot the journal the takeover compacted, before the successor's own
	// sweep appends fresh reconcile records to it.
	journalAfter, err := mgr2.Journal().Records()
	if err != nil {
		return nil, err
	}
	var keptPolicies, keptReconciles int
	soloDocKept := ""
	for _, r := range journalAfter {
		switch r.Op {
		case manager.OpPolicySet:
			keptPolicies++
			if r.LOID == soloLOID {
				soloDocKept = r.Reason
			}
		case manager.OpReconcile:
			keptReconciles++
		}
	}
	keptPol, keptPolErr := policy.Parse(soloDocKept)

	// The successor adopts the live groups and runs its own sweep: the
	// restored policies are the only resume state it needs.
	mgr2.RegisterReplicaGroup(groupLOID, replica.Attach(groupLOID, dialer, agent, agent.Set(groupLOID), 1))
	mgr2.RegisterReplicaGroup(soloLOID, replica.Attach(soloLOID, dialer, agent, agent.Set(soloLOID), 1))
	rec2 := &manager.Reconciler{Mgr: mgr2, Candidates: spares}
	// The sweep's joined error is expected here: the freshly dead spare looks
	// least-loaded after its own drop, so the first expand attempt hits it,
	// poisons it for the pass, and the retry converges on a live candidate.
	sweepRep, sweepErr := rec2.Sweep(ctx)
	finalSolo := agent.Set(soloLOID)
	finalGroup := agent.Set(groupLOID)

	cache.Invalidate(soloLOID)
	finalRead, err := testbed.Total.Call(ctx, client, soloLOID, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("e14: read after takeover: %w", err)
	}

	rec1Stats := rec1.Stats()
	table := metrics.NewTable(
		"E14 — declarative distribution policy: heal, live retune, standby convergence",
		"act", "reads ok/fail", "writer ok/ambig/other", "outcome")
	table.AddRow("I: backup killed, degree healed",
		fmt.Sprintf("%d/%d", load.ReadOK.Load(), load.ReadFail.Load()),
		fmt.Sprintf("%d/%d/%d", load.WriteOK.Load(), load.WriteAmbiguous.Load(), load.WriteOther.Load()),
		fmt.Sprintf("healed in %s (gen %d), counter %d in [%d,%d]",
			metrics.FormatDuration(healCost), healedSet.Generation, groupTotal, minTotal, maxTotal))
	table.AddRow("II: live retune 1->3 backup-ok",
		fmt.Sprintf("%d/%d", soloLoad.ReadOK.Load(), soloLoad.ReadFail.Load()),
		"-",
		fmt.Sprintf("converged in %s, %.0f%% reads off-primary", metrics.FormatDuration(retuneCost), offPrimary*100))
	table.AddRow("III: manager killed mid-reconcile",
		"-", "-",
		fmt.Sprintf("takeover epoch %d, %d policies restored, sweep %d converged",
			takeover.Epoch, takeover.Report.Policies, sweepRep.Converged))

	checks := []Check{
		check("act I: reconciler heals replication degree to N on a spare after backup loss",
			len(healedSet.Endpoints()) == 3 && !healedSet.Contains(deadBackup) &&
				(healedSet.Contains(spares[0]) || healedSet.Contains(spares[1]) ||
					healedSet.Contains(spares[2]) || healedSet.Contains(spares[3])),
			"set=%+v", healedSet),
		check("act I: zero idempotent-read failures across the loss and the heal",
			load.ReadOK.Load() > 0 && load.ReadFail.Load() == 0,
			"ok=%d fail=%d", load.ReadOK.Load(), load.ReadFail.Load()),
		check("act I: counter consistent — every acked write applied, failures at most once",
			groupTotal >= minTotal && groupTotal <= maxTotal,
			"total=%d want [%d,%d]", groupTotal, minTotal, maxTotal),
		check("act I: writer failures in the window are ambiguous (applied locally, uncommitted), never hard errors",
			load.WriteOK.Load() > 0 && load.WriteOther.Load() == 0,
			"ok=%d ambiguous=%d other=%d", load.WriteOK.Load(), load.WriteAmbiguous.Load(), load.WriteOther.Load()),
		check("act I: convergence steps drove the repair (drop + heal journalled)",
			rec1Stats.Drops >= 1 && rec1Stats.Heals >= 1,
			"stats=%+v", rec1Stats),
		check("act II: policy round-trips over the manager RPC surface",
			gotOK && roundTripped.Equal(retunePol.Normalize()),
			"ok=%v doc=%q", gotOK, gotDoc),
		check("act II: zero downtime for the reader across the live retune",
			soloLoad.ReadOK.Load() > 0 && soloLoad.ReadFail.Load() == 0,
			"ok=%d fail=%d", soloLoad.ReadOK.Load(), soloLoad.ReadFail.Load()),
		check("act II: degree retuned 1 -> 3 by the reconciler",
			len(soloSet.Endpoints()) == 3,
			"set=%+v", soloSet),
		check(fmt.Sprintf("act II: >= %.0f%% of idempotent reads served off-primary under backup-ok", e14OffPrimaryFloor*100),
			offPrimary >= e14OffPrimaryFloor && measuredBad == 0,
			"offPrimary=%.2f (%d/%d), wrong values %d", offPrimary, backupDelta, idemDelta, measuredBad),
		check("act III: standby restored both policy documents from the shipped journal",
			takeover.Report.Policies == 2 && takeover.Epoch == 2,
			"policies=%d epoch=%d", takeover.Report.Policies, takeover.Epoch),
		check("act III: deposed manager's shipment refused with ErrFenced",
			errors.Is(fenceErr, rpc.ErrFenced),
			"err=%v", fenceErr),
		check("act III: successor sweep finishes the predecessor's convergence",
			sweepRep.Converged == 2 && len(finalSolo.Endpoints()) == 3 && !finalSolo.Contains(soloDead) &&
				len(finalGroup.Endpoints()) == 3,
			"sweep=%+v err=%v solo=%+v group=%+v", sweepRep, sweepErr, finalSolo, finalGroup),
		check("act III: reads still serve the seeded value after takeover",
			finalRead == e14SoloSeed,
			"read=%d want %d", finalRead, e14SoloSeed),
		check("takeover compaction keeps the latest policy per LOID, drops reconcile audit records",
			keptPolicies == 2 && keptReconciles == 0 && keptPolErr == nil && keptPol.Degree == 3 &&
				keptPol.BackupReadsAllowed(),
			"policies=%d reconciles=%d solo doc=%q", keptPolicies, keptReconciles, soloDocKept),
	}

	return &Report{
		ID:    "E14",
		Title: "distribution-policy plane: degree healing, live backup-ok retune, standby-completed convergence",
		Table: table,
		Notes: []string{
			fmt.Sprintf("degree-3 group + degree-1 object + 4 spare replica-host nodes over inproc transport behind a seeded FaultDialer (seed %d)", e14Seed),
			"act I: a backup endpoint is partitioned mid-load; the reconciler drops it and expands onto a spare until the document's degree holds again",
			"act II: mgr.policySet (the dcdo-ctl path) retunes the degree-1 object to degree 3 with backup-ok/eventual reads; the client routes idempotent reads round-robin across the grown set",
			"act III: the reconciler journals its next intent and the manager dies; the standby recovers the policy documents from the shipped journal and its level-triggered sweep completes the repair",
			"writer correctness: group counter must equal seed + acked bumps, plus at most one per ambiguous or failed outcome (a shipment failure surfaces as an error after the local apply)",
		},
		Checks: checks,
	}, nil
}
