package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
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
func RunE14() (*Report, error) {
	dir, err := os.MkdirTemp("", "e14-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	primaryJournalPath := filepath.Join(dir, "primary.journal")
	standbyJournalPath := filepath.Join(dir, "standby.journal")
	ctx := context.Background()

	// --- Object type: a replicated counter (bump = write, total = read). --
	reg := registry.New()
	icoCTR := naming.LOID{Domain: 1, Class: 9, Instance: 1}
	desc := dfm.NewDescriptor()
	ctrComp, err := addCounter(reg, icoCTR, desc)
	if err != nil {
		return nil, err
	}
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		if ico != icoCTR {
			return nil, fmt.Errorf("e14: unknown ico %s", ico)
		}
		return ctrComp, nil
	})

	// --- Primary manager with a shipped journal. --------------------------
	mgr1 := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	root, err := mgr1.Store().CreateRoot(desc)
	if err != nil {
		return nil, err
	}
	if err := mgr1.Store().MarkInstantiable(root); err != nil {
		return nil, err
	}
	descV1, err := mgr1.Store().InstantiableDescriptor(version.ID{1})
	if err != nil {
		return nil, err
	}

	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	faults := transport.NewFaults(e14Seed)
	dialer := transport.NewFaultDialer(net.Dialer(), faults)
	client := rpc.NewClient(cache, dialer)
	// MaxAttempts 8: an idempotent read that lands inside the dead-backup
	// window gets CodeUnavailable from the primary (it cannot commit pending
	// state to the group) until the reconciler drops the dead member; the
	// backoff schedule must outlast that few-millisecond convergence window.
	client.Retry = rpc.RetryPolicy{
		CallTimeout: 25 * time.Millisecond,
		MaxAttempts: 8,
		MaxRebinds:  16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}

	primaryJournal, err := manager.OpenJournal(primaryJournalPath)
	if err != nil {
		return nil, err
	}
	mgr1.SetJournal(primaryJournal)
	mgr1.SetPolicyPublisher(agent)
	standbyJournal, err := manager.OpenJournal(standbyJournalPath)
	if err != nil {
		return nil, err
	}
	defer standbyJournal.Close()
	replService := manager.NewReplService(standbyJournal, 1)
	mgr1Disp := rpc.NewDispatcher()
	mgr1Disp.Host(rpc.HealthLOID, rpc.NewHealthService("mgr1", clk, mgr1Disp.Len))
	mgrLOID := naming.LOID{Domain: 0, Class: 2, Instance: 9}
	mgr1Disp.Host(mgrLOID, &manager.Object{Mgr: mgr1})
	mgr1Srv, err := net.Listen("mgr1", mgr1Disp)
	if err != nil {
		return nil, err
	}
	agent.Register(mgrLOID, naming.Address{Endpoint: mgr1Srv.Endpoint()})
	standbyDisp := rpc.NewDispatcher()
	standbyDisp.Host(rpc.MgrReplLOID, replService)
	standbySrv, err := net.Listen("mgr-standby", standbyDisp)
	if err != nil {
		return nil, err
	}
	shipper := &manager.JournalShipper{
		Dialer:   net.Dialer(), // manager-to-manager link, not under client faults
		Endpoint: standbySrv.Endpoint(),
		Epoch:    1,
		Timeout:  time.Second,
	}
	primaryJournal.SetSink(shipper.Ship)

	// --- Members and spares. ----------------------------------------------
	newMember := func(loid naming.LOID) (*core.DCDO, error) {
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(ctx, descV1, version.ID{1}); err != nil {
			return nil, err
		}
		return obj, nil
	}

	groupLOID := naming.LOID{Domain: 2, Class: 2, Instance: 1}
	groupEndpoints := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		obj, err := newMember(groupLOID)
		if err != nil {
			return nil, err
		}
		role := replica.RoleBackup
		if i == 0 {
			role = replica.RolePrimary
		}
		rep := replica.New(groupLOID, obj, dialer, role, 1, nil)
		rep.ShipTimeout = 250 * time.Millisecond
		disp := rpc.NewDispatcher()
		srv, err := net.Listen(fmt.Sprintf("g%d", i), disp)
		if err != nil {
			return nil, err
		}
		disp.Host(groupLOID, rep)
		groupEndpoints = append(groupEndpoints, srv.Endpoint())
	}
	group := replica.NewGroup(groupLOID, dialer, agent, groupEndpoints[0], groupEndpoints[1:])
	if _, err := replica.Call(ctx, group, groupEndpoints[0], replica.MethodPromote,
		replica.PromoteArgs{Epoch: 1, Backups: groupEndpoints[1:]}); err != nil {
		return nil, fmt.Errorf("e14: arm group primary: %w", err)
	}
	mgr1.RegisterReplicaGroup(groupLOID, group)

	soloLOID := naming.LOID{Domain: 2, Class: 2, Instance: 2}
	soloObj, err := newMember(soloLOID)
	if err != nil {
		return nil, err
	}
	soloRep := replica.New(soloLOID, soloObj, dialer, replica.RolePrimary, 1, nil)
	soloRep.ShipTimeout = 250 * time.Millisecond
	soloDisp := rpc.NewDispatcher()
	soloSrv, err := net.Listen("solo", soloDisp)
	if err != nil {
		return nil, err
	}
	soloDisp.Host(soloLOID, soloRep)
	soloGroup := replica.NewGroup(soloLOID, dialer, agent, soloSrv.Endpoint(), nil)
	mgr1.RegisterReplicaGroup(soloLOID, soloGroup)

	spares := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		disp := rpc.NewDispatcher()
		hs := &replica.HostService{
			Factory: func(loid naming.LOID) (replica.Inner, error) { return newMember(loid) },
			Dialer:  dialer,
			Host:    disp.Host,
		}
		disp.Host(rpc.ReplicaHostLOID, hs)
		srv, err := net.Listen(fmt.Sprintf("s%d", i), disp)
		if err != nil {
			return nil, err
		}
		spares = append(spares, srv.Endpoint())
	}

	// The group's declarative contract: stay at degree 3. The solo object
	// starts without a designation (implicit degree-1 default).
	groupPol := policy.Default()
	groupPol.Degree = 3
	if err := mgr1.SetPolicy(groupLOID, groupPol); err != nil {
		return nil, err
	}

	// Seed both counters before any fault.
	for i := 0; i < e14SeedBumps; i++ {
		if _, err := client.Invoke(ctx, groupLOID, "bump", nil); err != nil {
			return nil, fmt.Errorf("e14: seed bump %d: %w", i, err)
		}
	}
	for i := 0; i < e14SoloSeed; i++ {
		if _, err := client.Invoke(ctx, soloLOID, "bump", nil); err != nil {
			return nil, fmt.Errorf("e14: solo seed bump %d: %w", i, err)
		}
	}

	// --- Standby manager, watching the primary's health endpoint. ---------
	mgr2 := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	mgr2.SetJournal(standbyJournal)
	mgr2.SetPolicyPublisher(agent)
	standby := &manager.Standby{Mgr: mgr2, Service: replService}
	type takeoverResult struct {
		report manager.RecoveryReport
		epoch  uint64
		err    error
	}
	takeoverCh := make(chan takeoverResult, 1)
	monitorCtx, cancelMonitor := context.WithTimeout(ctx, 30*time.Second)
	defer cancelMonitor()
	go func() {
		rep, epoch, err := standby.Monitor(monitorCtx, &rpc.HealthClient{
			Dialer:   net.Dialer(),
			Endpoint: mgr1Srv.Endpoint(),
			Timeout:  10 * time.Millisecond,
		}, 2*time.Millisecond, 2)
		takeoverCh <- takeoverResult{rep, epoch, err}
	}()

	// --- The reconciler: the policy plane's convergence loop. -------------
	rec1 := &manager.Reconciler{Mgr: mgr1, Candidates: spares, Interval: 2 * time.Millisecond}
	rec1.Run()
	rec1Stopped := false
	stopRec1 := func() {
		if !rec1Stopped {
			rec1Stopped = true
			rec1.Stop()
		}
	}
	defer stopRec1()

	// --- Act I: kill a backup under load; the reconciler heals degree. ----
	var idemOK, idemFail atomic.Uint64
	var bumpOK, bumpAmbiguous, bumpOther atomic.Uint64
	stop := make(chan struct{})
	loadDone := make(chan struct{}, 2)
	go func() { // idempotent reader against the degree-3 group
		defer func() { loadDone <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, err := client.InvokeIdempotent(ctx, groupLOID, "total", nil)
			if err != nil {
				idemFail.Add(1)
			} else if n, derr := wire.NewDecoder(out).Uvarint(); derr != nil || n < e14SeedBumps {
				idemFail.Add(1)
			} else {
				idemOK.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // non-idempotent writer against the same group
		defer func() { loadDone <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := client.Invoke(ctx, groupLOID, "bump", nil)
			switch {
			case err == nil:
				bumpOK.Add(1)
			case errors.Is(err, rpc.ErrAmbiguousResult):
				bumpAmbiguous.Add(1)
			default:
				bumpOther.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
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
	close(stop)
	<-loadDone
	<-loadDone

	groupTotalOut, err := client.InvokeIdempotent(ctx, groupLOID, "total", nil)
	if err != nil {
		return nil, fmt.Errorf("e14: group total: %w", err)
	}
	groupTotal, err := wire.NewDecoder(groupTotalOut).Uvarint()
	if err != nil {
		return nil, err
	}
	minTotal := uint64(e14SeedBumps) + bumpOK.Load()
	maxTotal := minTotal + bumpAmbiguous.Load() + bumpOther.Load()

	// --- Act II: live retune over RPC — degree 1 -> 3, backup-ok reads. ---
	var soloReadOK, soloReadFail atomic.Uint64
	soloStop := make(chan struct{})
	soloDone := make(chan struct{})
	go func() { // continuous reader across the retune: the downtime probe
		defer close(soloDone)
		for {
			select {
			case <-soloStop:
				return
			default:
			}
			out, err := client.InvokeIdempotent(ctx, soloLOID, "total", nil)
			if err != nil {
				soloReadFail.Add(1)
			} else if n, derr := wire.NewDecoder(out).Uvarint(); derr != nil || n != e14SoloSeed {
				soloReadFail.Add(1)
			} else {
				soloReadOK.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
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
	close(soloStop)
	<-soloDone

	// Pick up the grown set (and the policy document riding the binding),
	// then measure where idempotent reads actually land.
	cache.Invalidate(soloLOID)
	statsBefore := client.Stats()
	measuredBad := 0
	for i := 0; i < e14MeasuredReads; i++ {
		out, err := client.InvokeIdempotent(ctx, soloLOID, "total", nil)
		if err != nil {
			return nil, fmt.Errorf("e14: measured read %d: %w", i, err)
		}
		if n, derr := wire.NewDecoder(out).Uvarint(); derr != nil || n != e14SoloSeed {
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
	stopRec1()
	soloDead := soloSet.Backups[len(soloSet.Backups)-1]
	faults.Partition(soloDead)
	if err := mgr1.Journal().Reconcile(soloLOID, "drop dead "+soloDead); err != nil {
		return nil, err
	}
	if err := primaryJournal.Close(); err != nil {
		return nil, err
	}
	if err := mgr1Srv.Close(); err != nil {
		return nil, err
	}

	var takeover takeoverResult
	select {
	case takeover = <-takeoverCh:
	case <-time.After(20 * time.Second):
		return nil, fmt.Errorf("e14: standby never took over")
	}
	if takeover.err != nil {
		return nil, fmt.Errorf("e14: takeover: %w", takeover.err)
	}
	fenceErr := shipper.Ship(manager.JournalRecord{Op: manager.OpMgrEpoch, Pass: 1})

	// Snapshot the journal the takeover compacted, before the successor's own
	// sweep appends fresh reconcile records to it.
	journalAfter, err := standbyJournal.Records()
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
	finalReadOut, err := client.InvokeIdempotent(ctx, soloLOID, "total", nil)
	if err != nil {
		return nil, fmt.Errorf("e14: read after takeover: %w", err)
	}
	finalRead, err := wire.NewDecoder(finalReadOut).Uvarint()
	if err != nil {
		return nil, err
	}

	rec1Stats := rec1.Stats()
	table := metrics.NewTable(
		"E14 — declarative distribution policy: heal, live retune, standby convergence",
		"act", "reads ok/fail", "writer ok/ambig/other", "outcome")
	table.AddRow("I: backup killed, degree healed",
		fmt.Sprintf("%d/%d", idemOK.Load(), idemFail.Load()),
		fmt.Sprintf("%d/%d/%d", bumpOK.Load(), bumpAmbiguous.Load(), bumpOther.Load()),
		fmt.Sprintf("healed in %s (gen %d), counter %d in [%d,%d]",
			metrics.FormatDuration(healCost), healedSet.Generation, groupTotal, minTotal, maxTotal))
	table.AddRow("II: live retune 1->3 backup-ok",
		fmt.Sprintf("%d/%d", soloReadOK.Load(), soloReadFail.Load()),
		"-",
		fmt.Sprintf("converged in %s, %.0f%% reads off-primary", metrics.FormatDuration(retuneCost), offPrimary*100))
	table.AddRow("III: manager killed mid-reconcile",
		"-", "-",
		fmt.Sprintf("takeover epoch %d, %d policies restored, sweep %d converged",
			takeover.epoch, takeover.report.Policies, sweepRep.Converged))

	checks := []Check{
		check("act I: reconciler heals replication degree to N on a spare after backup loss",
			len(healedSet.Endpoints()) == 3 && !healedSet.Contains(deadBackup) &&
				(healedSet.Contains(spares[0]) || healedSet.Contains(spares[1]) ||
					healedSet.Contains(spares[2]) || healedSet.Contains(spares[3])),
			"set=%+v", healedSet),
		check("act I: zero idempotent-read failures across the loss and the heal",
			idemOK.Load() > 0 && idemFail.Load() == 0,
			"ok=%d fail=%d", idemOK.Load(), idemFail.Load()),
		check("act I: counter consistent — every acked write applied, failures at most once",
			groupTotal >= minTotal && groupTotal <= maxTotal,
			"total=%d want [%d,%d]", groupTotal, minTotal, maxTotal),
		check("act I: writer failures in the window are ambiguous (applied locally, uncommitted), never hard errors",
			bumpOK.Load() > 0 && bumpOther.Load() == 0,
			"ok=%d ambiguous=%d other=%d", bumpOK.Load(), bumpAmbiguous.Load(), bumpOther.Load()),
		check("act I: convergence steps drove the repair (drop + heal journalled)",
			rec1Stats.Drops >= 1 && rec1Stats.Heals >= 1,
			"stats=%+v", rec1Stats),
		check("act II: policy round-trips over the manager RPC surface",
			gotOK && roundTripped.Equal(retunePol.Normalize()),
			"ok=%v doc=%q", gotOK, gotDoc),
		check("act II: zero downtime for the reader across the live retune",
			soloReadOK.Load() > 0 && soloReadFail.Load() == 0,
			"ok=%d fail=%d", soloReadOK.Load(), soloReadFail.Load()),
		check("act II: degree retuned 1 -> 3 by the reconciler",
			len(soloSet.Endpoints()) == 3,
			"set=%+v", soloSet),
		check(fmt.Sprintf("act II: >= %.0f%% of idempotent reads served off-primary under backup-ok", e14OffPrimaryFloor*100),
			offPrimary >= e14OffPrimaryFloor && measuredBad == 0,
			"offPrimary=%.2f (%d/%d), wrong values %d", offPrimary, backupDelta, idemDelta, measuredBad),
		check("act III: standby restored both policy documents from the shipped journal",
			takeover.report.Policies == 2 && takeover.epoch == 2,
			"policies=%d epoch=%d", takeover.report.Policies, takeover.epoch),
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
