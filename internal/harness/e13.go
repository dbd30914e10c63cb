package harness

import (
	"bytes"
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
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
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
func RunE13() (*Report, error) {
	dir, err := os.MkdirTemp("", "e13-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	primaryJournalPath := filepath.Join(dir, "primary.journal")
	standbyJournalPath := filepath.Join(dir, "standby.journal")
	imagePath := filepath.Join(dir, "store.image")
	ctx := context.Background()

	// --- Object type: greet via en (v1) or fr (v1.1), plus a replicated
	// counter component enabled in both versions. ------------------------
	reg := registry.New()
	icoEN := naming.LOID{Domain: 1, Class: 8, Instance: 1}
	icoFR := naming.LOID{Domain: 1, Class: 8, Instance: 2}
	icoCTR := naming.LOID{Domain: 1, Class: 8, Instance: 3}
	comps := make(map[naming.LOID]*component.Component)
	for _, c := range []struct {
		ico      naming.LOID
		id, ref  string
		greeting string
	}{{icoEN, "en", "en:1", "hello"}, {icoFR, "fr", "fr:1", "bonjour"}} {
		msg := c.greeting
		if _, err := reg.Register(c.ref, registry.NativeImplType, map[string]registry.Func{
			"greet": func(registry.Caller, []byte) ([]byte, error) { return []byte(msg), nil },
		}); err != nil {
			return nil, err
		}
		comp, err := component.NewSynthetic(component.Descriptor{
			ID: c.id, Revision: 1, CodeRef: c.ref,
			Impl: registry.NativeImplType, CodeSize: 32,
			Functions: []component.FunctionDecl{{Name: "greet", Exported: true}},
		})
		if err != nil {
			return nil, err
		}
		comps[c.ico] = comp
	}
	counterValue := func(c registry.Caller) uint64 {
		raw, ok := c.State().Get("n")
		if !ok {
			return 0
		}
		n, err := wire.NewDecoder(raw).Uvarint()
		if err != nil {
			return 0
		}
		return n
	}
	if _, err := reg.Register("counter:1", registry.NativeImplType, map[string]registry.Func{
		"bump": func(c registry.Caller, _ []byte) ([]byte, error) {
			e := wire.NewEncoder(8)
			e.PutUvarint(counterValue(c) + 1)
			c.State().Set("n", e.Bytes())
			return e.Bytes(), nil
		},
		"total": func(c registry.Caller, _ []byte) ([]byte, error) {
			e := wire.NewEncoder(8)
			e.PutUvarint(counterValue(c))
			return e.Bytes(), nil
		},
	}); err != nil {
		return nil, err
	}
	ctrComp, err := component.NewSynthetic(component.Descriptor{
		ID: "counter", Revision: 1, CodeRef: "counter:1",
		Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{
			{Name: "bump", Exported: true},
			{Name: "total", Exported: true},
		},
	})
	if err != nil {
		return nil, err
	}
	comps[icoCTR] = ctrComp
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		c, ok := comps[ico]
		if !ok {
			return nil, fmt.Errorf("e13: unknown ico %s", ico)
		}
		return c, nil
	})
	descEN := dfm.NewDescriptor()
	descEN.Components["en"] = dfm.ComponentRef{ICO: icoEN, CodeRef: "en:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	descEN.Components["fr"] = dfm.ComponentRef{ICO: icoFR, CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	descEN.Components["counter"] = dfm.ComponentRef{ICO: icoCTR, CodeRef: "counter:1", Impl: registry.NativeImplType, CodeSize: 64, Revision: 1}
	descEN.Entries = []dfm.EntryDesc{
		{Function: "greet", Component: "en", Exported: true, Enabled: true},
		{Function: "greet", Component: "fr", Exported: true, Enabled: false},
		{Function: "bump", Component: "counter", Exported: true, Enabled: true},
		{Function: "total", Component: "counter", Exported: true, Enabled: true},
	}

	// --- Primary manager: store with v1 (en) and v1.1 (fr). ---------------
	o := obs.New()
	mgr1 := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	mgr1.SetObs(o)
	root, err := mgr1.Store().CreateRoot(descEN)
	if err != nil {
		return nil, err
	}
	if err := mgr1.Store().MarkInstantiable(root); err != nil {
		return nil, err
	}
	child, err := mgr1.Store().Derive(root)
	if err != nil {
		return nil, err
	}
	err = mgr1.Store().Configure(child, func(d *dfm.Descriptor) error {
		d.Entry(dfm.EntryKey{Function: "greet", Component: "en"}).Enabled = false
		d.Entry(dfm.EntryKey{Function: "greet", Component: "fr"}).Enabled = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := mgr1.Store().MarkInstantiable(child); err != nil {
		return nil, err
	}
	target := child.Clone()

	var img bytes.Buffer
	if err := mgr1.Store().Save(&img); err != nil {
		return nil, err
	}
	if err := vault.WriteDurable(imagePath, img.Bytes()); err != nil {
		return nil, err
	}

	// --- Network, naming, client. -----------------------------------------
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	faults := transport.NewFaults(e13Seed)
	dialer := transport.NewFaultDialer(net.Dialer(), faults)
	client := rpc.NewClient(cache, dialer)
	client.ObserveStages(o.Metrics)
	// Generous rebind budget: a call that lands inside the failover window
	// must be able to chase the binding through trim -> not-primary ->
	// re-resolve cycles until the new primary is published.
	client.Retry = rpc.RetryPolicy{
		CallTimeout: 25 * time.Millisecond,
		MaxAttempts: 2,
		MaxRebinds:  16,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}

	// --- Journal shipping: primary journal streams to the standby. --------
	primaryJournal, err := manager.OpenJournal(primaryJournalPath)
	if err != nil {
		return nil, err
	}
	mgr1.SetJournal(primaryJournal)
	standbyJournal, err := manager.OpenJournal(standbyJournalPath)
	if err != nil {
		return nil, err
	}
	defer standbyJournal.Close()
	replService := manager.NewReplService(standbyJournal, 1)
	mgr1Disp := rpc.NewDispatcher()
	mgr1Disp.Host(rpc.HealthLOID, rpc.NewHealthService("mgr1", clk, mgr1Disp.Len))
	mgr1Srv, err := net.Listen("mgr1", mgr1Disp)
	if err != nil {
		return nil, err
	}
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

	// --- Plain fleet: three unreplicated DCDOs. ---------------------------
	plain := make([]naming.LOID, 0, e13PlainFleet)
	for i := uint64(1); i <= e13PlainFleet; i++ {
		obj := core.New(core.Config{
			LOID:     naming.LOID{Domain: 1, Class: 1, Instance: i},
			Registry: reg,
			Fetcher:  fetcher,
		})
		loid := obj.LOID()
		disp := rpc.NewDispatcher()
		disp.SetObs(o)
		srv, err := net.Listen(loid.String(), disp)
		if err != nil {
			return nil, err
		}
		disp.Host(loid, obj)
		agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
		if err := mgr1.CreateInstance(ctx, manager.RemoteInstance{Client: client, Target: loid},
			version.ID{1}, registry.NativeImplType); err != nil {
			return nil, err
		}
		plain = append(plain, loid)
	}

	// --- Replica group: three members behind one LOID. --------------------
	groupLOID := naming.LOID{Domain: 2, Class: 1, Instance: 1}
	descV1, err := mgr1.Store().InstantiableDescriptor(version.ID{1})
	if err != nil {
		return nil, err
	}
	memberEndpoints := make([]string, 0, 3)
	members := make(map[string]*core.DCDO, 3)
	for i := 0; i < 3; i++ {
		obj := core.New(core.Config{LOID: groupLOID, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(ctx, descV1, version.ID{1}); err != nil {
			return nil, err
		}
		role := replica.RoleBackup
		name := fmt.Sprintf("r%d", i)
		disp := rpc.NewDispatcher()
		disp.SetObs(o)
		srv, err := net.Listen(name, disp)
		if err != nil {
			return nil, err
		}
		endpoint := srv.Endpoint()
		memberEndpoints = append(memberEndpoints, endpoint)
		var backups []string
		if i == 0 {
			role = replica.RolePrimary
		}
		rep := replica.New(groupLOID, obj, dialer, role, 1, backups)
		rep.ShipTimeout = 250 * time.Millisecond
		disp.Host(groupLOID, rep)
		members[endpoint] = obj
	}
	// The initial primary learns its backups once every endpoint exists.
	group := replica.NewGroup(groupLOID, dialer, agent, memberEndpoints[0], memberEndpoints[1:])
	if _, err := rpc.DirectCall(ctx, dialer, memberEndpoints[0], groupLOID, replica.MethodPromote,
		replica.EncodePromoteArgs(1, memberEndpoints[1:]), time.Second); err != nil {
		return nil, fmt.Errorf("e13: arm initial primary: %w", err)
	}
	if err := mgr1.Adopt(ctx, manager.RemoteInstance{Client: client, Target: groupLOID}, registry.NativeImplType); err != nil {
		return nil, err
	}
	mgr1.RegisterReplicaGroup(groupLOID, group)

	// Seed the replicated counter and verify the shipment reached a backup.
	for i := 0; i < e13SeedBumps; i++ {
		if _, err := client.Invoke(ctx, groupLOID, "bump", nil); err != nil {
			return nil, fmt.Errorf("e13: seed bump %d: %w", i, err)
		}
	}
	backupStatus, err := group.Status(ctx, memberEndpoints[1])
	if err != nil {
		return nil, fmt.Errorf("e13: backup status: %w", err)
	}

	// --- Standby manager: pre-provisioned from the store image. -----------
	imgBytes, err := os.ReadFile(imagePath)
	if err != nil {
		return nil, err
	}
	store2, err := manager.LoadStore(bytes.NewReader(imgBytes))
	if err != nil {
		return nil, err
	}
	mgr2 := manager.NewWithStore(store2, evolution.MultiIncreasing, evolution.Explicit)
	mgr2.SetObs(o)
	mgr2.SetJournal(standbyJournal)
	for _, loid := range plain {
		if err := mgr2.Adopt(ctx, manager.RemoteInstance{Client: client, Target: loid}, registry.NativeImplType); err != nil {
			return nil, err
		}
	}
	if err := mgr2.Adopt(ctx, manager.RemoteInstance{Client: client, Target: groupLOID}, registry.NativeImplType); err != nil {
		return nil, err
	}
	// The standby's group view is attached now, before any failover; its
	// agent-backed Source and the members' own epochs keep it honest when it
	// acts after the eras move on without it.
	standbyGroup := replica.Attach(groupLOID, dialer, agent, agent.Set(groupLOID), 1)
	mgr2.RegisterReplicaGroup(groupLOID, standbyGroup)
	standby := &manager.Standby{Mgr: mgr2, Service: replService}

	// The standby watches the primary manager's node; it takes over on
	// consecutive missed probes.
	type takeoverResult struct {
		report manager.RecoveryReport
		epoch  uint64
		err    error
	}
	takeoverCh := make(chan takeoverResult, 1)
	monitorCtx, cancelMonitor := context.WithTimeout(ctx, 10*time.Second)
	defer cancelMonitor()
	go func() {
		rep, epoch, err := standby.Monitor(monitorCtx, &rpc.HealthClient{
			Dialer:   net.Dialer(),
			Endpoint: mgr1Srv.Endpoint(),
			Timeout:  10 * time.Millisecond,
		}, 2*time.Millisecond, 2)
		takeoverCh <- takeoverResult{rep, epoch, err}
	}()

	// --- Load: an idempotent reader and a non-idempotent writer. ----------
	var idemOK, idemFail atomic.Uint64
	var bumpOK, bumpAmbiguous, bumpOther atomic.Uint64
	stop := make(chan struct{})
	loadDone := make(chan struct{}, 2)
	go func() { // idempotent reader
		defer func() { loadDone <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, err := client.InvokeIdempotent(ctx, groupLOID, "greet", nil)
			if err != nil || (string(out) != "hello" && string(out) != "bonjour") {
				idemFail.Add(1)
			} else {
				idemOK.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // non-idempotent writer
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
	crashRep, err := mgr1.EvolveFleetPartial(ctx, target, e13Applies)
	if err != nil {
		return nil, fmt.Errorf("e13: crashed pass: %w", err)
	}
	// The crash: journal handle closes with the pass open, the health
	// endpoint goes dark, and manager #1 is abandoned.
	if err := primaryJournal.Close(); err != nil {
		return nil, err
	}
	if err := mgr1Srv.Close(); err != nil {
		return nil, err
	}

	var takeover takeoverResult
	select {
	case takeover = <-takeoverCh:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("e13: standby never took over")
	}
	if takeover.err != nil {
		return nil, fmt.Errorf("e13: takeover: %w", takeover.err)
	}

	// The deposed manager's next shipment is fenced by the epoch bump.
	fenceErr := shipper.Ship(manager.JournalRecord{Op: manager.OpMgrEpoch, Pass: 1})

	// Let the load observe the evolved group before stopping.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-loadDone
	<-loadDone

	// --- Verdicts ---------------------------------------------------------
	journalAfter, err := standbyJournal.Records()
	if err != nil {
		return nil, err
	}
	convergedPlain := 0
	for _, loid := range plain {
		out, err := client.InvokeIdempotent(ctx, loid, "greet", nil)
		if err != nil || string(out) != "bonjour" {
			continue
		}
		rec, err := mgr2.RecordOf(loid)
		if err != nil || !rec.Version.Equal(target) {
			continue
		}
		convergedPlain++
	}
	groupGreet, err := client.InvokeIdempotent(ctx, groupLOID, "greet", nil)
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
	totalOut, err := client.InvokeIdempotent(ctx, groupLOID, "total", nil)
	if err != nil {
		return nil, fmt.Errorf("e13: total: %w", err)
	}
	total, err := wire.NewDecoder(totalOut).Uvarint()
	if err != nil {
		return nil, err
	}
	minTotal := uint64(e13SeedBumps) + bumpOK.Load()
	maxTotal := minTotal + bumpAmbiguous.Load()

	table := metrics.NewTable(
		"E13 — primary replica and primary manager killed mid-load",
		"phase", "idempotent ok/fail", "writer ok/ambig/other", "outcome")
	table.AddRow("replica failover",
		"-", "-",
		fmt.Sprintf("%s in %s (gen %d)", newPrimary, metrics.FormatDuration(failoverCost), setAfterFailover.Generation))
	table.AddRow("manager takeover",
		"-", "-",
		fmt.Sprintf("epoch %d, %d pass(es), resumed %d", takeover.epoch, takeover.report.Passes, len(takeover.report.Resumed)))
	table.AddRow("full run",
		fmt.Sprintf("%d/%d", idemOK.Load(), idemFail.Load()),
		fmt.Sprintf("%d/%d/%d", bumpOK.Load(), bumpAmbiguous.Load(), bumpOther.Load()),
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
			idemOK.Load() > 0 && idemFail.Load() == 0,
			"ok=%d fail=%d", idemOK.Load(), idemFail.Load()),
		check("non-idempotent traffic: bounded ambiguity, no other failures",
			bumpOK.Load() > 0 && bumpOther.Load() == 0 && bumpAmbiguous.Load() <= e13AmbiguityBound,
			"ok=%d ambiguous=%d other=%d", bumpOK.Load(), bumpAmbiguous.Load(), bumpOther.Load()),
		check("counter: every acked write applied exactly once, ambiguous writes at most once",
			total >= minTotal && total <= maxTotal,
			"total=%d want [%d,%d]", total, minTotal, maxTotal),
		check("crashed pass halted before the replicated LOID",
			crashRep.Halted && len(crashRep.Evolved) == e13Applies,
			"report=%+v", crashRep),
		check("standby takeover: fenced epoch bump, interrupted pass finished",
			takeover.epoch == 2 && takeover.report.Passes == 1 &&
				len(takeover.report.Resumed) == 2 && len(takeover.report.Quarantined) == 0,
			"epoch=%d report=%+v", takeover.epoch, takeover.report),
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
				journalAfter[1].Op == manager.OpMgrEpoch && journalAfter[1].Pass == takeover.epoch,
			"journal=%+v", journalAfter),
	}

	return &Report{
		ID:     "E13",
		Title:  "replica + manager failover under load: zero idempotent failures, bounded ambiguity, zero-downtime evolution",
		Table:  table,
		Extras: []*metrics.Table{stageBreakdown(o.Metrics)},
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
