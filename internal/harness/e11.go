package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
	"godcdo/internal/rpc"
	"godcdo/internal/supervisor"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
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
func RunE11() (*Report, error) {
	dir, err := os.MkdirTemp("", "e11-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journalPath := filepath.Join(dir, "evolution.journal")
	imagePath := filepath.Join(dir, "store.image")

	// --- Object type: greet via en (v1), fr-slow (v1.1), or de (v1.2). ----
	reg := registry.New()
	icos := map[string]naming.LOID{
		"en": {Domain: 1, Class: 8, Instance: 1},
		"fr": {Domain: 1, Class: 8, Instance: 2},
		"de": {Domain: 1, Class: 8, Instance: 3},
	}
	comps := make(map[naming.LOID]*component.Component)
	for _, c := range []struct {
		id, ref, greeting string
		delay             time.Duration
	}{
		{"en", "en:1", "hello", 0},
		{"fr", "fr:1", "bonjour", e11SlowLatency}, // the per-version fault
		{"de", "de:1", "guten tag", 0},
	} {
		msg, delay := c.greeting, c.delay
		if _, err := reg.Register(c.ref, registry.NativeImplType, map[string]registry.Func{
			"greet": func(registry.Caller, []byte) ([]byte, error) {
				if delay > 0 {
					time.Sleep(delay)
				}
				return []byte(msg), nil
			},
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
		comps[icos[c.id]] = comp
	}
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		c, ok := comps[ico]
		if !ok {
			return nil, fmt.Errorf("e11: unknown ico %s", ico)
		}
		return c, nil
	})
	baseDesc := dfm.NewDescriptor()
	for id, ico := range icos {
		baseDesc.Components[id] = dfm.ComponentRef{ICO: ico, CodeRef: id + ":1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	}
	baseDesc.Entries = []dfm.EntryDesc{
		{Function: "greet", Component: "en", Exported: true, Enabled: true},
		{Function: "greet", Component: "fr", Exported: true, Enabled: false},
		{Function: "greet", Component: "de", Exported: true, Enabled: false},
	}
	enable := func(only string) func(*dfm.Descriptor) error {
		return func(d *dfm.Descriptor) error {
			for _, id := range []string{"en", "fr", "de"} {
				d.Entry(dfm.EntryKey{Function: "greet", Component: id}).Enabled = id == only
			}
			return nil
		}
	}

	// --- Manager: v1 (en), v1.1 (fr, slow), v1.2 (de), all instantiable. --
	o := obs.New()
	mgr := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	mgr.SetObs(o)
	root, err := mgr.Store().CreateRoot(baseDesc)
	if err != nil {
		return nil, err
	}
	if err := mgr.Store().MarkInstantiable(root); err != nil {
		return nil, err
	}
	var children []version.ID
	for _, impl := range []string{"fr", "de"} {
		child, err := mgr.Store().Derive(root)
		if err != nil {
			return nil, err
		}
		if err := mgr.Store().Configure(child, enable(impl)); err != nil {
			return nil, err
		}
		if err := mgr.Store().MarkInstantiable(child); err != nil {
			return nil, err
		}
		children = append(children, child.Clone())
	}
	badVersion, goodVersion := children[0], children[1]

	var img bytes.Buffer
	if err := mgr.Store().Save(&img); err != nil {
		return nil, err
	}
	if err := vault.WriteDurable(imagePath, img.Bytes()); err != nil {
		return nil, err
	}
	journal, err := manager.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	mgr.SetJournal(journal)

	// --- Fleet: six DCDOs on separate inproc endpoints. -------------------
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	client := rpc.NewClient(cache, net.Dialer())
	client.ObserveStages(o.Metrics)
	o.Metrics.RegisterCounters("client.e11", client.Metrics())

	loids := make([]naming.LOID, 0, e11Fleet)
	instances := make([]manager.RemoteInstance, 0, e11Fleet)
	for i := uint64(1); i <= e11Fleet; i++ {
		obj := core.New(core.Config{
			LOID:     naming.LOID{Domain: 1, Class: 1, Instance: i},
			Registry: reg,
			Fetcher:  fetcher,
		})
		loid := obj.LOID()
		disp := rpc.NewDispatcher()
		srv, err := net.Listen(loid.String(), disp)
		if err != nil {
			return nil, err
		}
		disp.Host(loid, obj)
		agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
		inst := manager.RemoteInstance{Client: client, Target: loid}
		if err := mgr.CreateInstance(context.Background(), inst, root, registry.NativeImplType); err != nil {
			return nil, err
		}
		loids = append(loids, loid)
		instances = append(instances, inst)
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		return nil, err
	}

	// --- Client workload: continuous round-robin greet invokes. -----------
	var calls, failures atomic.Uint64
	stopWorkload := make(chan struct{})
	var workloadWG sync.WaitGroup
	workloadWG.Add(1)
	go func() {
		defer workloadWG.Done()
		i := 0
		for {
			select {
			case <-stopWorkload:
				return
			default:
			}
			loid := loids[i%len(loids)]
			i++
			calls.Add(1)
			if _, err := client.InvokeIdempotent(context.Background(), loid, "greet", nil); err != nil {
				// §3.2: calls racing a mid-flight evolution may observe the
				// function transiently disabled and must tolerate it. A
				// failure counts only if it survives a few quick retries —
				// that is actual downtime, not a reconfiguration window.
				recovered := false
				for r := 0; r < 5 && !recovered; r++ {
					time.Sleep(time.Millisecond)
					_, err2 := client.InvokeIdempotent(context.Background(), loid, "greet", nil)
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
		select {
		case <-stopWorkload:
		default:
			close(stopWorkload)
		}
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
	sup2 := &supervisor.Supervisor{Mgr: mgr, Reg: o.Metrics, Obs: o, CrashMidWave: 2}
	err = sup2.Start(context.Background(), supervisor.Policy{
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
	if err := journal.Close(); err != nil {
		return nil, err
	}

	// --- Act III: restart from disk; Resume completes the rollout. --------
	imgBytes, err := os.ReadFile(imagePath)
	if err != nil {
		return nil, err
	}
	store, err := manager.LoadStore(bytes.NewReader(imgBytes))
	if err != nil {
		return nil, err
	}
	mgr2 := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
	mgr2.SetObs(o)
	for _, inst := range instances {
		if err := mgr2.Adopt(context.Background(), inst, registry.NativeImplType); err != nil {
			return nil, err
		}
	}
	journal2, err := manager.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	defer journal2.Close()
	mgr2.SetJournal(journal2)

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

	close(stopWorkload)
	workloadWG.Wait()
	totalCalls, totalFailures := calls.Load(), failures.Load()

	// Converged = every instance answers greet with the v1.2 implementation
	// and its record matches.
	converged := 0
	for _, loid := range loids {
		out, err := client.InvokeIdempotent(context.Background(), loid, "greet", nil)
		if err != nil || string(out) != "guten tag" {
			continue
		}
		rec, err := mgr2.RecordOf(loid)
		if err != nil || !rec.Version.Equal(goodVersion) {
			continue
		}
		converged++
	}
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
			"crash simulated with CrashMidWave: one wave instance applied through the journalled pass, no done record",
			"restart rebuilds the manager from the persisted store image; Resume reconstructs the rollout from journal records",
		},
		Checks: checks,
	}, nil
}
