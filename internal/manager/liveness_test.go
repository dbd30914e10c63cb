package manager

import (
	"context"

	"testing"
	"time"

	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// liveEnv hosts three DCDOs on separate inproc endpoints behind a seeded
// fault-injecting dialer, managed as remote instances — the smallest
// topology where one instance can be partitioned while the rest stay
// reachable.
type liveEnv struct {
	mgr    *Manager
	faults *transport.Faults
	loids  []naming.LOID
	eps    map[naming.LOID]string
	obs    *obs.Obs
}

func newLiveEnv(t *testing.T, f *fixture) *liveEnv {
	t.Helper()
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	faults := transport.NewFaults(1)
	client := rpc.NewClient(cache, transport.NewFaultDialer(net.Dialer(), faults))
	// Short timeouts: a partitioned endpoint must fail a probe in
	// milliseconds, not the default seconds.
	client.Retry = rpc.RetryPolicy{
		CallTimeout: 20 * time.Millisecond,
		MaxAttempts: 2,
		MaxRebinds:  1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}

	o := obs.New()
	mgr := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	mgr.SetObs(o)

	env := &liveEnv{mgr: mgr, faults: faults, eps: make(map[naming.LOID]string), obs: o}
	for i := 0; i < 3; i++ {
		obj := f.newDCDO()
		loid := obj.LOID()
		disp := rpc.NewDispatcher()
		srv, err := net.Listen(loid.String(), disp)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		disp.Host(loid, obj)
		agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
		env.eps[loid] = srv.Endpoint()

		inst := RemoteInstance{Client: client, Target: loid}
		if err := mgr.CreateInstance(context.Background(), inst, v(1), registry.NativeImplType); err != nil {
			t.Fatalf("create %s: %v", loid, err)
		}
		env.loids = append(env.loids, loid)
	}
	return env
}

func (e *liveEnv) hasEvent(kind string, loid naming.LOID) bool {
	for _, ev := range e.obs.GetEvents().Recent(256) {
		if ev.Kind == kind && ev.Object == loid.String() {
			return true
		}
	}
	return false
}

// TestFleetEvolutionQuarantinesPartitionedInstance is the quarantine
// semantics contract: a fleet pass with one partitioned instance evolves
// the reachable majority, quarantines (and reports) the partitioned one
// with a `quarantined` event, and the prober converges it after heal.
func TestFleetEvolutionQuarantinesPartitionedInstance(t *testing.T) {
	f := newFixture(t)
	env := newLiveEnv(t, f)
	m := env.mgr
	victim := env.loids[1]
	env.faults.Partition(env.eps[victim])

	if err := m.SetCurrentVersion(context.Background(), v(1, 1)); err != nil {
		t.Fatalf("set current: %v", err)
	}
	rep, err := m.EvolveFleet(context.Background(), v(1, 1), nil)
	if err != nil {
		t.Fatalf("fleet pass: %v", err)
	}
	if len(rep.Evolved) != 2 || len(rep.Skipped) != 1 || rep.Skipped[0] != victim {
		t.Fatalf("fleet report = %+v, want 2 evolved + victim skipped", rep)
	}
	if q, reason := m.IsQuarantined(victim); !q || reason == "" {
		t.Fatalf("victim not quarantined (q=%v reason=%q)", q, reason)
	}
	if !env.hasEvent("quarantined", victim) {
		t.Fatal("no quarantined event emitted")
	}
	for _, loid := range rep.Evolved {
		rec, err := m.RecordOf(loid)
		if err != nil || !rec.Version.Equal(v(1, 1)) {
			t.Fatalf("evolved record %s = %+v (%v)", loid, rec, err)
		}
	}
	// The quarantined victim's record still shows the old version.
	if rec, _ := m.RecordOf(victim); !rec.Version.Equal(v(1)) {
		t.Fatalf("victim record = %s, want untouched %s", rec.Version, v(1))
	}

	// A second pass skips the quarantined instance outright: it is not in
	// the plan, so the pass succeeds without probing the dead endpoint.
	rep2, err := m.EvolveFleet(context.Background(), v(1, 1), nil)
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if len(rep2.Evolved) != 2 || len(rep2.Skipped) != 0 {
		t.Fatalf("second pass = %+v, want quarantined instance excluded", rep2)
	}

	// While partitioned, the prober keeps it quarantined (backoff defers
	// repeat probes rather than hammering the dead endpoint).
	prober := &Prober{Mgr: m, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if _, err := prober.Sweep(context.Background()); err != nil {
		t.Fatalf("sweep during partition: %v", err)
	}
	if q, _ := m.IsQuarantined(victim); !q {
		t.Fatal("victim unquarantined while still partitioned")
	}

	// Heal: the next probe (after backoff) observes the instance alive and
	// re-converges it to the current version.
	env.faults.Heal(env.eps[victim])
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep, err := prober.Sweep(context.Background())
		if err != nil {
			t.Fatalf("sweep after heal: %v", err)
		}
		if len(rep.Reconverged) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never reconverged after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if q, _ := m.IsQuarantined(victim); q {
		t.Fatal("victim still quarantined after reconvergence")
	}
	rec, err := m.RecordOf(victim)
	if err != nil || !rec.Version.Equal(v(1, 1)) {
		t.Fatalf("victim record after heal = %+v (%v), want %s", rec, err, v(1, 1))
	}
	actual, err := m.instanceProbe(context.Background(), victim, v(1, 1))
	if err != nil || !actual.Equal(v(1, 1)) {
		t.Fatalf("victim actual version = %s (%v), want %s", actual, err, v(1, 1))
	}
	if !env.hasEvent("reconverged", victim) {
		t.Fatal("no reconverged event emitted")
	}
	if !env.hasEvent("unquarantined", victim) {
		t.Fatal("no unquarantined event emitted")
	}
}

// TestProberPrunesDroppedInstanceState is the regression test for the
// probe-state leak: state for a dropped LOID must disappear on the next
// sweep, and a re-created instance under the same LOID must start with a
// clean failure count rather than inheriting the old incarnation's backoff.
func TestProberPrunesDroppedInstanceState(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	loid := naming.LOID{Domain: 9, Class: 3, Instance: 7}
	dead := &flakyInstance{loid: loid, ver: v(1)}
	dead.down.Store(true)
	if err := m.AdoptUnverified(dead, registry.NativeImplType, v(1), "down"); err != nil {
		t.Fatalf("adopt unverified: %v", err)
	}

	clk := vclock.NewVirtual(time.Unix(0, 0))
	// Threshold 2: one failure accumulates state without quarantining, so
	// inherited state would visibly mis-quarantine a fresh instance.
	p := &Prober{Mgr: m, Clock: clk, FailureThreshold: 2, BaseBackoff: 10 * time.Millisecond}
	if _, err := p.Sweep(context.Background()); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	p.mu.Lock()
	_, tracked := p.state[loid]
	p.mu.Unlock()
	if !tracked {
		t.Fatal("failing instance has no probe state after sweep")
	}

	// Drop the instance; the next sweep must prune its state even though the
	// LOID never gets probed again.
	m.Drop(loid)
	clk.Advance(time.Minute)
	if _, err := p.Sweep(context.Background()); err != nil {
		t.Fatalf("sweep after drop: %v", err)
	}
	p.mu.Lock()
	leaked := len(p.state)
	p.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("probe state leaked for %d dropped LOIDs", leaked)
	}

	// Re-create the LOID as a healthy instance: one failure of the *old*
	// incarnation must not count against the new one, so a single transient
	// failure now stays below the threshold.
	fresh := &flakyInstance{loid: loid, ver: v(1)}
	fresh.down.Store(true)
	if err := m.AdoptUnverified(fresh, registry.NativeImplType, v(1), "fresh"); err != nil {
		t.Fatalf("re-adopt: %v", err)
	}
	rep, err := p.Sweep(context.Background())
	if err != nil {
		t.Fatalf("sweep of fresh instance: %v", err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("fresh instance crossed the quarantine threshold on first failure: inherited stale probe state (report %+v)", rep)
	}
	p.mu.Lock()
	st := p.state[loid]
	p.mu.Unlock()
	if st == nil || st.failures != 1 {
		t.Fatalf("fresh instance probe state = %+v, want exactly 1 failure", st)
	}
}

// TestProberBackoffDefersProbes pins the backoff contract: consecutive
// failures stretch the window between probes of a dead instance.
func TestProberBackoffDefersProbes(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	dead := &flakyInstance{loid: naming.LOID{Domain: 9, Class: 3, Instance: 1}, ver: v(1)}
	dead.down.Store(true)
	if err := m.Adopt(context.Background(), dead, registry.NativeImplType); err == nil {
		// Adopt probes; a down instance cannot be adopted this way.
		t.Fatal("adopt of a down instance unexpectedly succeeded")
	}
	if err := m.AdoptUnverified(dead, registry.NativeImplType, v(1), "down"); err != nil {
		t.Fatalf("adopt unverified: %v", err)
	}

	clk := vclock.NewVirtual(time.Unix(0, 0))
	p := &Prober{Mgr: m, Clock: clk, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}

	rep, err := p.Sweep(context.Background())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(rep.Probed) != 1 {
		t.Fatalf("first sweep probed %v, want the dead instance", rep.Probed)
	}
	// Within the backoff window the instance is deferred, not re-probed.
	rep, _ = p.Sweep(context.Background())
	if len(rep.Deferred) != 1 || len(rep.Probed) != 0 {
		t.Fatalf("second sweep = %+v, want deferred", rep)
	}
	// After the window it is probed again.
	clk.Advance(150 * time.Millisecond)
	rep, _ = p.Sweep(context.Background())
	if len(rep.Probed) != 1 {
		t.Fatalf("post-backoff sweep = %+v, want probe", rep)
	}
	// Recovery: instance comes back, probe succeeds, quarantine lifts.
	dead.down.Store(false)
	clk.Advance(time.Second)
	rep, err = p.Sweep(context.Background())
	if err != nil {
		t.Fatalf("sweep after recovery: %v", err)
	}
	if len(rep.Reconverged) != 1 {
		t.Fatalf("recovery sweep = %+v, want reconverged", rep)
	}
	if q, _ := m.IsQuarantined(dead.loid); q {
		t.Fatal("instance still quarantined after recovery")
	}
}
