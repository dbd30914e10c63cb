package supervisor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/testbed"
	"godcdo/internal/transport"
)

// workload feeds a registry's latency histogram and call counters from a
// background goroutine, standing in for real client traffic.
type workload struct {
	reg     *metrics.Registry
	latency atomic.Int64 // nanoseconds each synthetic call "takes"
	failing atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

func startWorkload(reg *metrics.Registry, latency time.Duration) *workload {
	w := &workload{reg: reg, stop: make(chan struct{})}
	w.latency.Store(int64(latency))
	cs := metrics.NewCounterSet()
	reg.RegisterCounters("client.test", cs)
	hist := reg.Histogram("client.invoke")
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				hist.Observe(time.Duration(w.latency.Load()))
				cs.Counter("calls").Inc()
				if w.failing.Load() {
					cs.Counter("errors").Inc()
				}
			}
		}
	}()
	return w
}

func (w *workload) Stop() {
	close(w.stop)
	w.wg.Wait()
}

func testPolicy() Policy {
	return Policy{
		Name:          "test",
		Target:        v(1, 1),
		CanarySize:    1,
		WaveWidths:    []int{2},
		BakeTime:      20 * time.Millisecond,
		ProbeInterval: 2 * time.Millisecond,
		SLO: SLO{
			LatencyHistogram: "client.invoke",
			MaxP99:           time.Millisecond,
			ErrorCounters:    "client.test",
			MaxErrorRate:     0.05,
			MinSamples:       5,
		},
	}
}

func waitStatus(t *testing.T, sup *Supervisor) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	st, err := sup.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v (status %+v)", err, st)
	}
	return st
}

func fleetVersions(t *testing.T, m *manager.Manager) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, rec := range m.Records() {
		out[rec.Version.String()]++
	}
	return out
}

func TestRolloutCompletesThroughWaves(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t)
	f.populate(t, m, 5)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond) // healthy: well under MaxP99
	defer w.Stop()

	o := obs.New()
	hub := NewHub()
	hub.Bind(o.GetEvents())
	events, cancelSub := hub.Subscribe(256)

	sup := &Supervisor{Mgr: m, Reg: reg, Obs: o, Hub: hub}
	if err := sup.Start(context.Background(), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sup.Start(context.Background(), testPolicy()); err != ErrRolloutActive {
		t.Fatalf("second Start = %v, want ErrRolloutActive", err)
	}
	st := waitStatus(t, sup)
	if st.Phase != PhaseCompleted {
		t.Fatalf("terminal phase = %q (%+v)", st.Phase, st)
	}
	// Canary (1) + waves of 2: 5 instances in 3 waves.
	if st.Wave != 3 || len(st.Promoted) != 5 {
		t.Fatalf("waves=%d promoted=%d, want 3 waves covering 5 instances", st.Wave, len(st.Promoted))
	}
	if got := fleetVersions(t, m); got["1.1"] != 5 {
		t.Fatalf("fleet versions = %v, want all at 1.1", got)
	}
	if cur, _ := m.CurrentVersion(); !cur.Equal(v(1, 1)) {
		t.Fatalf("current = %s, want 1.1", cur)
	}
	// The hub carried the rollout's event stream.
	cancelSub()
	seen := make(map[string]bool)
	for ev := range events {
		seen[ev.Kind] = true
	}
	for _, kind := range []string{"rollout-started", "rollout-promoted", "rollout-completed"} {
		if !seen[kind] {
			t.Fatalf("hub missed event %q (saw %v)", kind, seen)
		}
	}
}

func TestRolloutRollsBackOnSLOBreach(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t)
	f.populate(t, m, 4)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 10*time.Millisecond) // 10ms p99 >> 1ms threshold
	defer w.Stop()

	sup := &Supervisor{Mgr: m, Reg: reg, Obs: obs.New()}
	if err := sup.Start(context.Background(), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st := waitStatus(t, sup)
	if st.Phase != PhaseRolledBack {
		t.Fatalf("terminal phase = %q (%+v)", st.Phase, st)
	}
	if got := fleetVersions(t, m); got["1"] != 4 {
		t.Fatalf("fleet versions = %v, want all back at baseline 1", got)
	}
	if cur, _ := m.CurrentVersion(); !cur.Equal(v(1)) {
		t.Fatalf("current = %s, want baseline 1 untouched", cur)
	}
	if st.Err == "" {
		t.Fatal("rolled-back status carries no breach reason")
	}
}

func TestRolloutRollsBackOnErrorRate(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t)
	f.populate(t, m, 3)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond)
	w.failing.Store(true) // every call errors: rate 1.0 >> 0.05
	defer w.Stop()

	sup := &Supervisor{Mgr: m, Reg: reg}
	if err := sup.Start(context.Background(), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st := waitStatus(t, sup)
	if st.Phase != PhaseRolledBack {
		t.Fatalf("terminal phase = %q (%+v)", st.Phase, st)
	}
	if got := fleetVersions(t, m); got["1"] != 3 {
		t.Fatalf("fleet versions = %v, want all back at baseline", got)
	}
}

func TestRolloutResumesAfterMidWaveCrash(t *testing.T) {
	f := newFixture(t)
	m, j, path := f.newJournalledManager(t)
	insts := f.populate(t, m, 5)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond)
	defer w.Stop()

	// The supervisor dies mid-wave 2: canary promoted, then one of the
	// second wave's two instances applied with the pass left open.
	o := obs.New()
	m.SetObs(o)
	sup := &Supervisor{Mgr: m, Reg: reg, Obs: o}
	if err := sup.Start(testbed.CancelAfter(o.Events, "evolved", 2, nil), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st := waitStatus(t, sup)
	if st.Phase == PhaseCompleted || st.Phase == PhaseRolledBack {
		t.Fatalf("crashed rollout reached terminal phase %q", st.Phase)
	}
	if len(st.Promoted) != 1 {
		t.Fatalf("promoted before crash = %d, want just the canary", len(st.Promoted))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	// "Restart": a fresh manager over an identical store image, the
	// reopened journal, and the same (re-adopted) instances.
	m2 := f.newBareManager(t)
	j2, err := manager.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j2.Close()
	m2.SetJournal(j2)
	for _, inst := range insts {
		if err := m2.Adopt(context.Background(), inst, registry.NativeImplType); err != nil {
			t.Fatalf("re-adopt %s: %v", inst.LOID(), err)
		}
	}

	sup2 := &Supervisor{Mgr: m2, Reg: reg}
	resumed, err := sup2.Resume(context.Background())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !resumed {
		t.Fatal("Resume found no open rollout")
	}
	st2 := waitStatus(t, sup2)
	if st2.Phase != PhaseCompleted {
		t.Fatalf("resumed rollout terminal phase = %q (%+v)", st2.Phase, st2)
	}
	if got := fleetVersions(t, m2); got["1.1"] != 5 {
		t.Fatalf("fleet versions after resume = %v, want all at 1.1", got)
	}
	if cur, _ := m2.CurrentVersion(); !cur.Equal(v(1, 1)) {
		t.Fatalf("current after resume = %s, want 1.1", cur)
	}
	// A second Resume finds nothing: the rollout closed.
	if again, err := sup2.Resume(context.Background()); err != nil || again {
		t.Fatalf("second Resume = (%v, %v), want (false, nil)", again, err)
	}
}

// rolloutDone reports whether j holds a rollout-done record, and with which
// disposition.
func rolloutDone(t *testing.T, j *manager.Journal) (bool, string) {
	t.Helper()
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op == manager.OpRolloutDone {
			return true, r.Reason
		}
	}
	return false, ""
}

// TestRolloutEndedCtxDuringBakeResumes: a rollout whose ctx ends while its
// canary bakes stops as a killed process would — nothing more journalled,
// the canary left on the target, the rollout open — and Resume, not a
// retreat under the dead ctx, finishes it.
func TestRolloutEndedCtxDuringBakeResumes(t *testing.T) {
	f := newFixture(t)
	m, j, _ := f.newJournalledManager(t)
	f.populate(t, m, 3)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond)
	defer w.Stop()

	o := obs.New()
	m.SetObs(o)
	sup := &Supervisor{Mgr: m, Reg: reg, Obs: o}
	if err := sup.Start(testbed.CancelAfter(o.Events, "rollout-wave", 1, nil), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if st := waitStatus(t, sup); st.Phase != PhaseFailed {
		t.Fatalf("phase after the ctx ended = %q (%+v), want %q", st.Phase, st, PhaseFailed)
	}
	if done, how := rolloutDone(t, j); done {
		t.Fatalf("an ended ctx journalled rollout-done %q", how)
	}
	if got := fleetVersions(t, m); got["1"] != 2 || got["1.1"] != 1 {
		t.Fatalf("fleet = %v, want the canary alone on 1.1", got)
	}

	resumed, err := sup.Resume(context.Background())
	if err != nil || !resumed {
		t.Fatalf("Resume = (%v, %v), want the open rollout resumed", resumed, err)
	}
	if st := waitStatus(t, sup); st.Phase != PhaseCompleted {
		t.Fatalf("resumed rollout terminal phase = %q (%+v)", st.Phase, st)
	}
	if got := fleetVersions(t, m); got["1.1"] != 3 {
		t.Fatalf("fleet after resume = %v, want all at 1.1", got)
	}
}

// TestRolloutResumeKeepsWaveWidths: a rollout stopped after its canary's
// promotion resumes at the policy's next wave, not at the wave numbered by
// its promoted instances: canary 2, then waves of 1, 3 and 1.
func TestRolloutResumeKeepsWaveWidths(t *testing.T) {
	f := newFixture(t)
	m, j, _ := f.newJournalledManager(t)
	f.populate(t, m, 7)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond)
	defer w.Stop()

	policy := testPolicy()
	policy.CanarySize = 2
	policy.WaveWidths = []int{1, 3, 5}
	o := obs.New()
	m.SetObs(o)
	sup := &Supervisor{Mgr: m, Reg: reg, Obs: o}
	if err := sup.Start(testbed.CancelAfter(o.Events, "rollout-promoted", 1, nil), policy); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if st := waitStatus(t, sup); st.Phase != PhaseFailed || st.Wave != 1 {
		t.Fatalf("stopped rollout = %+v, want failed after the canary", st)
	}
	if resumed, err := sup.Resume(context.Background()); err != nil || !resumed {
		t.Fatalf("Resume = (%v, %v)", resumed, err)
	}
	st := waitStatus(t, sup)
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	var widths []int
	for _, r := range recs {
		if r.Op == manager.OpRolloutWave {
			widths = append(widths, len(r.Planned))
		}
	}
	if st.Phase != PhaseCompleted || !reflect.DeepEqual(widths, []int{2, 1, 3, 1}) || st.Wave != len(widths) {
		t.Fatalf("resumed rollout = %+v with promoted waves %v, want completed in waves [2 1 3 1]", st, widths)
	}
}

// TestRolloutFailedRetreatStaysOpen: a retreat whose rollback pass does not
// move an instance — the move refused, or the instance unreachable and
// quarantined — leaves the rollout open and failed, the instance still on
// the target; Resume retreats again, quarantined or not, and closes it.
func TestRolloutFailedRetreatStaysOpen(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"refused", errors.New("test: move to version 1 refused")},
		{"unreachable", fmt.Errorf("test: %w", transport.ErrUnreachable)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			m, j, _ := f.newJournalledManager(t)
			f.populate(t, m, 1)
			stuck := &refusingInstance{Instance: manager.LocalInstance{Obj: f.newDCDO()}, err: tc.err}
			if err := m.CreateInstance(context.Background(), stuck, v(1), registry.NativeImplType); err != nil {
				t.Fatal(err)
			}
			stuck.refuse.Store(true)
			reg := metrics.NewRegistry()
			w := startWorkload(reg, 10*time.Millisecond) // breaches the 1ms p99 guard
			defer w.Stop()

			policy := testPolicy()
			policy.CanarySize = 2
			sup := &Supervisor{Mgr: m, Reg: reg}
			if err := sup.Start(context.Background(), policy); err != nil {
				t.Fatalf("Start: %v", err)
			}
			if st := waitStatus(t, sup); st.Phase != PhaseFailed {
				t.Fatalf("phase after a failed retreat = %q (%+v), want %q", st.Phase, st, PhaseFailed)
			}
			if done, how := rolloutDone(t, j); done {
				t.Fatalf("a failed retreat journalled rollout-done %q", how)
			}
			if got := fleetVersions(t, m); got["1"] != 1 || got["1.1"] != 1 {
				t.Fatalf("fleet = %v, want the refusing instance alone on 1.1", got)
			}

			stuck.refuse.Store(false)
			if resumed, err := sup.Resume(context.Background()); err != nil || !resumed {
				t.Fatalf("Resume = (%v, %v), want the open rollout resumed", resumed, err)
			}
			if st := waitStatus(t, sup); st.Phase != PhaseRolledBack {
				t.Fatalf("resumed retreat terminal phase = %q (%+v)", st.Phase, st)
			}
			if got := fleetVersions(t, m); got["1"] != 2 {
				t.Fatalf("fleet after the resumed retreat = %v, want all at 1", got)
			}
			if done, how := rolloutDone(t, j); !done || how != DispositionRolledBack {
				t.Fatalf("rollout-done = (%v, %q), want %q", done, how, DispositionRolledBack)
			}
		})
	}
}

// TestRolloutRetreatMovesQuarantinedInstances: an instance quarantined after
// it reached the target (by the prober, say, during the bake) is still
// rolled back by the retreat. The prober could not do it: its style-checked
// re-convergence is denied the way back to a parent version.
func TestRolloutRetreatMovesQuarantinedInstances(t *testing.T) {
	f := newFixture(t)
	m, j, _ := f.newJournalledManager(t)
	f.populate(t, m, 3)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 10*time.Millisecond) // breaches the 1ms p99 guard
	defer w.Stop()

	o := obs.New()
	o.Events.SetSink(func(ev obs.Event) {
		if ev.Kind != "rollout-wave" {
			return
		}
		for _, rec := range m.Records() {
			if rec.Version.Equal(v(1, 1)) {
				_ = m.QuarantineInstance(rec.LOID, "test: quarantined on the target")
			}
		}
	})
	sup := &Supervisor{Mgr: m, Reg: reg, Obs: o}
	if err := sup.Start(context.Background(), testPolicy()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if st := waitStatus(t, sup); st.Phase != PhaseRolledBack {
		t.Fatalf("terminal phase = %q (%+v)", st.Phase, st)
	}
	if q := m.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v, want the canary", q)
	}
	if got := fleetVersions(t, m); got["1"] != 3 {
		t.Fatalf("fleet = %v, want all back at baseline 1", got)
	}
	if done, how := rolloutDone(t, j); !done || how != DispositionRolledBack {
		t.Fatalf("rollout-done = (%v, %q), want %q", done, how, DispositionRolledBack)
	}
}

// TestSupervisorPauseAbortRacesWidening exercises pause/unpause/abort from
// concurrent goroutines while the rollout is actively widening — run under
// -race in CI. The rollout must land in a terminal state with the fleet
// uniformly on one version.
func TestSupervisorPauseAbortRacesWidening(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t)
	f.populate(t, m, 8)
	reg := metrics.NewRegistry()
	w := startWorkload(reg, 100*time.Microsecond)
	defer w.Stop()

	policy := testPolicy()
	policy.BakeTime = 5 * time.Millisecond
	policy.ProbeInterval = time.Millisecond

	sup := &Supervisor{Mgr: m, Reg: reg, Obs: obs.New()}
	if err := sup.Start(context.Background(), policy); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				switch rng.Intn(3) {
				case 0:
					_ = sup.Pause()
				case 1:
					_ = sup.Unpause()
				default:
					_ = sup.Status()
				}
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		}(int64(g))
	}
	wg.Wait()
	_ = sup.Unpause() // ensure not parked paused
	// Let it run a little longer, then abort (a no-op if already done).
	time.Sleep(10 * time.Millisecond)
	_ = sup.Abort("race test abort")
	st := waitStatus(t, sup)

	switch st.Phase {
	case PhaseCompleted:
		if got := fleetVersions(t, m); got["1.1"] != 8 {
			t.Fatalf("completed but fleet = %v", got)
		}
	case PhaseAborted, PhaseRolledBack:
		if got := fleetVersions(t, m); got["1"] != 8 {
			t.Fatalf("aborted but fleet = %v, want all at baseline", got)
		}
	default:
		t.Fatalf("terminal phase = %q (%+v)", st.Phase, st)
	}
}
