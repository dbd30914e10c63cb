package manager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// Prober is the manager-side half of the liveness layer: it periodically
// probes every managed instance (by asking for its version over the normal
// Instance interface — an RPC round trip for remote instances), quarantines
// instances that stop answering, and re-converges quarantined instances to
// the current version when they answer again. Failing instances are probed
// with exponential backoff so a long partition does not burn the node's
// retry budget every sweep.
type Prober struct {
	// Mgr is the manager whose instances are probed.
	Mgr *Manager
	// Clock supplies time for backoff accounting (vclock.Real when nil).
	Clock vclock.Clock
	// FailureThreshold is how many consecutive probe failures quarantine an
	// instance. Zero means 1 — the first failure quarantines.
	FailureThreshold int
	// BaseBackoff is the delay before re-probing after the first failure
	// (default 50 ms); it doubles per consecutive failure up to MaxBackoff
	// (default 5 s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	mu    sync.Mutex
	state map[naming.LOID]*probeState
	stop  chan struct{}
	wg    sync.WaitGroup
}

// probeState tracks one instance's consecutive failures and backoff window.
type probeState struct {
	failures  int
	backoff   time.Duration
	nextProbe time.Time
}

// SweepReport summarises one prober sweep.
type SweepReport struct {
	// Probed lists instances actually probed this sweep.
	Probed []naming.LOID
	// Healthy lists probed instances that answered.
	Healthy []naming.LOID
	// Quarantined lists instances newly quarantined this sweep.
	Quarantined []naming.LOID
	// Reconverged lists previously quarantined instances that answered and
	// were brought back to the current version.
	Reconverged []naming.LOID
	// Deferred lists failing instances skipped because their backoff window
	// has not elapsed.
	Deferred []naming.LOID
}

func (p *Prober) clock() vclock.Clock {
	if p.Clock == nil {
		return vclock.Real{}
	}
	return p.Clock
}

func (p *Prober) threshold() int {
	if p.FailureThreshold <= 0 {
		return 1
	}
	return p.FailureThreshold
}

func (p *Prober) backoffBounds() (base, max time.Duration) {
	base, max = p.BaseBackoff, p.MaxBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if max < base {
		max = base
	}
	return base, max
}

// Sweep probes every managed instance once (respecting per-instance
// backoff) and applies the quarantine / re-convergence transitions. It
// returns what it did; errors re-converging individual instances are
// collected and joined, never aborting the sweep. A ctx that ends mid-sweep
// stops probing further instances; a probe in flight still completes.
func (p *Prober) Sweep(ctx context.Context) (SweepReport, error) {
	var report SweepReport
	var errs []error
	now := p.clock().Now()

	var sp *obs.Span
	if tr := p.Mgr.tracer(); tr != nil {
		sp = tr.StartSpan(obs.StageMgrProbe, obs.SpanFromContext(ctx))
		ctx = obs.ContextWithSpan(ctx, sp.Context())
	}

	loids := p.Mgr.InstanceLOIDs()
	p.prune(loids)
	for _, loid := range loids {
		if ctx.Err() != nil {
			break // sweep cut short; the next interval picks up the rest
		}
		if p.deferred(loid, now) {
			report.Deferred = append(report.Deferred, loid)
			continue
		}
		inst := p.Mgr.instanceOf(loid)
		if inst == nil {
			continue // dropped between listing and probing
		}
		report.Probed = append(report.Probed, loid)
		_, err := inst.Version(ctx)
		if err != nil && isConnectivityError(err) {
			if p.recordFailure(loid, now) {
				p.Mgr.quarantine(loid, fmt.Sprintf("probe failed: %v", err))
				report.Quarantined = append(report.Quarantined, loid)
			}
			continue
		}
		// Any answer — even an application-level error — proves liveness.
		p.recordSuccess(loid)
		report.Healthy = append(report.Healthy, loid)
		if q, _ := p.Mgr.IsQuarantined(loid); !q {
			continue
		}
		if err := p.reconverge(ctx, loid); err != nil {
			errs = append(errs, fmt.Errorf("reconverge %s: %w", loid, err))
			continue
		}
		report.Reconverged = append(report.Reconverged, loid)
	}

	if sp != nil {
		sp.Annotate("probed", fmt.Sprintf("%d", len(report.Probed)))
		sp.Annotate("quarantined", fmt.Sprintf("%d", len(report.Quarantined)))
		sp.Annotate("reconverged", fmt.Sprintf("%d", len(report.Reconverged)))
		sp.Finish()
	}
	return report, errors.Join(errs...)
}

// reconverge lifts an instance's quarantine and, when a current version is
// designated and the instance is behind it, evolves the instance to it —
// the "evolve-to-current" half of the quarantine lifecycle.
func (p *Prober) reconverge(ctx context.Context, loid naming.LOID) error {
	current, _ := p.Mgr.CurrentVersion()
	if !current.IsZero() {
		actual, err := p.Mgr.instanceProbe(ctx, loid, current)
		if err != nil {
			return err
		}
		p.Mgr.syncRecord(loid, actual)
		if !actual.Equal(current) {
			if err := p.Mgr.EvolveInstance(ctx, loid, current); err != nil {
				return err
			}
		}
	}
	p.Mgr.UnquarantineInstance(loid)
	p.Mgr.event("reconverged", loid, current, "")
	return nil
}

// deferred reports whether loid's backoff window is still open.
func (p *Prober) deferred(loid naming.LOID, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[loid]
	return st != nil && st.failures > 0 && now.Before(st.nextProbe)
}

// recordFailure notes a consecutive failure and reports whether the
// threshold was just crossed.
func (p *Prober) recordFailure(loid naming.LOID, now time.Time) bool {
	base, max := p.backoffBounds()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == nil {
		p.state = make(map[naming.LOID]*probeState)
	}
	st := p.state[loid]
	if st == nil {
		st = &probeState{}
		p.state[loid] = st
	}
	st.failures++
	if st.backoff == 0 {
		st.backoff = base
	} else if st.backoff < max {
		st.backoff *= 2
		if st.backoff > max {
			st.backoff = max
		}
	}
	st.nextProbe = now.Add(st.backoff)
	return st.failures == p.threshold()
}

// prune drops probe state for LOIDs no longer managed. Without it the map
// grows without bound on a long-lived manager as instances are dropped or
// migrated away, and — worse — a LOID re-created later would inherit the old
// incarnation's consecutive-failure count and backoff window, so its first
// transient hiccup could quarantine it immediately.
func (p *Prober) prune(fleet []naming.LOID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.state) == 0 {
		return
	}
	live := make(map[naming.LOID]struct{}, len(fleet))
	for _, loid := range fleet {
		live[loid] = struct{}{}
	}
	for loid := range p.state {
		if _, ok := live[loid]; !ok {
			delete(p.state, loid)
		}
	}
}

// recordSuccess clears loid's failure state.
func (p *Prober) recordSuccess(loid naming.LOID) {
	p.mu.Lock()
	delete(p.state, loid)
	p.mu.Unlock()
}

// Run starts a background loop sweeping every interval until Stop. A
// prober runs at most one loop; Run panics on a second call before Stop.
func (p *Prober) Run(interval time.Duration) {
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		panic("manager: prober already running")
	}
	stop := make(chan struct{})
	p.stop = stop
	p.mu.Unlock()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-p.clock().After(interval):
				// The background loop owns its sweeps; Stop ends the loop
				// between sweeps rather than cancelling one mid-flight.
				_, _ = p.Sweep(context.Background())
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to call
// when not running.
func (p *Prober) Stop() {
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	p.wg.Wait()
}

// instanceProbe reports where loid is, measured against v: its version, or
// for a replica group the version of the first member, backups first, not at
// v. A group is at v only when every member is.
func (m *Manager) instanceProbe(ctx context.Context, loid naming.LOID, v version.ID) (version.ID, error) {
	inst := m.instanceOf(loid)
	if inst == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, loid)
	}
	g := m.ReplicaGroup(loid)
	if g == nil {
		return inst.Version(ctx)
	}
	set := g.Set()
	for _, ep := range append(append([]string(nil), set.Backups...), set.Primary) {
		at, err := memberAt(ctx, g, ep)
		if err != nil || !at.Equal(v) {
			return at, err
		}
	}
	return v, nil
}
