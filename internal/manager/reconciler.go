package manager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/replica"
)

// Reconciler is the convergence loop of the distribution-policy plane: each
// sweep diffs every policy-designated LOID's desired state (the
// DistributionPolicy document) against the observed state of its replica
// group (member status probes) and closes the gap — failing over a dead
// primary, dropping dead backups, expanding onto fresh candidates until the
// replication degree heals to N, and demoting excess members when the
// degree was lowered. Every step is journalled (OpReconcile) before it is
// taken, so a standby taking over mid-convergence can see how far its
// predecessor got; the loop itself is level-triggered — it needs no resume
// state beyond the policies themselves, which Recover restores.
type Reconciler struct {
	// Mgr is the manager whose policies are reconciled.
	Mgr *Manager
	// Candidates is the global spare-node pool drawn from when a policy
	// names no candidates of its own. Endpoints must host a replica-host
	// service (or already carry a member).
	Candidates []string
	// Interval is the background sweep period (default 500 ms).
	Interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup

	sweeps    atomic.Uint64
	failovers atomic.Uint64
	drops     atomic.Uint64
	heals     atomic.Uint64
	demotions atomic.Uint64
}

// ReconcileStats counts the reconciler's convergence actions.
type ReconcileStats struct {
	// Sweeps counts completed sweeps.
	Sweeps uint64
	// Failovers counts dead primaries failed away from.
	Failovers uint64
	// Drops counts dead backups removed from sets.
	Drops uint64
	// Heals counts fresh backups added to restore degree.
	Heals uint64
	// Demotions counts healthy members removed after a degree decrease.
	Demotions uint64
}

// Stats returns a snapshot of the reconciler's counters.
func (r *Reconciler) Stats() ReconcileStats {
	return ReconcileStats{
		Sweeps:    r.sweeps.Load(),
		Failovers: r.failovers.Load(),
		Drops:     r.drops.Load(),
		Heals:     r.heals.Load(),
		Demotions: r.demotions.Load(),
	}
}

// ReconcileReport summarises one sweep.
type ReconcileReport struct {
	// Actions lists the convergence steps taken, in order, as the same
	// strings journalled with them ("loid: add endpoint" etc.).
	Actions []string
	// Converged counts policy LOIDs whose observed state matched the
	// document at the end of their reconciliation.
	Converged int
	// Diverged counts policy LOIDs left short of their document (no viable
	// candidate, unreachable primary, ...); the next sweep retries.
	Diverged int
}

// Sweep reconciles every policy-designated LOID once. Errors converging
// individual LOIDs are collected and joined; only a journal that refuses a
// step's intent (rpc.ErrFenced once a standby has taken over) ends the
// sweep, before the step is taken. A LOID with no registered replica group
// is skipped (a degree-1 object that never grew a group has nothing to
// reconcile — see Manager.SetPolicy).
func (r *Reconciler) Sweep(ctx context.Context) (ReconcileReport, error) {
	var report ReconcileReport
	var errs []error
	m := r.Mgr

	// Membership across all policy-managed groups, for anti-affinity: an
	// endpoint already carrying any member is a worse (or forbidden) home
	// for another.
	hosting := make(map[string]int)
	loids := m.PolicyLOIDs()
	for _, loid := range loids {
		if g := m.ReplicaGroup(loid); g != nil {
			for _, ep := range g.Set().Endpoints() {
				hosting[ep]++
			}
		}
	}

	for _, loid := range loids {
		if ctx.Err() != nil {
			break // sweep cut short; the next interval picks up the rest
		}
		pol, ok := m.PolicyOf(loid)
		if !ok {
			continue
		}
		g := m.ReplicaGroup(loid)
		if g == nil {
			continue
		}
		converged, acts, err := r.reconcileOne(ctx, loid, pol, g, hosting)
		report.Actions = append(report.Actions, acts...)
		if err != nil {
			errs = append(errs, fmt.Errorf("reconcile %s: %w", loid, err))
		}
		if converged {
			report.Converged++
		} else {
			report.Diverged++
		}
		if errors.Is(err, errUnjournalled) {
			break // acting unjournalled would hide the step from a standby
		}
	}
	r.sweeps.Add(1)
	return report, errors.Join(errs...)
}

// errUnjournalled marks a step the journal refused, which the reconciler
// therefore did not take.
var errUnjournalled = errors.New("reconcile step not journalled")

// reconcileOne converges one group toward pol. hosting is updated in place
// as members move so later LOIDs in the same sweep see the new placement.
func (r *Reconciler) reconcileOne(ctx context.Context, loid naming.LOID, pol policy.DistributionPolicy, g *replica.Group, hosting map[string]int) (bool, []string, error) {
	var acts []string
	var errs []error
	m := r.Mgr

	// step journals an action's intent before the action, so a shipped
	// journal shows the standby what its predecessor was mid-way through.
	// A journal that refuses it (a standby has taken over and fences the
	// shipment) stops the reconciler acting at all.
	step := func(action string) error {
		if err := m.Journal().Reconcile(loid, action); err != nil {
			return fmt.Errorf("%w: %s: %w", errUnjournalled, action, err)
		}
		m.event("reconcile", loid, nil, action)
		acts = append(acts, loid.String()+": "+action)
		return nil
	}

	set := g.Set()
	if !set.Replicated() {
		return false, acts, fmt.Errorf("no replica set published")
	}

	// Observe: probe every member.
	alive := make(map[string]bool, 1+len(set.Backups))
	for _, ep := range set.Endpoints() {
		_, err := g.Status(ctx, ep)
		alive[ep] = err == nil
	}

	// Dead primary: fail over to the first live backup before anything else
	// — every other action needs a reachable primary.
	if !alive[set.Primary] {
		if err := step("failover from " + set.Primary); err != nil {
			return false, acts, err
		}
		if _, err := g.Failover(ctx); err != nil {
			return false, acts, fmt.Errorf("failover: %w", err)
		}
		r.failovers.Add(1)
		hosting[set.Primary]--
		set = g.Set()
	}

	// Dead backups: drop them so degree accounting below sees live members
	// only and healing replaces them.
	for _, b := range set.Backups {
		if alive[b] {
			continue
		}
		if err := step("drop dead " + b); err != nil {
			return false, acts, errors.Join(append(errs, err)...)
		}
		if _, err := g.Shrink(ctx, b); err != nil {
			errs = append(errs, fmt.Errorf("drop %s: %w", b, err))
			continue
		}
		r.drops.Add(1)
		hosting[b]--
	}
	set = g.Set()

	// Heal upward: expand onto candidates until the degree matches.
	for have := len(set.Endpoints()); have < pol.Degree; have = len(set.Endpoints()) {
		ep := r.pickCandidate(pol, set.Contains, hosting)
		if ep == "" {
			errs = append(errs, fmt.Errorf("degree %d/%d: no viable candidate", have, pol.Degree))
			break
		}
		if err := step("add " + ep); err != nil {
			return false, acts, errors.Join(append(errs, err)...)
		}
		newSet, err := g.Expand(ctx, ep)
		if err != nil {
			// The candidate may be down; poison it for this pass and retry
			// with the next one.
			errs = append(errs, fmt.Errorf("add %s: %w", ep, err))
			hosting[ep] += len(r.Candidates) + 1
			continue
		}
		r.heals.Add(1)
		hosting[ep]++
		set = newSet
	}

	// Demote downward: a lowered degree sheds backups from the tail of the
	// failover order (the most recently added, least proven members).
	for have := len(set.Endpoints()); have > pol.Degree && len(set.Backups) > 0; have = len(set.Endpoints()) {
		ep := set.Backups[len(set.Backups)-1]
		if err := step("demote " + ep); err != nil {
			return false, acts, errors.Join(append(errs, err)...)
		}
		newSet, err := g.Shrink(ctx, ep)
		if err != nil {
			errs = append(errs, fmt.Errorf("demote %s: %w", ep, err))
			break
		}
		r.demotions.Add(1)
		hosting[ep]--
		set = newSet
	}

	return len(set.Endpoints()) == pol.Degree, acts, errors.Join(errs...)
}

// pickCandidate chooses the next endpoint to expand onto: the policy's own
// candidate list when present, the reconciler's global pool otherwise,
// skipping current members. With AntiAffinity the candidate must not host
// any other policy-managed member; without it, the least-loaded candidate
// wins. Empty means no viable candidate.
func (r *Reconciler) pickCandidate(pol policy.DistributionPolicy, isMember func(string) bool, hosting map[string]int) string {
	pool := pol.Candidates
	if len(pool) == 0 {
		pool = r.Candidates
	}
	best, bestLoad := "", -1
	for _, ep := range pool {
		if isMember(ep) {
			continue
		}
		load := hosting[ep]
		if pol.AntiAffinity && load > 0 {
			continue
		}
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = ep, load
		}
	}
	return best
}

// Run starts a background loop sweeping every Interval until Stop. A
// reconciler runs at most one loop; Run panics on a second call before
// Stop.
func (r *Reconciler) Run() {
	interval := r.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		panic("manager: reconciler already running")
	}
	stop := make(chan struct{})
	r.stop = stop
	r.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_, _ = r.Sweep(context.Background())
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to call
// when not running.
func (r *Reconciler) Stop() {
	r.mu.Lock()
	stop := r.stop
	r.stop = nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	r.wg.Wait()
}
