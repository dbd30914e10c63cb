package evolution

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// ManagerView is the slice of a DCDO Manager a lazily updating DCDO needs:
// the designated current version and the descriptor of any instantiable
// version. Local managers implement it directly; remote managers are
// reachable through a proxy.
type ManagerView interface {
	// CurrentVersion returns the manager's designated current version (nil
	// when none is designated).
	CurrentVersion() (version.ID, error)
	// InstantiableDescriptor returns the descriptor of an instantiable
	// version.
	InstantiableDescriptor(v version.ID) (*dfm.Descriptor, error)
}

// LazyUpdater wraps a DCDO so that invocations trigger update checks per a
// LazySpec — the lazy update policy of §3.4 in which "a DCDO itself
// determines when it gets updated to the current version".
//
// With Restrict set, only current versions derived from the object's version
// are applied (the §3.5 variation for increasing-version-number managers);
// otherwise the object silently stays where it is.
type LazyUpdater struct {
	dcdo  *core.DCDO
	mgr   ManagerView
	spec  LazySpec
	clock vclock.Clock
	// Restrict limits automatic updates to descendants of the object's
	// current version.
	Restrict bool

	mu        sync.Mutex
	calls     uint64
	lastCheck time.Time
	updates   uint64
	checks    uint64
}

var (
	_ rpc.Object             = (*LazyUpdater)(nil)
	_ rpc.ContextAwareObject = (*LazyUpdater)(nil)
	_ obs.Configurable       = (*LazyUpdater)(nil)
)

// NewLazyUpdater wraps dcdo.
func NewLazyUpdater(dcdo *core.DCDO, mgr ManagerView, spec LazySpec, clock vclock.Clock) *LazyUpdater {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &LazyUpdater{dcdo: dcdo, mgr: mgr, spec: spec, clock: clock, lastCheck: clock.Now()}
}

// DCDO returns the wrapped object.
func (l *LazyUpdater) DCDO() *core.DCDO { return l.dcdo }

// SetObs implements obs.Configurable by wiring the wrapped DCDO into o, so
// hosting the updater on an instrumented node instruments the object.
func (l *LazyUpdater) SetObs(o *obs.Obs) { l.dcdo.SetObs(o) }

// Stats reports how many update checks ran and how many applied an update.
func (l *LazyUpdater) Stats() (checks, updates uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checks, l.updates
}

// InvokeMethod implements rpc.Object: it runs the due update check, then
// delegates to the wrapped DCDO.
func (l *LazyUpdater) InvokeMethod(method string, args []byte) ([]byte, error) {
	if l.checkDue() {
		if err := l.CheckNow(); err != nil {
			// An unreachable manager must not take the object down; serve
			// the call at the current version (the object is merely
			// out of date, which lazy consistency permits).
			_ = err
		}
	}
	return l.dcdo.InvokeMethod(method, args)
}

// InvokeMethodCtx implements rpc.ContextAwareObject: the update check still
// runs (it is the object's own maintenance, not the caller's work), then
// the call proper is delegated with the caller's context intact.
func (l *LazyUpdater) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if l.checkDue() {
		_ = l.CheckNow() // see InvokeMethod: staleness is tolerated, downtime is not
	}
	return l.dcdo.InvokeMethodCtx(ctx, method, args)
}

// OnMigrate runs the migration-triggered check.
func (l *LazyUpdater) OnMigrate() error {
	if !l.spec.OnMigrate {
		return nil
	}
	return l.CheckNow()
}

// checkDue advances the call counter and clock trigger state.
func (l *LazyUpdater) checkDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	due := false
	if l.spec.EveryCalls > 0 {
		l.calls++
		if l.calls >= l.spec.EveryCalls {
			l.calls = 0
			due = true
		}
	}
	if l.spec.EveryTime > 0 {
		now := l.clock.Now()
		if now.Sub(l.lastCheck) >= l.spec.EveryTime {
			l.lastCheck = now
			due = true
		}
	}
	return due
}

// CheckNow consults the manager and applies the current version if the
// object is out of date (and, under Restrict, only if the current version
// derives from the object's).
func (l *LazyUpdater) CheckNow() error {
	l.mu.Lock()
	l.checks++
	l.mu.Unlock()

	cur, err := l.mgr.CurrentVersion()
	if err != nil {
		return fmt.Errorf("lazy check: %w", err)
	}
	if cur.IsZero() {
		return nil
	}
	mine := l.dcdo.Version()
	if cur.Equal(mine) {
		return nil
	}
	if l.Restrict && !mine.IsZero() && !cur.IsDescendantOf(mine) {
		return nil // stays at its present version (§3.5)
	}
	desc, err := l.mgr.InstantiableDescriptor(cur)
	if err != nil {
		return fmt.Errorf("lazy update to %s: %w", cur, err)
	}
	// The update is applied under a background context: it is maintenance
	// the object chose to run, and aborting it at one caller's deadline
	// would leave the object half-evolved for every other caller.
	if _, err := l.dcdo.ApplyDescriptor(context.Background(), desc, cur); err != nil {
		return fmt.Errorf("lazy update to %s: %w", cur, err)
	}
	l.mu.Lock()
	l.updates++
	l.mu.Unlock()
	return nil
}
