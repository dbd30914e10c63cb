// Package core implements the DCDO object type itself — the paper's primary
// contribution (§2.2): a distributed object whose implementation is
// fragmented into replaceable components holding dynamic functions routed
// through a DFM.
//
// A DCDO exposes three categories of functions: configuration functions
// (IncorporateComponent, RemoveComponent, EnableFunction, DisableFunction,
// ApplyDescriptor), status reporting functions (Interface, Version,
// ComponentIDs, Snapshot), and the user-defined dynamic functions it
// currently incorporates, invoked through InvokeMethod. The first two
// categories are also reachable remotely under "dcdo."-prefixed method
// names, which is how DCDO Managers evolve objects they do not share a
// process with.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// RemovalPolicy selects what a DCDO does when asked to remove a component
// that still has threads executing inside it (§3.2, thread activity
// monitoring): "it can return an error, it can delay handling the request
// until all thread counts go to zero, or it can simply go ahead with the
// operation after some time-out period".
type RemovalPolicy int

// Removal policies.
const (
	// RemoveError fails the removal while threads are active.
	RemoveError RemovalPolicy = iota + 1
	// RemoveDelay blocks until every thread in the component drains.
	RemoveDelay
	// RemoveTimeout blocks up to the configured timeout, then proceeds
	// regardless (giving threads "a chance to complete").
	RemoveTimeout
)

// Errors returned by DCDO configuration functions.
var (
	// ErrComponentBusy is returned under RemoveError when a component
	// still has active threads.
	ErrComponentBusy = errors.New("core: component has active threads")
	// ErrUnknownComponent is returned for operations on a component the
	// DCDO has not incorporated.
	ErrUnknownComponent = errors.New("core: component not incorporated")
	// ErrAlreadyIncorporated is returned when incorporating a component ID
	// twice.
	ErrAlreadyIncorporated = errors.New("core: component already incorporated")
	// ErrIncompatibleImpl is returned when a component's implementation
	// type does not match the host.
	ErrIncompatibleImpl = errors.New("core: incompatible implementation type")
	// ErrPermanentConflict is returned when an incorporated component
	// carries a permanent implementation of a function that already has
	// one (§3.2).
	ErrPermanentConflict = errors.New("core: conflicting permanent implementations")
)

// ControlPrefix prefixes the remotely callable configuration and status
// methods (the control table, evolve.go).
const ControlPrefix = "dcdo."

// Config assembles a DCDO's dependencies.
type Config struct {
	// LOID names the object.
	LOID naming.LOID
	// HostImpl is the host's native implementation type; incorporated
	// components must match it.
	HostImpl registry.ImplType
	// Registry resolves component code references to function bindings.
	Registry *registry.Registry
	// Fetcher obtains components from their ICOs.
	Fetcher component.Fetcher
	// Clock drives removal-policy waits. Defaults to the real clock.
	Clock vclock.Clock
	// RemovalPolicy selects the thread-activity policy. Defaults to
	// RemoveError.
	RemovalPolicy RemovalPolicy
	// RemovalTimeout bounds RemoveTimeout waits. Defaults to 5 s.
	RemovalTimeout time.Duration
	// AutoStructuralDeps, when set, installs a Type A dependency for every
	// call a component's function declarations list — the automated static
	// analysis §3.2 anticipates.
	AutoStructuralDeps bool
	// Observer, when set, receives configuration events (incorporations,
	// enables/disables, evolutions). Called synchronously; must be fast.
	Observer Observer
	// Obs, when set, wires the object into the node's observability layer
	// at construction (equivalent to calling SetObs afterwards).
	Obs *obs.Obs
}

// incorporated tracks one component currently part of the object.
type incorporated struct {
	ref    dfm.ComponentRef
	desc   component.Descriptor
	module *registry.Module
}

// DCDO is a dynamically configurable distributed object.
type DCDO struct {
	cfg Config

	table *dfm.DFM
	// control serves the ControlPrefix methods.
	control rpc.Table

	// evolveMu serialises evolutions (ApplyDescriptor, ApplyPlan);
	// invocation of user functions never takes it.
	evolveMu sync.Mutex

	mu         sync.Mutex
	components map[string]*incorporated
	ver        version.ID
	// stamp is the DFM's Publishes() when ver was stamped: ApplyPlan trusts
	// the table to be ver's configuration only while the two agree. A
	// restored object holds unstamped.
	stamp uint64
	state *objstate.State

	// obsState holds the observability wiring installed by SetObs, nil when
	// disabled. Read with one atomic load on the invoke path.
	obsState atomic.Pointer[dcdoObs]
}

var (
	_ rpc.Object             = (*DCDO)(nil)
	_ rpc.ContextAwareObject = (*DCDO)(nil)
	_ registry.Caller        = (*DCDO)(nil)
)

// New returns an empty DCDO; its implementation grows by incorporating
// components.
func New(cfg Config) *DCDO {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.RemovalPolicy == 0 {
		cfg.RemovalPolicy = RemoveError
	}
	if cfg.RemovalTimeout == 0 {
		cfg.RemovalTimeout = 5 * time.Second
	}
	if cfg.HostImpl == (registry.ImplType{}) {
		cfg.HostImpl = registry.NativeImplType
	}
	d := &DCDO{
		cfg:        cfg,
		table:      dfm.New(),
		components: make(map[string]*incorporated),
		state:      objstate.New(),
	}
	d.control = d.controlTable()
	if cfg.Obs != nil {
		d.SetObs(cfg.Obs)
	}
	return d
}

// LOID returns the object's name.
func (d *DCDO) LOID() naming.LOID { return d.cfg.LOID }

// DFM exposes the object's live function mapper (status reporting and
// benchmarks; configuration should go through the DCDO's own functions).
func (d *DCDO) DFM() *dfm.DFM { return d.table }

// --- User-function invocation -------------------------------------------

// InvokeMethod implements rpc.Object: it services both the control plane
// ("dcdo."-prefixed) and invocations of exported dynamic functions.
func (d *DCDO) InvokeMethod(method string, args []byte) ([]byte, error) {
	if st := d.obsState.Load(); st != nil {
		return d.invokeObserved(context.Background(), st, method, args)
	}
	if strings.HasPrefix(method, ControlPrefix) {
		return d.control.InvokeMethod(method, args)
	}
	impl, release, err := d.table.BeginExportedCall(method)
	if err != nil {
		return nil, mapDFMError(err)
	}
	defer release()
	return impl(d, args)
}

// InvokeMethodCtx implements rpc.ContextAwareObject: the dispatcher hands
// the request context down so an already-cancelled call never resolves or
// executes, and a deadline that expires during DFM resolution aborts before
// the user function runs. The stage boundaries — before resolve, and between
// resolve and execution — are the cancellation points; a function already
// running is never interrupted (the DFM's thread-activity accounting depends
// on calls completing).
func (d *DCDO) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if st := d.obsState.Load(); st != nil {
		return d.invokeObserved(ctx, st, method, args)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if strings.HasPrefix(method, ControlPrefix) {
		return d.control.InvokeMethodCtx(ctx, method, args)
	}
	impl, release, err := d.table.BeginExportedCall(method)
	if err != nil {
		return nil, mapDFMError(err)
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return impl(d, args)
}

// CallInternal implements registry.Caller: dynamic functions call other
// dynamic functions in the same object through the DFM, internal or
// exported alike.
func (d *DCDO) CallInternal(function string, args []byte) ([]byte, error) {
	impl, release, err := d.table.BeginCall(function)
	if err != nil {
		return nil, mapDFMError(err)
	}
	defer release()
	return impl(d, args)
}

// mapDFMError translates DFM failures into the RPC error classes clients
// are told to expect (§3.2: invocations "should be written to expect the
// absence of the function").
func mapDFMError(err error) error {
	switch {
	case errors.Is(err, dfm.ErrUnknownFunction), errors.Is(err, dfm.ErrNotExported):
		return fmt.Errorf("%w: %v", rpc.ErrNoSuchFunction, err)
	case errors.Is(err, dfm.ErrDisabledFunction):
		return fmt.Errorf("%w: %v", rpc.ErrFunctionDisabled, err)
	default:
		return err
	}
}

// --- Configuration functions (§2.2) --------------------------------------

// Incorporate fetches the component held by the ICO named ico and
// incorporates it: functions become present (initially disabled unless
// enable is set) and may then be enabled and called. The fetch — potentially
// many network round trips — runs under ctx.
func (d *DCDO) Incorporate(ctx context.Context, ico naming.LOID, enable bool) error {
	comp, err := d.cfg.Fetcher.Fetch(ctx, ico)
	if err != nil {
		return fmt.Errorf("incorporate: %w", err)
	}
	return d.IncorporateComponent(comp, ico, enable)
}

// IncorporateComponent incorporates an already fetched component: every
// check that needs no lock runs first, then the component's entries enter the
// table in one DFM transaction — one published snapshot however many
// functions it declares.
func (d *DCDO) IncorporateComponent(comp *component.Component, ico naming.LOID, enable bool) error {
	a, err := d.prepareArrival(comp, ico)
	if err != nil {
		return err
	}
	d.mu.Lock()
	err = d.table.Update(func(tx *dfm.Tx) error { return d.stageArrival(tx, a, enable) })
	d.mu.Unlock()
	if err != nil {
		return err
	}
	d.emitIncorporated(a)
	return nil
}

// arrival is a component validated, loaded and resolved against the host —
// everything incorporation needs that can be done before the table is locked.
type arrival struct {
	inc     *incorporated
	entries []dfm.EntryDesc // initially disabled
	impls   []registry.Func // parallel to entries
}

// prepareArrival validates comp, loads its module and resolves every declared
// function, so staging it afterwards cannot fail on the component's content.
func (d *DCDO) prepareArrival(comp *component.Component, ico naming.LOID) (*arrival, error) {
	if err := comp.Desc.Validate(); err != nil {
		return nil, fmt.Errorf("incorporate %q: %w", comp.Desc.ID, err)
	}
	if !comp.Desc.Impl.Matches(d.cfg.HostImpl) {
		return nil, fmt.Errorf("%w: component %q is %s, host is %s",
			ErrIncompatibleImpl, comp.Desc.ID, comp.Desc.Impl, d.cfg.HostImpl)
	}
	module, err := d.cfg.Registry.Load(comp.Desc.CodeRef, d.cfg.HostImpl)
	if err != nil {
		return nil, fmt.Errorf("incorporate %q: %w", comp.Desc.ID, err)
	}
	a := &arrival{
		inc: &incorporated{
			ref: dfm.ComponentRef{
				ICO:      ico,
				CodeRef:  comp.Desc.CodeRef,
				Impl:     comp.Desc.Impl,
				CodeSize: comp.Desc.CodeSize,
				Revision: comp.Desc.Revision,
			},
			desc:   comp.Desc,
			module: module,
		},
		entries: make([]dfm.EntryDesc, len(comp.Desc.Functions)),
		impls:   make([]registry.Func, len(comp.Desc.Functions)),
	}
	for i, decl := range comp.Desc.Functions {
		if a.impls[i], err = module.Func(decl.Name); err != nil {
			return nil, fmt.Errorf("incorporate %q: %w", comp.Desc.ID, err)
		}
		a.entries[i] = dfm.EntryDesc{
			Function:  decl.Name,
			Component: comp.Desc.ID,
			Exported:  decl.Exported,
			Mandatory: decl.Mandatory || decl.Permanent,
			Permanent: decl.Permanent,
		}
	}
	return a, nil
}

// stageArrival adds a prepared component to the table inside tx and records
// it in d.components; the caller holds d.mu. A refused incorporation leaves
// no entry and no dependency behind.
func (d *DCDO) stageArrival(tx *dfm.Tx, a *arrival, enable bool) error {
	id := a.inc.desc.ID
	if _, exists := d.components[id]; exists {
		return fmt.Errorf("%w: %q", ErrAlreadyIncorporated, id)
	}
	// §3.2: incorporating a component whose descriptor marks a function
	// permanent fails if another permanent implementation already exists.
	for _, e := range a.entries {
		if !e.Permanent {
			continue
		}
		if other, ok := tx.PermanentImpl(e.Function); ok {
			return fmt.Errorf("%w: function %q already permanent in %q",
				ErrPermanentConflict, e.Function, other)
		}
	}
	for i, e := range a.entries {
		// Enable only when no other implementation is already enabled.
		if enable {
			_, taken := tx.EnabledImpl(e.Function)
			e.Enabled = !taken
		}
		if err := tx.Add(e, a.impls[i]); err != nil {
			return fmt.Errorf("incorporate %q: %w", id, err)
		}
	}
	if d.cfg.AutoStructuralDeps {
		for _, decl := range a.inc.desc.Functions {
			for _, callee := range decl.Calls {
				dep := dfm.Dependency{
					Kind: dfm.DepA, FromFunc: decl.Name, FromComp: id, ToFunc: callee,
				}
				if err := tx.AddDep(dep); err != nil {
					// Whether a dependency is violated is only decidable
					// against the table holding the new entries, so this one
					// refusal comes after edits: take them back out before
					// the transaction publishes.
					for _, e := range a.entries {
						_ = tx.Disable(e.Key(), true)
					}
					_ = tx.RemoveComponent(id)
					tx.DropDepsMentioning(id)
					return fmt.Errorf("incorporate %q: auto dependency %s: %w", id, dep, err)
				}
			}
		}
	}
	d.components[id] = a.inc
	return nil
}

func (d *DCDO) emitIncorporated(a *arrival) {
	if d.listened() {
		d.emit(EventIncorporated, a.inc.desc.ID, "", nil,
			fmt.Sprintf("%d functions, %d bytes", len(a.entries), a.inc.desc.CodeSize))
	}
}

// RemoveComponent disables nothing by itself: the component's functions
// must already be disabled. It applies the configured thread-activity
// policy before removing the component's entries and dropping dependencies
// that mention it.
func (d *DCDO) RemoveComponent(id string) error {
	d.mu.Lock()
	_, exists := d.components[id]
	d.mu.Unlock()
	if !exists {
		return fmt.Errorf("%w: %q", ErrUnknownComponent, id)
	}
	if err := d.waitComponentIdle(id, func() int64 { return d.table.ComponentActive(id) }); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.components[id]; !exists {
		return fmt.Errorf("%w: %q", ErrUnknownComponent, id)
	}
	if err := d.table.RemoveComponent(id); err != nil {
		return fmt.Errorf("remove %q: %w", id, err)
	}
	d.table.DropDepsMentioning(id)
	delete(d.components, id)
	d.emit(EventComponentRemoved, id, "", nil, "")
	return nil
}

// waitComponentIdle applies the removal policy to a component's active
// thread count, which active reports.
func (d *DCDO) waitComponentIdle(id string, active func() int64) error {
	const pollInterval = time.Millisecond
	switch d.cfg.RemovalPolicy {
	case RemoveError:
		if n := active(); n > 0 {
			return fmt.Errorf("%w: %q has %d active threads", ErrComponentBusy, id, n)
		}
		return nil
	case RemoveDelay:
		for active() > 0 {
			d.cfg.Clock.Sleep(pollInterval)
		}
		return nil
	case RemoveTimeout:
		deadline := d.cfg.Clock.Now().Add(d.cfg.RemovalTimeout)
		for active() > 0 && d.cfg.Clock.Now().Before(deadline) {
			d.cfg.Clock.Sleep(pollInterval)
		}
		return nil // proceed regardless after the timeout
	default:
		return fmt.Errorf("core: unknown removal policy %d", d.cfg.RemovalPolicy)
	}
}

// EnableFunction enables the keyed implementation.
func (d *DCDO) EnableFunction(key dfm.EntryKey) error {
	if err := d.table.Enable(key); err != nil {
		return err
	}
	d.emit(EventEnabled, key.Component, key.Function, nil, "")
	return nil
}

// DisableFunction disables the keyed implementation, honouring permanent
// markings and dependencies.
func (d *DCDO) DisableFunction(key dfm.EntryKey) error {
	if err := d.table.Disable(key, false); err != nil {
		return err
	}
	d.emit(EventDisabled, key.Component, key.Function, nil, "")
	return nil
}

// DisableFunctionDrained postpones the disable until no thread is executing
// inside a function that depends on the keyed implementation (§3.2: "the
// DCDO can postpone any request to disable F2 until the active thread count
// for F1 goes to zero"). maxWait bounds the wait; zero means the configured
// removal timeout.
func (d *DCDO) DisableFunctionDrained(key dfm.EntryKey, maxWait time.Duration) error {
	if maxWait == 0 {
		maxWait = d.cfg.RemovalTimeout
	}
	deadline := d.cfg.Clock.Now().Add(maxWait)
	for d.table.DependentsActive(key) > 0 {
		if !d.cfg.Clock.Now().Before(deadline) {
			return fmt.Errorf("%w: dependents of %s still active after %v",
				ErrComponentBusy, key, maxWait)
		}
		d.cfg.Clock.Sleep(time.Millisecond)
	}
	return d.table.Disable(key, false)
}

// AddDependency installs a dependency declaration (§3.2).
func (d *DCDO) AddDependency(dep dfm.Dependency) error {
	if err := d.table.AddDep(dep); err != nil {
		return err
	}
	d.emit(EventDependencyAdded, "", "", nil, dep.String())
	return nil
}

// SetFunctionFlags updates exported/mandatory/permanent marks on an entry.
func (d *DCDO) SetFunctionFlags(key dfm.EntryKey, exported, mandatory, permanent bool) error {
	return d.table.SetFlags(key, exported, mandatory, permanent)
}

// --- Status reporting functions (§2.2) ------------------------------------

// Interface returns the names of enabled exported functions — what clients
// build invocations against.
func (d *DCDO) Interface() []string {
	var names []string
	for _, e := range d.table.Entries() {
		if e.Enabled && e.Exported {
			names = append(names, e.Function)
		}
	}
	sort.Strings(names)
	return names
}

// Version returns the object's current version identifier.
func (d *DCDO) Version() version.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ver.Clone()
}

// SetVersion stamps the object's version (used at creation): the table as it
// stands is taken to be v's configuration.
func (d *DCDO) SetVersion(v version.ID) {
	d.mu.Lock()
	d.ver = v.Clone()
	d.stamp = d.table.Publishes()
	d.mu.Unlock()
}

// ComponentIDs returns the sorted IDs of incorporated components.
func (d *DCDO) ComponentIDs() []string {
	d.mu.Lock()
	ids := make([]string, 0, len(d.components))
	for id := range d.components {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Snapshot returns the object's current configuration as a DFM descriptor —
// the status counterpart of ApplyDescriptor.
func (d *DCDO) Snapshot() *dfm.Descriptor {
	return d.snapshotOf(d.table.Entries())
}

func (d *DCDO) snapshotOf(entries []dfm.EntryDesc) *dfm.Descriptor {
	desc := dfm.NewDescriptor()
	desc.Entries = entries
	desc.Deps = d.table.Deps()
	d.mu.Lock()
	for id, inc := range d.components {
		desc.Components[id] = inc.ref
	}
	d.mu.Unlock()
	return desc
}
