package dfm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/registry"
)

// Errors returned by live DFM operations.
var (
	// ErrUnknownFunction means no entry exists for the function — the
	// missing internal function problem when hit from inside the object.
	ErrUnknownFunction = errors.New("dfm: unknown function")
	// ErrDisabledFunction means entries exist but none is enabled.
	ErrDisabledFunction = errors.New("dfm: function disabled")
	// ErrUnknownEntry means no entry exists for a (function, component).
	ErrUnknownEntry = errors.New("dfm: unknown entry")
	// ErrDuplicateEntry is returned when adding an entry that exists.
	ErrDuplicateEntry = errors.New("dfm: duplicate entry")
	// ErrAlreadyEnabled is returned when enabling a function that already
	// has a different enabled implementation.
	ErrAlreadyEnabled = errors.New("dfm: another implementation is enabled")
	// ErrPermanent is returned when disabling or removing a permanent
	// implementation.
	ErrPermanent = errors.New("dfm: implementation is permanent")
	// ErrDependency is returned when an operation would violate a declared
	// dependency.
	ErrDependency = errors.New("dfm: operation violates dependency")
	// ErrEntryEnabled is returned when removing an entry that is still
	// enabled.
	ErrEntryEnabled = errors.New("dfm: entry still enabled")
	// ErrNotExported is returned when an external caller invokes an
	// internal function.
	ErrNotExported = errors.New("dfm: function not exported")
)

// liveEntry is one DFM table row plus its live binding, thread counter and
// fast-path row, which publishLocked builds and reuses (under d.mu).
type liveEntry struct {
	desc   EntryDesc
	impl   registry.Func
	row    *fastEntry
	active atomic.Int64
	calls  atomic.Uint64
}

// fastEntry is one immutable row of the fast-path index, shared by every
// snapshot since it was built: the implementation, its exported flag, the
// live entry whose counters the call updates, and (when latency metering is
// enabled) the function's latency histogram, the last two frozen when built.
type fastEntry struct {
	impl     registry.Func
	exported bool
	live     *liveEntry
	hist     *metrics.Histogram
}

// lookupTable is the immutable fast-path index published once per transaction.
// byFunc maps each known function to its enabled implementation, or nil
// when every implementation is disabled — preserving the paper's
// distinction between a missing function and a disabled one.
type lookupTable struct {
	byFunc map[string]*fastEntry
}

// DFM is the live Dynamic Function Mapper maintained within every DCDO. All
// calls to dynamic functions go through it; configuration operations mutate
// it. Reads are lock-free against an immutable snapshot; mutations are
// serialised by a mutex and run as transactions (Update) that publish one
// fresh snapshot each.
type DFM struct {
	mu      sync.Mutex
	entries map[EntryKey]*liveEntry
	// enabled indexes each function's enabled implementation, so "is another
	// implementation enabled?" costs one map read instead of a table scan.
	enabled map[string]*liveEntry
	deps    []Dependency
	lookup  atomic.Pointer[lookupTable]
	// publishes counts lookup snapshots published since New.
	publishes atomic.Uint64
	// histFor, when set via EnableLatency, supplies a per-function latency
	// histogram attached to each fast-path row at publish time. Nil (the
	// default) keeps BeginCall's release closure identical to the unmetered
	// path.
	histFor func(function string) *metrics.Histogram
}

// New returns an empty DFM.
func New() *DFM {
	d := &DFM{entries: make(map[EntryKey]*liveEntry), enabled: make(map[string]*liveEntry)}
	d.lookup.Store(&lookupTable{byFunc: make(map[string]*fastEntry)})
	return d
}

// Tx is one reconfiguration in progress: its mutators edit the table under
// the DFM's lock without publishing, so callers keep resolving against the
// previous snapshot until Update returns. A Tx is valid only inside the
// function Update handed it to.
type Tx struct {
	d     *DFM
	dirty bool
}

// Update runs fn as one transaction: one hold of the mutation lock, and — if
// fn changed the table — exactly one published snapshot when it returns, so
// callers observe the configuration before fn or the one after it, never a
// table in between. Update does not undo: when fn returns an error, whatever
// it had already staged is published (each mutator validates before it edits,
// so the table is consistent after every step) and the error is returned.
// fn must not call the DFM's own methods — they take the same lock.
func (d *DFM) Update(fn func(tx *Tx) error) error {
	_, err := d.UpdateAt(fn)
	return err
}

// UpdateAt is Update that also reports Publishes() as the transaction left
// it, read under the same hold of the lock: a later Publishes() that differs
// means the table has changed since.
func (d *DFM) UpdateAt(fn func(tx *Tx) error) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tx := Tx{d: d}
	err := fn(&tx)
	if tx.dirty {
		d.publishLocked()
		d.publishes.Add(1)
	}
	return d.publishes.Load(), err
}

// Publishes reports how many lookup snapshots the DFM has published — one
// per transaction that changed the table.
func (d *DFM) Publishes() uint64 { return d.publishes.Load() }

// publishLocked publishes a fresh lookup snapshot over the entries' rows,
// building one only where it is missing or its exported flag stale, so a
// publish allocates rows only for what it touched. The caller holds d.mu.
func (d *DFM) publishLocked() {
	byFunc := make(map[string]*fastEntry, len(d.entries))
	for _, e := range d.entries {
		if e.desc.Enabled {
			if e.row == nil || e.row.exported != e.desc.Exported {
				e.row = &fastEntry{impl: e.impl, exported: e.desc.Exported, live: e}
				if d.histFor != nil {
					e.row.hist = d.histFor(e.desc.Function)
				}
			}
			byFunc[e.desc.Function] = e.row
		} else if _, known := byFunc[e.desc.Function]; !known {
			byFunc[e.desc.Function] = nil
		}
	}
	d.lookup.Store(&lookupTable{byFunc: byFunc})
}

// EnableLatency turns on per-function latency metering: histFor is invoked
// as each enabled function's row is built and the returned histogram
// observes the duration of every call begun through BeginCall or
// BeginExportedCall. Passing nil turns metering back off. The change takes
// effect immediately (every row is rebuilt and republished), and, since it
// changes no entry, it leaves Publishes() as it was.
func (d *DFM) EnableLatency(histFor func(function string) *metrics.Histogram) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.histFor = histFor
	for _, e := range d.entries {
		e.row = nil
	}
	d.publishLocked()
}

// The per-operation mutators below are one-operation transactions.

// Add inserts a new entry bound to impl. The entry starts in the state
// carried by desc; enabling a function that already has an enabled
// implementation fails.
func (d *DFM) Add(desc EntryDesc, impl registry.Func) error {
	return d.Update(func(tx *Tx) error { return tx.Add(desc, impl) })
}

// Enable makes the keyed implementation the one that services calls to its
// function.
func (d *DFM) Enable(key EntryKey) error {
	return d.Update(func(tx *Tx) error { return tx.Enable(key) })
}

// Disable stops the keyed implementation from servicing calls. Unless force
// is set, disabling a permanent implementation or one that a satisfied
// dependency relies on is refused. Threads already executing inside the
// function proceed (§3.2: "there is no reason why a thread cannot proceed
// inside a deactivated function").
func (d *DFM) Disable(key EntryKey, force bool) error {
	return d.Update(func(tx *Tx) error { return tx.Disable(key, force) })
}

// Remove deletes a disabled entry from the table.
func (d *DFM) Remove(key EntryKey) error {
	return d.Update(func(tx *Tx) error { return tx.Remove(key) })
}

// RemoveComponent deletes every entry belonging to the component. Entries
// must all be disabled first.
func (d *DFM) RemoveComponent(component string) error {
	return d.Update(func(tx *Tx) error { return tx.RemoveComponent(component) })
}

// SetFlags updates an entry's exported/mandatory/permanent flags (enabled
// state is changed only through Enable/Disable).
func (d *DFM) SetFlags(key EntryKey, exported, mandatory, permanent bool) error {
	return d.Update(func(tx *Tx) error { return tx.SetFlags(key, exported, mandatory, permanent) })
}

// SetDeps replaces the dependency set wholesale (used when applying a
// validated descriptor).
func (d *DFM) SetDeps(deps []Dependency) {
	_ = d.Update(func(tx *Tx) error { tx.SetDeps(deps); return nil })
}

// AddDep validates and installs one dependency. Installation fails if the
// dependency is immediately violated by the current enabled set.
func (d *DFM) AddDep(dep Dependency) error {
	return d.Update(func(tx *Tx) error { return tx.AddDep(dep) })
}

// DropDepsMentioning removes every dependency that names the component in
// either role. Dependencies "evolve along with the implementation" (§3.2):
// when a component leaves the object, constraints tied to it are retracted.
func (d *DFM) DropDepsMentioning(component string) {
	_ = d.Update(func(tx *Tx) error { tx.DropDepsMentioning(component); return nil })
}

// Add stages DFM.Add.
func (tx *Tx) Add(desc EntryDesc, impl registry.Func) error {
	if desc.Function == "" || desc.Component == "" {
		return fmt.Errorf("%w: empty function or component", ErrUnknownEntry)
	}
	d, key := tx.d, desc.Key()
	if _, exists := d.entries[key]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicateEntry, key)
	}
	e := &liveEntry{desc: desc, impl: impl}
	if desc.Enabled {
		if cur := d.enabled[desc.Function]; cur != nil {
			return fmt.Errorf("%w: %q already enabled in %q", ErrAlreadyEnabled, desc.Function, cur.desc.Component)
		}
		d.enabled[desc.Function] = e
	}
	d.entries[key] = e
	tx.dirty = true
	return nil
}

// EnabledImpl returns the component whose implementation of function is
// enabled, as staged so far.
func (tx *Tx) EnabledImpl(function string) (component string, ok bool) {
	if cur := tx.d.enabled[function]; cur != nil {
		return cur.desc.Component, true
	}
	return "", false
}

// PermanentImpl returns the component holding a permanent implementation of
// function, as staged so far.
func (tx *Tx) PermanentImpl(function string) (component string, ok bool) {
	for _, e := range tx.d.entries {
		if e.desc.Function == function && e.desc.Permanent {
			return e.desc.Component, true
		}
	}
	return "", false
}

// Enable stages DFM.Enable.
func (tx *Tx) Enable(key EntryKey) error {
	d := tx.d
	e, ok := d.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEntry, key)
	}
	if e.desc.Enabled {
		return nil
	}
	if cur := d.enabled[key.Function]; cur != nil {
		return fmt.Errorf("%w: %q already enabled in %q", ErrAlreadyEnabled, key.Function, cur.desc.Component)
	}
	e.desc.Enabled = true
	d.enabled[key.Function] = e
	tx.dirty = true
	return nil
}

// Disable stages DFM.Disable.
func (tx *Tx) Disable(key EntryKey, force bool) error {
	d := tx.d
	e, ok := d.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEntry, key)
	}
	if !e.desc.Enabled {
		return nil
	}
	if !force {
		if e.desc.Permanent {
			return fmt.Errorf("%w: %s", ErrPermanent, key)
		}
		if dep, violated := d.wouldViolateLocked(key); violated {
			return fmt.Errorf("%w: %s requires %s", ErrDependency, dep, key)
		}
	}
	e.desc.Enabled = false
	delete(d.enabled, key.Function)
	tx.dirty = true
	return nil
}

// wouldViolateLocked reports whether disabling key breaks a dependency whose
// premise remains triggered.
func (d *DFM) wouldViolateLocked(key EntryKey) (Dependency, bool) {
	for _, dep := range d.deps {
		// Would the conclusion still hold without this entry?
		if !dep.SatisfiedBy(key.Function, key.Component) {
			continue
		}
		stillSatisfied := false
		for k, e := range d.entries {
			if k != key && e.desc.Enabled && dep.SatisfiedBy(k.Function, k.Component) {
				stillSatisfied = true
				break
			}
		}
		if stillSatisfied {
			continue
		}
		// Conclusion would break; is the premise triggered by an enabled
		// entry other than the one being disabled?
		for k, e := range d.entries {
			if k != key && e.desc.Enabled && dep.AppliesTo(k.Function, k.Component) {
				return dep, true
			}
		}
	}
	return Dependency{}, false
}

// Remove stages DFM.Remove.
func (tx *Tx) Remove(key EntryKey) error {
	e, ok := tx.d.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEntry, key)
	}
	if e.desc.Enabled {
		return fmt.Errorf("%w: %s", ErrEntryEnabled, key)
	}
	delete(tx.d.entries, key)
	tx.dirty = true
	return nil
}

// RemoveComponent stages DFM.RemoveComponent.
func (tx *Tx) RemoveComponent(component string) error {
	d := tx.d
	for key, e := range d.entries {
		if key.Component == component && e.desc.Enabled {
			return fmt.Errorf("%w: %s", ErrEntryEnabled, key)
		}
	}
	for key := range d.entries {
		if key.Component == component {
			delete(d.entries, key)
			tx.dirty = true
		}
	}
	return nil
}

// SetFlags stages DFM.SetFlags.
func (tx *Tx) SetFlags(key EntryKey, exported, mandatory, permanent bool) error {
	e, ok := tx.d.entries[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownEntry, key)
	}
	e.desc.Exported = exported
	e.desc.Mandatory = mandatory
	e.desc.Permanent = permanent
	tx.dirty = true
	return nil
}

// SetDeps stages DFM.SetDeps. Dependencies are not part of the lookup
// snapshot, so the dependency mutators never cause a publish.
func (tx *Tx) SetDeps(deps []Dependency) {
	tx.d.deps = append([]Dependency(nil), deps...)
}

// AddDep stages DFM.AddDep.
func (tx *Tx) AddDep(dep Dependency) error {
	if err := dep.Validate(); err != nil {
		return err
	}
	d := tx.d
	triggered, satisfied := false, false
	for k, e := range d.entries {
		if !e.desc.Enabled {
			continue
		}
		if dep.AppliesTo(k.Function, k.Component) {
			triggered = true
		}
		if dep.SatisfiedBy(k.Function, k.Component) {
			satisfied = true
		}
	}
	if triggered && !satisfied {
		return fmt.Errorf("%w: %s is violated by the current configuration", ErrDependency, dep)
	}
	d.deps = append(d.deps, dep)
	return nil
}

// DropDepsMentioning stages DFM.DropDepsMentioning.
func (tx *Tx) DropDepsMentioning(component string) {
	d := tx.d
	kept := d.deps[:0]
	for _, dep := range d.deps {
		if dep.FromComp == component || dep.ToComp == component {
			continue
		}
		kept = append(kept, dep)
	}
	d.deps = kept
}

// Deps returns a copy of the installed dependencies.
func (d *DFM) Deps() []Dependency {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Dependency, len(d.deps))
	copy(out, d.deps)
	return out
}

// BeginCall resolves function to its enabled implementation, increments the
// implementation's active-thread counter, and returns the implementation
// together with a release function the caller must invoke when the call
// completes. This is the whole invocation fast path: one atomic pointer
// load, one map lookup, two atomic adds.
func (d *DFM) BeginCall(function string) (registry.Func, func(), error) {
	fe, err := d.resolve(function)
	if err != nil {
		return nil, nil, err
	}
	live := fe.live
	live.active.Add(1)
	live.calls.Add(1)
	if fe.hist != nil {
		return fe.impl, timedRelease(live, fe.hist), nil
	}
	return fe.impl, func() { live.active.Add(-1) }, nil
}

// BeginExportedCall is BeginCall restricted to exported functions — the
// entry point for invocations arriving from other objects. Internal
// functions fail with ErrNotExported.
func (d *DFM) BeginExportedCall(function string) (registry.Func, func(), error) {
	fe, err := d.resolve(function)
	if err != nil {
		return nil, nil, err
	}
	if !fe.exported {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotExported, function)
	}
	live := fe.live
	live.active.Add(1)
	live.calls.Add(1)
	if fe.hist != nil {
		return fe.impl, timedRelease(live, fe.hist), nil
	}
	return fe.impl, func() { live.active.Add(-1) }, nil
}

// timedRelease builds a release closure that also records the call's
// duration into hist. Split out so the unmetered fast path keeps its
// original, smaller closure.
func timedRelease(live *liveEntry, hist *metrics.Histogram) func() {
	start := time.Now()
	return func() {
		live.active.Add(-1)
		hist.Observe(time.Since(start))
	}
}

func (d *DFM) resolve(function string) (*fastEntry, error) {
	table := d.lookup.Load()
	fe, known := table.byFunc[function]
	if !known {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, function)
	}
	if fe == nil {
		return nil, fmt.Errorf("%w: %q", ErrDisabledFunction, function)
	}
	return fe, nil
}

// Peek resolves function to its enabled implementation without touching the
// active-thread or call counters. It exists for status probes and for the
// ablation benchmark isolating the counters' cost; the invocation path must
// use BeginCall so thread activity monitoring stays accurate.
func (d *DFM) Peek(function string) (registry.Func, error) {
	fe, err := d.resolve(function)
	if err != nil {
		return nil, err
	}
	return fe.impl, nil
}

// LookupMutex is the ablation variant of the BeginCall resolution step: it
// takes the mutation mutex on every call instead of reading the immutable
// snapshot. Only benchmarks use it.
func (d *DFM) LookupMutex(function string) (registry.Func, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	known := false
	for _, e := range d.entries {
		if e.desc.Function != function {
			continue
		}
		known = true
		if e.desc.Enabled {
			return e.impl, nil
		}
	}
	if !known {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, function)
	}
	return nil, fmt.Errorf("%w: %q", ErrDisabledFunction, function)
}

// Entry returns a copy of the keyed entry's descriptor state.
func (d *DFM) Entry(key EntryKey) (EntryDesc, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[key]
	if !ok {
		return EntryDesc{}, false
	}
	return e.desc, true
}

// Entries returns the table's entries sorted by key.
func (d *DFM) Entries() []EntryDesc {
	out := d.EntriesUnordered()
	slices.SortFunc(out, func(a, b EntryDesc) int {
		if c := strings.Compare(a.Function, b.Function); c != 0 {
			return c
		}
		return strings.Compare(a.Component, b.Component)
	})
	return out
}

// EntriesUnordered returns the table's entries in no particular order, for
// callers (planning an evolution) that would pay for a sort they do not need.
func (d *DFM) EntriesUnordered() []EntryDesc {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]EntryDesc, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e.desc)
	}
	return out
}

// ComponentKeys returns the keys of the named components' entries, grouped
// by component, in one pass over the table and without copying it.
func (d *DFM) ComponentKeys(ids []string) map[string][]EntryKey {
	if len(ids) == 0 {
		return nil
	}
	out := make(map[string][]EntryKey, len(ids))
	for _, id := range ids {
		out[id] = nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for key := range d.entries {
		if keys, wanted := out[key.Component]; wanted {
			out[key.Component] = append(keys, key)
		}
	}
	return out
}

// ActiveThreads reports the keyed implementation's active-thread count.
func (d *DFM) ActiveThreads(key EntryKey) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		return e.active.Load()
	}
	return 0
}

// ComponentActive reports the number of threads executing inside any
// function of the component — the check a DCDO runs before removing a
// component (§3.2, thread activity monitoring).
func (d *DFM) ComponentActive(component string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for key, e := range d.entries {
		if key.Component == component {
			total += e.active.Load()
		}
	}
	return total
}

// Calls reports how many invocations the keyed implementation has serviced.
func (d *DFM) Calls(key EntryKey) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		return e.calls.Load()
	}
	return 0
}

// CallCounts reports every function's total serviced invocations, summed
// across that function's implementations — the per-function view the obs
// registry exports.
func (d *DFM) CallCounts() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]uint64, len(d.entries))
	for key, e := range d.entries {
		out[key.Function] += e.calls.Load()
	}
	return out
}

// DependentsActive reports the number of threads executing inside enabled
// functions that depend (directly) on the keyed implementation — used to
// postpone disables until dependent callers drain (§3.2).
func (d *DFM) DependentsActive(key EntryKey) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, dep := range d.deps {
		if !dep.SatisfiedBy(key.Function, key.Component) {
			continue
		}
		for k, e := range d.entries {
			if e.desc.Enabled && dep.AppliesTo(k.Function, k.Component) {
				total += e.active.Load()
			}
		}
	}
	return total
}
