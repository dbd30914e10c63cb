package dfm

import (
	"errors"
	"fmt"
	"sort"

	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/wire"
)

// Errors returned by descriptor validation.
var (
	// ErrInvalidDescriptor is returned for structurally broken descriptors.
	ErrInvalidDescriptor = errors.New("dfm: invalid descriptor")
	// ErrNotInstantiable is returned when a descriptor fails the stricter
	// checks required before a version may be marked instantiable.
	ErrNotInstantiable = errors.New("dfm: descriptor not instantiable")
	// ErrIllegalDerivation is returned when a derived descriptor violates a
	// mandatory or permanent constraint inherited from its parent.
	ErrIllegalDerivation = errors.New("dfm: illegal derivation")
	// ErrCorruptDescriptor is returned when a descriptor cannot be decoded.
	ErrCorruptDescriptor = errors.New("dfm: corrupt descriptor")
)

// EntryKey identifies one function implementation: a (function, component)
// pair.
type EntryKey struct {
	Function  string
	Component string
}

// String renders "function@component".
func (k EntryKey) String() string { return k.Function + "@" + k.Component }

// EntryDesc is the descriptor form of one DFM entry.
type EntryDesc struct {
	Function  string
	Component string
	// Exported marks the function callable from outside the object.
	Exported bool
	// Enabled marks this implementation as the one that services calls.
	Enabled bool
	// Mandatory marks the *function* as mandatory (§3.2): some
	// implementation must remain present in all derived versions.
	Mandatory bool
	// Permanent freezes this *implementation* (§3.2): it must remain the
	// enabled implementation in all derived versions.
	Permanent bool
}

// Key returns the entry's identity.
func (e EntryDesc) Key() EntryKey {
	return EntryKey{Function: e.Function, Component: e.Component}
}

// ComponentRef records where a version's component can be obtained (the ICO
// holding it) plus cached metadata used without contacting the ICO.
type ComponentRef struct {
	ICO      naming.LOID
	CodeRef  string
	Impl     registry.ImplType
	CodeSize int64
	Revision uint64
}

// Descriptor mirrors a DFM's structure without its live function bindings
// (§2.4): DCDO Managers keep descriptors in their DFM stores and use them to
// configure DCDOs at creation, migration, and evolution time.
type Descriptor struct {
	Entries    []EntryDesc
	Deps       []Dependency
	Components map[string]ComponentRef
}

// NewDescriptor returns an empty descriptor.
func NewDescriptor() *Descriptor {
	return &Descriptor{Components: make(map[string]ComponentRef)}
}

// Clone returns a deep copy — the "logical copy" a manager makes when
// deriving a new configurable version from an existing one.
func (d *Descriptor) Clone() *Descriptor {
	out := &Descriptor{
		Entries:    make([]EntryDesc, len(d.Entries)),
		Deps:       make([]Dependency, len(d.Deps)),
		Components: make(map[string]ComponentRef, len(d.Components)),
	}
	copy(out.Entries, d.Entries)
	copy(out.Deps, d.Deps)
	for id, ref := range d.Components {
		out.Components[id] = ref
	}
	return out
}

// Entry returns a pointer to the entry with the given key, or nil.
func (d *Descriptor) Entry(key EntryKey) *EntryDesc {
	for i := range d.Entries {
		if d.Entries[i].Key() == key {
			return &d.Entries[i]
		}
	}
	return nil
}

// EnabledImpl returns the enabled implementation of the named function, or
// nil when the function has no enabled implementation.
func (d *Descriptor) EnabledImpl(function string) *EntryDesc {
	for i := range d.Entries {
		if d.Entries[i].Function == function && d.Entries[i].Enabled {
			return &d.Entries[i]
		}
	}
	return nil
}

// FunctionNames returns the sorted set of function names with at least one
// entry.
func (d *Descriptor) FunctionNames() []string {
	set := make(map[string]bool)
	for _, e := range d.Entries {
		set[e.Function] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Interface returns the sorted names of enabled exported functions — what a
// client discovers when it asks the object for its interface.
func (d *Descriptor) Interface() []string {
	var names []string
	for _, e := range d.Entries {
		if e.Enabled && e.Exported {
			names = append(names, e.Function)
		}
	}
	sort.Strings(names)
	return names
}

// Validate checks structural consistency: unique entries, components
// resolvable, at most one enabled and at most one permanent implementation
// per function, permanent implies mandatory, dependencies well-formed.
func (d *Descriptor) Validate() error {
	seen := make(map[EntryKey]bool, len(d.Entries))
	enabledBy := make(map[string]string) // function -> component with enabled impl
	permanentBy := make(map[string]string)
	for _, e := range d.Entries {
		if e.Function == "" || e.Component == "" {
			return fmt.Errorf("%w: entry with empty function or component", ErrInvalidDescriptor)
		}
		key := e.Key()
		if seen[key] {
			return fmt.Errorf("%w: duplicate entry %s", ErrInvalidDescriptor, key)
		}
		seen[key] = true
		if _, ok := d.Components[e.Component]; !ok {
			return fmt.Errorf("%w: entry %s references unknown component", ErrInvalidDescriptor, key)
		}
		if e.Enabled {
			if prev, ok := enabledBy[e.Function]; ok {
				return fmt.Errorf("%w: function %q enabled in both %q and %q",
					ErrInvalidDescriptor, e.Function, prev, e.Component)
			}
			enabledBy[e.Function] = e.Component
		}
		if e.Permanent {
			if !e.Mandatory {
				return fmt.Errorf("%w: permanent entry %s must be mandatory", ErrInvalidDescriptor, key)
			}
			if prev, ok := permanentBy[e.Function]; ok {
				// §3.2: incorporating a component with a permanent
				// implementation of a function that already has one fails.
				return fmt.Errorf("%w: function %q has permanent implementations in both %q and %q",
					ErrInvalidDescriptor, e.Function, prev, e.Component)
			}
			permanentBy[e.Function] = e.Component
		}
	}
	for _, dep := range d.Deps {
		if err := dep.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidDescriptor, err)
		}
	}
	return nil
}

// DependencyViolations returns every dependency whose premise is triggered
// by an enabled entry but whose conclusion is not discharged by any enabled
// entry.
func (d *Descriptor) DependencyViolations() []Dependency {
	var violated []Dependency
	for _, dep := range d.Deps {
		triggered := false
		for _, e := range d.Entries {
			if e.Enabled && dep.AppliesTo(e.Function, e.Component) {
				triggered = true
				break
			}
		}
		if !triggered {
			continue
		}
		satisfied := false
		for _, e := range d.Entries {
			if e.Enabled && dep.SatisfiedBy(e.Function, e.Component) {
				satisfied = true
				break
			}
		}
		if !satisfied {
			violated = append(violated, dep)
		}
	}
	return violated
}

// ValidateInstantiable applies the checks a DCDO Manager runs before marking
// a version instantiable (§2.4, §3.2): structure is valid, every mandatory
// function has an enabled implementation, every permanent implementation is
// enabled, and all dependencies are satisfied.
func (d *Descriptor) ValidateInstantiable() error {
	if err := d.Validate(); err != nil {
		return err
	}
	mandatoryFuncs := make(map[string]bool)
	for _, e := range d.Entries {
		if e.Mandatory {
			mandatoryFuncs[e.Function] = true
		}
		if e.Permanent && !e.Enabled {
			return fmt.Errorf("%w: permanent implementation %s is disabled", ErrNotInstantiable, e.Key())
		}
	}
	for f := range mandatoryFuncs {
		if d.EnabledImpl(f) == nil {
			return fmt.Errorf("%w: mandatory function %q has no enabled implementation", ErrNotInstantiable, f)
		}
	}
	if violated := d.DependencyViolations(); len(violated) > 0 {
		return fmt.Errorf("%w: dependency %s not satisfied", ErrNotInstantiable, violated[0])
	}
	return nil
}

// ValidateDerivation checks the constraints a child version inherits from
// the version it derives from (§3.2): mandatory functions stay present and
// mandatory; permanent implementations stay present, permanent, and remain
// the enabled implementation of their function.
func (d *Descriptor) ValidateDerivation(parent *Descriptor) error {
	parentMandatory := make(map[string]bool)
	for _, e := range parent.Entries {
		if e.Mandatory {
			parentMandatory[e.Function] = true
		}
	}
	childHasFunc := make(map[string]bool)
	childMandatory := make(map[string]bool)
	for _, e := range d.Entries {
		childHasFunc[e.Function] = true
		if e.Mandatory {
			childMandatory[e.Function] = true
		}
	}
	for f := range parentMandatory {
		if !childHasFunc[f] {
			return fmt.Errorf("%w: mandatory function %q removed", ErrIllegalDerivation, f)
		}
		if !childMandatory[f] {
			return fmt.Errorf("%w: mandatory function %q demoted", ErrIllegalDerivation, f)
		}
	}
	for _, pe := range parent.Entries {
		if !pe.Permanent {
			continue
		}
		ce := d.Entry(pe.Key())
		if ce == nil {
			return fmt.Errorf("%w: permanent implementation %s removed", ErrIllegalDerivation, pe.Key())
		}
		if !ce.Permanent {
			return fmt.Errorf("%w: permanent implementation %s demoted", ErrIllegalDerivation, pe.Key())
		}
		if !ce.Enabled {
			return fmt.Errorf("%w: permanent implementation %s disabled", ErrIllegalDerivation, pe.Key())
		}
		if impl := d.EnabledImpl(pe.Function); impl == nil || impl.Key() != pe.Key() {
			return fmt.Errorf("%w: permanent function %q rebound away from %s",
				ErrIllegalDerivation, pe.Function, pe.Key())
		}
	}
	return nil
}

// Equivalent reports functional equivalence (§2.1): "the same components are
// incorporated into the two objects, and the DFMs of the objects are
// functionally equivalent (the same function implementations are enabled and
// exported)".
func (d *Descriptor) Equivalent(other *Descriptor) bool {
	if len(d.Components) != len(other.Components) {
		return false
	}
	for id := range d.Components {
		if _, ok := other.Components[id]; !ok {
			return false
		}
	}
	type state struct{ enabled, exported bool }
	collect := func(desc *Descriptor) map[EntryKey]state {
		m := make(map[EntryKey]state, len(desc.Entries))
		for _, e := range desc.Entries {
			if e.Enabled {
				m[e.Key()] = state{enabled: true, exported: e.Exported}
			}
		}
		return m
	}
	a, b := collect(d), collect(other)
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Encode serialises the descriptor for transfer between a manager and its
// DCDOs.
func (d *Descriptor) Encode() []byte {
	e := wire.NewEncoder(64 + 32*len(d.Entries))
	PutCounted(e, d.Entries, PutEntry)
	PutCounted(e, d.Deps, PutDependency)
	ids := make([]string, 0, len(d.Components))
	for id := range d.Components {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.PutUvarint(uint64(len(ids)))
	for _, id := range ids {
		e.PutString(id)
		PutComponentRef(e, d.Components[id])
	}
	return e.Bytes()
}

// DecodeDescriptor parses a descriptor encoded with Encode.
func DecodeDescriptor(buf []byte) (*Descriptor, error) {
	dec := wire.NewDecoder(buf)
	fail := func(what string, err error) (*Descriptor, error) {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptDescriptor, what, err)
	}
	d := NewDescriptor()
	var err error
	if d.Entries, err = GetCounted(dec, GetEntry); err != nil {
		return fail("entries", err)
	}
	if d.Deps, err = GetCounted(dec, GetDependency); err != nil {
		return fail("dependencies", err)
	}
	nComps, err := getCount(dec)
	if err != nil {
		return fail("component count", err)
	}
	for i := 0; i < nComps; i++ {
		id, err := dec.String()
		if err != nil {
			return fail("component id", err)
		}
		if d.Components[id], err = GetComponentRef(dec); err != nil {
			return fail("component "+id, err)
		}
	}
	return d, nil
}

// The pieces of the descriptor encoding, shared with the codecs that carry a
// Change (package core).

// PutEntry writes one entry.
func PutEntry(e *wire.Encoder, en EntryDesc) {
	e.PutString(en.Function)
	e.PutString(en.Component)
	e.PutBool(en.Exported)
	e.PutBool(en.Enabled)
	e.PutBool(en.Mandatory)
	e.PutBool(en.Permanent)
}

// GetEntry reads a PutEntry entry.
func GetEntry(d *wire.Decoder) (en EntryDesc, err error) {
	if en.Function, err = d.String(); err != nil {
		return en, err
	}
	if en.Component, err = d.String(); err != nil {
		return en, err
	}
	for _, flag := range []*bool{&en.Exported, &en.Enabled, &en.Mandatory, &en.Permanent} {
		if *flag, err = d.Bool(); err != nil {
			return en, err
		}
	}
	return en, nil
}

// PutDependency writes one dependency.
func PutDependency(e *wire.Encoder, dep Dependency) {
	e.PutUvarint(uint64(dep.Kind))
	e.PutString(dep.FromFunc)
	e.PutString(dep.FromComp)
	e.PutString(dep.ToFunc)
	e.PutString(dep.ToComp)
}

// GetDependency reads a PutDependency dependency.
func GetDependency(d *wire.Decoder) (dep Dependency, err error) {
	kind, err := d.Uvarint()
	if err != nil {
		return dep, err
	}
	dep.Kind = DepKind(kind)
	for _, s := range []*string{&dep.FromFunc, &dep.FromComp, &dep.ToFunc, &dep.ToComp} {
		if *s, err = d.String(); err != nil {
			return dep, err
		}
	}
	return dep, nil
}

// PutComponentRef writes one component reference.
func PutComponentRef(e *wire.Encoder, ref ComponentRef) {
	e.PutString(ref.ICO.String())
	e.PutString(ref.CodeRef)
	e.PutString(ref.Impl.String())
	e.PutVarint(ref.CodeSize)
	e.PutUvarint(ref.Revision)
}

// GetComponentRef reads a PutComponentRef reference.
func GetComponentRef(d *wire.Decoder) (ref ComponentRef, err error) {
	s, err := d.String()
	if err != nil {
		return ref, err
	}
	if ref.ICO, err = naming.ParseLOID(s); err != nil {
		return ref, err
	}
	if ref.CodeRef, err = d.String(); err != nil {
		return ref, err
	}
	if s, err = d.String(); err != nil {
		return ref, err
	}
	if ref.Impl, err = registry.ParseImplType(s); err != nil {
		return ref, err
	}
	if ref.CodeSize, err = d.Varint(); err != nil {
		return ref, err
	}
	ref.Revision, err = d.Uvarint()
	return ref, err
}

// getCount reads a uvarint count, refusing one larger than the bytes left
// (each counted item takes at least one).
func getCount(d *wire.Decoder) (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorruptDescriptor, n, d.Remaining())
	}
	return int(n), nil
}

// PutCounted writes len(items), then each item with put.
func PutCounted[T any](e *wire.Encoder, items []T, put func(*wire.Encoder, T)) {
	e.PutUvarint(uint64(len(items)))
	for _, it := range items {
		put(e, it)
	}
}

// GetCounted reads a PutCounted count, then that many items with get.
func GetCounted[T any](d *wire.Decoder, get func(*wire.Decoder) (T, error)) ([]T, error) {
	n, err := getCount(d)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		if out[i], err = get(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}
