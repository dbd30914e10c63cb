// Package manager implements the DCDO Manager object type (§2.4): the DFM
// store holding the version tree of DFM descriptors (each configurable or
// instantiable), the DCDO table tracking managed instances, version
// derivation and configuration, and the evolution driving governed by the
// policies in package evolution.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"godcdo/internal/dfm"
	"godcdo/internal/version"
)

// VersionState distinguishes configurable from instantiable versions.
type VersionState int

// Version states (§2.4).
const (
	// StateConfigurable versions can be edited but cannot create or evolve
	// DCDOs.
	StateConfigurable VersionState = iota + 1
	// StateInstantiable versions can create and evolve DCDOs but can no
	// longer be edited.
	StateInstantiable
)

// String implements fmt.Stringer.
func (s VersionState) String() string {
	switch s {
	case StateConfigurable:
		return "configurable"
	case StateInstantiable:
		return "instantiable"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by the store.
var (
	// ErrUnknownVersion is returned for versions absent from the store.
	ErrUnknownVersion = errors.New("manager: unknown version")
	// ErrVersionFrozen is returned when configuring an instantiable
	// version.
	ErrVersionFrozen = errors.New("manager: version is instantiable and cannot be configured")
	// ErrVersionNotReady is returned when using a configurable version to
	// create or evolve DCDOs.
	ErrVersionNotReady = errors.New("manager: version is not instantiable")
	// ErrRootExists is returned when creating a second root version.
	ErrRootExists = errors.New("manager: root version already exists")
)

// versionNode is one node of the version tree.
type versionNode struct {
	id        version.ID
	state     VersionState
	desc      *dfm.Descriptor
	parent    version.ID // nil for the root
	children  []version.ID
	nextChild uint32
}

// Store is the DFM store: the version tree of DFM descriptors for one
// object type. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	nodes map[string]*versionNode
	root  version.ID
	// plans caches Plan's changes, at most maxPlans of them; diffs counts
	// the changes computed.
	plans map[[2]string]*dfm.Change
	diffs uint64
}

// maxPlans bounds the plan cache: a manager moves its objects between a
// handful of versions at a time.
const maxPlans = 64

// NewStore returns an empty DFM store.
func NewStore() *Store {
	return &Store{nodes: make(map[string]*versionNode), plans: make(map[[2]string]*dfm.Change)}
}

// CreateRoot installs the tree's root version (conventionally version 1) in
// the configurable state with the given descriptor (nil means empty).
func (s *Store) CreateRoot(desc *dfm.Descriptor) (version.ID, error) {
	if desc == nil {
		desc = dfm.NewDescriptor()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.root.IsZero() {
		return nil, ErrRootExists
	}
	return s.addLocked(nil, StateConfigurable, desc.Clone()), nil
}

// Root returns the root version, or nil when none exists.
func (s *Store) Root() version.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Clone()
}

// Derive creates a new configurable version by logically copying an existing
// one (§2.4). Child identifiers are allocated as from.<n> with n increasing.
func (s *Store) Derive(from version.ID) (version.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, ok := s.nodes[from.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, from)
	}
	return s.addLocked(parent, StateConfigurable, parent.desc.Clone()), nil
}

// Author stores a new instantiable version in one checked step: it edits a
// copy of parent's descriptor through fn (an empty descriptor when parent is
// zero, which authors the root), checks the result as MarkInstantiable
// would, and only then allocates the version's id. A refusal, fn's own
// error included, stores nothing and uses up no child number. fn runs under
// the store's lock, so it must not call the store.
func (s *Store) Author(parent version.ID, fn func(*dfm.Descriptor) error) (version.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var from *versionNode
	desc := dfm.NewDescriptor()
	if parent.IsZero() {
		if !s.root.IsZero() {
			return nil, ErrRootExists
		}
	} else {
		var ok bool
		if from, ok = s.nodes[parent.String()]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, parent)
		}
		desc = from.desc.Clone()
	}
	if err := fn(desc); err != nil {
		return nil, err
	}
	if err := checkInstantiable(desc, from); err != nil {
		return nil, fmt.Errorf("author %s: %w", nextID(from), err)
	}
	return s.addLocked(from, StateInstantiable, desc), nil
}

// addLocked stores desc as a new version, nextID(parent). The store takes
// desc over.
func (s *Store) addLocked(parent *versionNode, state VersionState, desc *dfm.Descriptor) version.ID {
	node := &versionNode{id: nextID(parent), state: state, desc: desc}
	if parent == nil {
		s.root = node.id
	} else {
		parent.nextChild++
		node.parent = parent.id.Clone()
		parent.children = append(parent.children, node.id)
	}
	s.nodes[node.id.String()] = node
	return node.id.Clone()
}

// nextID is the id the next version stored under parent gets: the root's
// when parent is nil.
func nextID(parent *versionNode) version.ID {
	if parent == nil {
		return version.Root.Clone()
	}
	return parent.id.Child(parent.nextChild + 1)
}

// Configure edits a configurable version's descriptor through fn. The
// descriptor must remain structurally valid; otherwise the edit is rolled
// back.
func (s *Store) Configure(v version.ID, fn func(*dfm.Descriptor) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	if node.state != StateConfigurable {
		return fmt.Errorf("%w: %s", ErrVersionFrozen, v)
	}
	working := node.desc.Clone()
	if err := fn(working); err != nil {
		return err
	}
	if err := working.Validate(); err != nil {
		return fmt.Errorf("configure %s: %w", v, err)
	}
	node.desc = working
	return nil
}

// MarkInstantiable freezes a configurable version after checking the
// instantiability rules (§3.2) and the derivation constraints inherited from
// its parent. Once instantiable, a version's descriptor never changes,
// which is what lets a <manager, version id> pair uniquely identify an
// interface and implementation.
func (s *Store) MarkInstantiable(v version.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	if node.state == StateInstantiable {
		return nil
	}
	if err := checkInstantiable(node.desc, s.nodes[node.parent.String()]); err != nil {
		return fmt.Errorf("mark %s instantiable: %w", v, err)
	}
	node.state = StateInstantiable
	return nil
}

// checkInstantiable holds desc to the rules a version must pass to become
// instantiable: its own (§3.2), then those inherited from parent, which is
// nil for the root.
func checkInstantiable(desc *dfm.Descriptor, parent *versionNode) error {
	if err := desc.ValidateInstantiable(); err != nil {
		return err
	}
	if parent == nil {
		return nil
	}
	return desc.ValidateDerivation(parent.desc)
}

// State returns a version's state.
func (s *Store) State(v version.ID) (VersionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	return node.state, nil
}

// Descriptor returns a copy of a version's descriptor.
func (s *Store) Descriptor(v version.ID) (*dfm.Descriptor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	return node.desc.Clone(), nil
}

// InstantiableDescriptor returns a copy of an instantiable version's
// descriptor; configurable versions are refused (§2.4: they "cannot be used
// to create a new DCDO, or to evolve an existing DCDO").
func (s *Store) InstantiableDescriptor(v version.ID) (*dfm.Descriptor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, err := s.instantiableLocked(v)
	if err != nil {
		return nil, err
	}
	return node.desc.Clone(), nil
}

func (s *Store) instantiableLocked(v version.ID) (*versionNode, error) {
	node, ok := s.nodes[v.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	if node.state != StateInstantiable {
		return nil, fmt.Errorf("%w: %s", ErrVersionNotReady, v)
	}
	return node, nil
}

// Plan returns the change that moves an object configured as version from to
// version to, diffing their descriptors once per pair. to must be
// instantiable: Plan returns InstantiableDescriptor's error otherwise. When
// from is not instantiable there is no plan, and the change is nil. An
// instantiable version's descriptor never changes, so a cached plan never
// goes stale. The change is shared; callers must not modify it.
func (s *Store) Plan(from, to version.ID) (*dfm.Change, error) {
	key := [2]string{from.String(), to.String()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.plans[key]; ok {
		return c, nil
	}
	t, err := s.instantiableLocked(to)
	if err != nil {
		return nil, err
	}
	f, err := s.instantiableLocked(from)
	if err != nil {
		return nil, nil
	}
	if len(s.plans) >= maxPlans {
		for k := range s.plans {
			delete(s.plans, k) // any one: the bound matters, not the choice
			break
		}
	}
	c := dfm.NewChange(f.desc, t.desc)
	s.plans[key] = c
	s.diffs++
	return c, nil
}

// Diffs reports how many changes Plan has computed rather than found cached.
func (s *Store) Diffs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diffs
}

// IsInstantiable reports whether v exists and is instantiable.
func (s *Store) IsInstantiable(v version.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.instantiableLocked(v)
	return err == nil
}

// Parent returns a version's parent (nil for the root).
func (s *Store) Parent(v version.ID) (version.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	return node.parent.Clone(), nil
}

// Children returns a version's direct children in derivation order.
func (s *Store) Children(v version.ID) ([]version.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, ok := s.nodes[v.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, v)
	}
	out := make([]version.ID, len(node.children))
	for i, c := range node.children {
		out[i] = c.Clone()
	}
	return out, nil
}

// Versions returns every version in the store, sorted.
func (s *Store) Versions() []version.ID {
	s.mu.Lock()
	out := make([]version.ID, 0, len(s.nodes))
	for _, node := range s.nodes {
		out = append(out, node.id.Clone())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Len reports the number of versions in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}
