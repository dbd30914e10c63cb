// Package dcdo is the public API of godcdo, a from-scratch Go
// implementation of the Dynamically Configurable Distributed Object (DCDO)
// model from "Dynamically Configurable Distributed Objects in Legion"
// (Lewis, PODC 1999).
//
// The model defines three object types, all provided here:
//
//   - DCDO — a distributed object whose implementation is fragmented into
//     implementation components holding dynamic functions, routed through a
//     Dynamic Function Mapper (DFM). Functions can be enabled, disabled,
//     and replaced while the object runs and serves calls.
//   - ICO — an Implementation Component Object serving a component's
//     descriptor and code so components live in the system's global
//     namespace.
//   - Manager — a DCDO Manager maintaining the version tree of DFM
//     descriptors (configurable or instantiable) and the table of managed
//     instances, and driving their evolution under pluggable styles
//     (single-version, multi-version no-update / increasing / general /
//     hybrid) and update policies (proactive, explicit, lazy).
//
// A minimal in-process session:
//
//	greet := dcdo.DeclareFunction("greet", true, dcdo.NoneCodec, dcdo.RawCodec)
//	reg := dcdo.NewRegistry()
//	reg.Register("greeter:1", dcdo.NativeImplType, map[string]dcdo.Func{
//	    greet.Name: greet.Func(func(dcdo.Caller, dcdo.None) ([]byte, error) {
//	        return []byte("hello"), nil
//	    }),
//	})
//	comp, _ := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
//	    ID: "greeter", Revision: 1, CodeRef: "greeter:1",
//	    Impl: dcdo.NativeImplType, CodeSize: 1 << 10,
//	    Functions: []dcdo.FunctionDecl{{Name: greet.Name, Exported: true}},
//	})
//	obj := dcdo.New(dcdo.Config{Registry: reg, Fetcher: fetcher})
//	obj.IncorporateComponent(comp, icoLOID, true)
//	out, _ := obj.InvokeMethod(greet.Name, nil)                // in process
//	out, _ = greet.Call(ctx, node.Client(), loid, dcdo.None{}) // hosted on node
//
// See the examples directory for complete programs, including hot upgrades
// over TCP and multi-version fleets.
package dcdo

import (
	"context"
	"io"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/simnet"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/workload"
)

// --- Naming -----------------------------------------------------------------

type (
	// LOID is a Legion object identifier.
	LOID = naming.LOID
	// Address locates a live incarnation of an object.
	Address = naming.Address
	// BindingAgent is the authoritative LOID → Address registry.
	BindingAgent = naming.Agent
	// Allocator hands out fresh LOIDs.
	Allocator = naming.Allocator
	// DiscoverySchedule models stale-binding discovery time.
	DiscoverySchedule = naming.DiscoverySchedule
)

// ParseLOID parses the canonical "loid:d.c.i" form.
func ParseLOID(s string) (LOID, error) { return naming.ParseLOID(s) }

// NewAllocator returns a LOID allocator for a domain and class.
func NewAllocator(domain, class uint32) *Allocator { return naming.NewAllocator(domain, class) }

// NewBindingAgent returns an empty binding agent on the real clock.
func NewBindingAgent() *BindingAgent { return naming.NewAgent(vclock.Real{}) }

// --- Code registry (dynamic-loading substitute) ------------------------------

type (
	// Registry maps code references to modules of function implementations.
	Registry = registry.Registry
	// ImplType identifies an implementation's architecture/format/language.
	ImplType = registry.ImplType
	// Func is one dynamic function implementation.
	Func = registry.Func
	// Caller routes a dynamic function's intra-object calls through the DFM.
	Caller = registry.Caller
	// Module is an immutable bundle of function implementations.
	Module = registry.Module
)

// NativeImplType is the implementation type of components built for this
// runtime.
var NativeImplType = registry.NativeImplType

// AnyImplType matches every host.
var AnyImplType = registry.AnyImplType

// NewRegistry returns an empty code registry.
func NewRegistry() *Registry { return registry.New() }

// --- Declared dynamic functions --------------------------------------------------

// None is the argument or result of a dynamic function that carries nothing.
type None = rpc.None

// Payload codecs: None as nothing, bytes unframed, one uvarint.
var NoneCodec, RawCodec, UvarintCodec = rpc.NoneCodec, rpc.RawCodec, rpc.UvarintCodec

// DeclareFunction declares a dynamic function once (see rpc.Function): its
// name, whether it is an idempotent read, and its payload codecs. A generic
// type alias would need a newer Go version than the module's.
func DeclareFunction[A, R any](name string, idempotent bool, args rpc.Codec[A], result rpc.Codec[R]) rpc.Function[A, R] {
	return rpc.Function[A, R]{Name: name, Idempotent: idempotent, Args: args, Result: result}
}

// --- Components and ICOs ------------------------------------------------------

type (
	// ComponentDescriptor describes a component's functions and code.
	ComponentDescriptor = component.Descriptor
	// FunctionDecl describes one dynamic function in a component.
	FunctionDecl = component.FunctionDecl
	// Component bundles a descriptor with its code bytes.
	Component = component.Component
	// ICO is an Implementation Component Object.
	ICO = component.ICO
	// Fetcher obtains components by their ICO's LOID.
	Fetcher = component.Fetcher
	// FetcherFunc adapts a function to Fetcher.
	FetcherFunc = component.FetcherFunc
	// RemoteFetcher downloads components from ICOs over RPC.
	RemoteFetcher = component.RemoteFetcher
	// ComponentStore is a local component cache.
	ComponentStore = component.Store
	// CachingFetcher caches fetched components in a store.
	CachingFetcher = component.CachingFetcher
)

// NewSyntheticComponent builds a component with deterministic synthetic
// code bytes of the declared size.
func NewSyntheticComponent(desc ComponentDescriptor) (*Component, error) {
	return component.NewSynthetic(desc)
}

// NewICO returns an ICO serving comp.
func NewICO(comp *Component) *ICO { return component.NewICO(comp) }

// NewComponentStore returns an empty component cache.
func NewComponentStore() *ComponentStore { return component.NewStore() }

// --- DFM ----------------------------------------------------------------------

type (
	// DFM is the live Dynamic Function Mapper.
	DFM = dfm.DFM
	// EntryKey identifies a (function, component) implementation.
	EntryKey = dfm.EntryKey
	// EntryDesc is the descriptor form of one DFM entry.
	EntryDesc = dfm.EntryDesc
	// Descriptor mirrors a DFM's structure for version management.
	Descriptor = dfm.Descriptor
	// ComponentRef records where a component can be obtained.
	ComponentRef = dfm.ComponentRef
	// Dependency declares that one dynamic function requires another.
	Dependency = dfm.Dependency
	// DepKind distinguishes dependency types A–D.
	DepKind = dfm.DepKind
	// Plan describes the operations evolving one descriptor into another.
	Plan = dfm.Plan
)

// Dependency kinds (§3.2 of the paper).
const (
	DepA = dfm.DepA
	DepB = dfm.DepB
	DepC = dfm.DepC
	DepD = dfm.DepD
)

// NewDescriptor returns an empty DFM descriptor.
func NewDescriptor() *Descriptor { return dfm.NewDescriptor() }

// Diff computes the plan evolving current into target.
func Diff(current, target *Descriptor) Plan { return dfm.Diff(current, target) }

// --- The DCDO object type -------------------------------------------------------

type (
	// DCDO is a dynamically configurable distributed object.
	DCDO = core.DCDO
	// Config assembles a DCDO's dependencies.
	Config = core.Config
	// RemovalPolicy selects the thread-activity policy for component
	// removal.
	RemovalPolicy = core.RemovalPolicy
	// ApplyReport summarises one evolution.
	ApplyReport = core.ApplyReport
	// Event records one configuration change on a DCDO.
	Event = core.Event
	// EventKind classifies configuration events.
	EventKind = core.EventKind
)

// Event kinds.
const (
	EventIncorporated     = core.EventIncorporated
	EventComponentRemoved = core.EventComponentRemoved
	EventEnabled          = core.EventEnabled
	EventDisabled         = core.EventDisabled
	EventEvolved          = core.EventEvolved
	EventDependencyAdded  = core.EventDependencyAdded
)

// Removal policies (§3.2, thread activity monitoring).
const (
	RemoveError   = core.RemoveError
	RemoveDelay   = core.RemoveDelay
	RemoveTimeout = core.RemoveTimeout
)

// New returns an empty DCDO; its implementation grows by incorporating
// components.
func New(cfg Config) *DCDO { return core.New(cfg) }

// --- Versions --------------------------------------------------------------------

// VersionID identifies one version of an object type's implementation.
type VersionID = version.ID

// RootVersion is the conventional first version of a type.
var RootVersion = version.Root

// ParseVersion parses dotted-decimal form, e.g. "3.2.0.4".
func ParseVersion(s string) (VersionID, error) { return version.Parse(s) }

// --- DCDO Managers -----------------------------------------------------------------

type (
	// Manager is a DCDO Manager.
	Manager = manager.Manager
	// VersionStore is the manager's DFM store (version tree).
	VersionStore = manager.Store
	// VersionState distinguishes configurable from instantiable versions.
	VersionState = manager.VersionState
	// Instance is a managed DCDO as the manager sees it.
	Instance = manager.Instance
	// LocalInstance adapts an in-process DCDO to Instance.
	LocalInstance = manager.LocalInstance
	// RemoteInstance adapts a DCDO reachable over RPC to Instance.
	RemoteInstance = manager.RemoteInstance
	// ManagerObject exposes a Manager as a remotely callable object.
	ManagerObject = manager.Object
	// Factory creates, hosts, and registers DCDO instances on nodes (the
	// class-object creation flow).
	Factory = manager.Factory
)

// Version states (§2.4 of the paper).
const (
	StateConfigurable = manager.StateConfigurable
	StateInstantiable = manager.StateInstantiable
)

// NewManager returns a manager with an empty version store under the given
// style and update policy.
func NewManager(style Style, policy UpdatePolicy) *Manager {
	return manager.New(style, policy)
}

// LoadVersionStore reads a version-store image written by
// VersionStore.Save, restoring the full version tree after a restart.
func LoadVersionStore(r io.Reader) (*VersionStore, error) {
	return manager.LoadStore(r)
}

// NewManagerWithStore returns a manager over a previously loaded store;
// running instances re-register via Adopt.
func NewManagerWithStore(store *VersionStore, style Style, policy UpdatePolicy) *Manager {
	return manager.NewWithStore(store, style, policy)
}

// --- Evolution styles and policies -----------------------------------------------

type (
	// Style governs which version transitions are legal.
	Style = evolution.Style
	// UpdatePolicy governs when instances move to a new current version.
	UpdatePolicy = evolution.UpdatePolicy
	// LazySpec parameterises the lazy update policy.
	LazySpec = evolution.LazySpec
	// LazyUpdater wraps a DCDO with lazy update checks.
	LazyUpdater = evolution.LazyUpdater
	// ManagerView is the manager slice lazy updaters need.
	ManagerView = evolution.ManagerView
)

// Evolution styles (§3.4, §3.5 of the paper).
const (
	SingleVersion   = evolution.SingleVersion
	MultiNoUpdate   = evolution.MultiNoUpdate
	MultiIncreasing = evolution.MultiIncreasing
	MultiGeneral    = evolution.MultiGeneral
	MultiHybrid     = evolution.MultiHybrid
)

// Update policies (§3.4 of the paper).
const (
	Proactive = evolution.Proactive
	Explicit  = evolution.Explicit
	Lazy      = evolution.Lazy
)

// NewLazyUpdater wraps a DCDO with a lazy update policy.
func NewLazyUpdater(obj *DCDO, mgr ManagerView, spec LazySpec) *LazyUpdater {
	return evolution.NewLazyUpdater(obj, mgr, spec, nil)
}

// StrictConsistency checks for updates on every invocation.
func StrictConsistency() LazySpec { return evolution.StrictConsistency() }

// --- Runtime (nodes, transports, RPC) ------------------------------------------------

type (
	// Node is one Legion host.
	Node = legion.Node
	// NodeConfig assembles a node.
	NodeConfig = legion.NodeConfig
	// NormalObject is a traditional monolithic Legion object (the
	// evolution baseline).
	NormalObject = legion.NormalObject
	// ObjectState is a normal object's mutable state.
	ObjectState = legion.State
	// Method is one entry of a normal object's static method table.
	Method = legion.Method
	// Class creates normal-object instances.
	Class = legion.Class
	// StatefulObject supports state capture and restore.
	StatefulObject = legion.StatefulObject
	// Client invokes methods on objects named by LOID.
	Client = rpc.Client
	// Dispatcher routes inbound calls to hosted objects.
	Dispatcher = rpc.Dispatcher
	// Object is anything a dispatcher can host.
	Object = rpc.Object
	// ObjectFunc adapts a function to Object.
	ObjectFunc = rpc.ObjectFunc
	// InprocNetwork connects nodes within one process.
	InprocNetwork = transport.InprocNetwork
)

// RPC failure classes clients must handle (§3.2 of the paper).
var (
	ErrNoSuchObject     = rpc.ErrNoSuchObject
	ErrNoSuchFunction   = rpc.ErrNoSuchFunction
	ErrFunctionDisabled = rpc.ErrFunctionDisabled
)

// NewNode starts a Legion host.
func NewNode(cfg NodeConfig) (*Node, error) { return legion.NewNode(cfg) }

// Vault stores deactivated objects' captured state.
type Vault = vault.Vault

// NewMemoryVault returns an in-memory vault.
func NewMemoryVault() Vault { return vault.NewMemory() }

// NewFileVault returns a file-backed vault rooted at dir, creating it if
// needed; entries survive process restarts.
func NewFileVault(dir string) (Vault, error) { return vault.NewFile(dir) }

// EnsureCurrent implements the client side of the explicit update policy:
// it compares the object's version with the remote manager's current
// version and initiates an update when they differ. ctx bounds the round
// trips and is propagated to the remote side as the call deadline.
func EnsureCurrent(ctx context.Context, client *Client, mgr, obj LOID) (bool, error) {
	return manager.EnsureCurrent(ctx, client, mgr, obj)
}

// NewInprocNetwork returns an in-process transport network.
func NewInprocNetwork() *InprocNetwork { return transport.NewInprocNetwork() }

// NewClass returns a class for normal (monolithic) objects.
func NewClass(name string, alloc *Allocator, methods map[string]Method, execSize int64) *Class {
	return legion.NewClass(name, alloc, methods, execSize)
}

// Migrate moves a stateful object between nodes.
func Migrate(loid LOID, src, dst *Node, obj, target StatefulObject) error {
	return legion.Migrate(loid, src, dst, obj, target)
}

// --- Evaluation ------------------------------------------------------------------------

type (
	// CostModel computes modeled Centurion durations.
	CostModel = simnet.CostModel
	// WorkloadSpec describes a synthetic object type.
	WorkloadSpec = workload.Spec
)

// CenturionModel returns the cost model calibrated to the paper's testbed.
func CenturionModel() CostModel { return simnet.Centurion() }

// BuildWorkload generates a synthetic object type.
func BuildWorkload(reg *Registry, alloc *Allocator, spec WorkloadSpec) (*workload.Built, error) {
	return workload.Build(reg, alloc, spec)
}
