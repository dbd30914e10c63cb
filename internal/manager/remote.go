package manager

import (
	"context"
	"fmt"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// EvolveArgs are MethodEvolveInstance's arguments.
type EvolveArgs struct {
	LOID    naming.LOID
	Version version.ID
}

// PolicyArgs are MethodPolicySet's arguments. The document travels as its
// JSON form and is parsed and validated on decode.
type PolicyArgs struct {
	LOID   naming.LOID
	Policy policy.DistributionPolicy
}

// Designation is MethodPolicyGet's result: the LOID's designated policy, or
// the implicit default when Designated is false.
type Designation struct {
	Policy     policy.DistributionPolicy
	Designated bool
}

// The manager's exported interface: a DCDO Manager is itself an active
// distributed object. Only the pure reads are idempotent; every mutation,
// recover included, is at-most-once.
var (
	MethodCurrentVersion = rpc.Method[rpc.None, version.ID]{Name: "mgr.currentVersion", Idempotent: true,
		Args: rpc.NoneCodec, Result: core.VersionCodec}
	MethodSetCurrent = rpc.Method[version.ID, rpc.None]{Name: "mgr.setCurrent",
		Args: core.VersionCodec, Result: rpc.NoneCodec}
	MethodDescriptor = rpc.Method[version.ID, *dfm.Descriptor]{Name: "mgr.descriptor", Idempotent: true,
		Args: core.VersionCodec, Result: core.DescriptorCodec}
	MethodInstantiableDesc = rpc.Method[version.ID, *dfm.Descriptor]{Name: "mgr.instantiableDescriptor", Idempotent: true,
		Args: core.VersionCodec, Result: core.DescriptorCodec}
	// MethodAuthor stores Target as a new instantiable child of Version
	// (Store.Author): the root when Version is zero. It returns the new id.
	MethodAuthor = rpc.Method[core.ApplyArgs, version.ID]{Name: "mgr.author",
		Args: core.ApplyArgsCodec, Result: core.VersionCodec}
	MethodEvolveInstance = rpc.Method[EvolveArgs, rpc.None]{Name: "mgr.evolveInstance",
		Args: rpc.NewCodec(putEvolveArgs, getEvolveArgs), Result: rpc.NoneCodec}
	MethodRecords = rpc.Method[rpc.None, []Record]{Name: "mgr.records", Idempotent: true,
		Args: rpc.NoneCodec, Result: runCodec(putRecord, getRecord)}
	MethodRecover = rpc.Method[rpc.None, RecoveryReport]{Name: "mgr.recover",
		Args: rpc.NoneCodec, Result: rpc.NewCodec(putRecoveryReport, getRecoveryReport)}
	MethodHealth = rpc.Method[rpc.None, []InstanceHealth]{Name: "mgr.health", Idempotent: true,
		Args: rpc.NoneCodec, Result: runCodec(putInstanceHealth, getInstanceHealth)}
	MethodPolicyGet = rpc.Method[naming.LOID, Designation]{Name: "mgr.policyGet", Idempotent: true,
		Args: rpc.LOIDCodec, Result: rpc.NewCodec(putDesignation, getDesignation)}
	MethodPolicySet = rpc.Method[PolicyArgs, rpc.None]{Name: "mgr.policySet",
		Args: rpc.NewCodec(putPolicyArgs, getPolicyArgs), Result: rpc.NoneCodec}
)

// InstanceHealth is one row of the mgr.health reply: the DCDO table entry
// plus its quarantine state.
type InstanceHealth struct {
	LOID        naming.LOID
	Version     version.ID
	Quarantined bool
	Reason      string
}

// InstanceHealths reports every managed instance's table version and
// quarantine state, sorted by LOID.
func (m *Manager) InstanceHealths() []InstanceHealth {
	records := m.Records()
	out := make([]InstanceHealth, 0, len(records))
	for _, r := range records {
		h := InstanceHealth{LOID: r.LOID, Version: r.Version}
		h.Quarantined, h.Reason = m.IsQuarantined(r.LOID)
		out = append(out, h)
	}
	return out
}

// Object wraps a Manager as an rpc.Object so remote programmers and DCDOs
// can drive version management and evolution over the wire.
type Object struct {
	Mgr *Manager
}

var (
	_ rpc.Object             = (*Object)(nil)
	_ rpc.ContextAwareObject = (*Object)(nil)
)

// InvokeMethod implements rpc.Object for context-free callers.
func (o *Object) InvokeMethod(method string, args []byte) ([]byte, error) {
	return o.Mgr.methods.InvokeMethod(method, args)
}

// InvokeMethodCtx implements rpc.ContextAwareObject: the long-running
// manager operations (fleet-wide designations, per-instance evolutions,
// recovery) run under the caller's context, so a remote client's deadline
// bounds the instance RPCs the manager issues on its behalf.
func (o *Object) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	return o.Mgr.methods.InvokeMethodCtx(ctx, method, args)
}

// methodTable serves the manager's exported interface.
func (m *Manager) methodTable() rpc.Table {
	none := rpc.None{}
	return rpc.Serve(
		MethodCurrentVersion.Handle(func(context.Context, rpc.None) (version.ID, error) {
			return m.CurrentVersion()
		}),
		MethodSetCurrent.Handle(func(ctx context.Context, v version.ID) (rpc.None, error) {
			return none, m.SetCurrentVersion(ctx, v)
		}),
		MethodDescriptor.Handle(func(_ context.Context, v version.ID) (*dfm.Descriptor, error) {
			return m.Store().Descriptor(v)
		}),
		MethodInstantiableDesc.Handle(func(_ context.Context, v version.ID) (*dfm.Descriptor, error) {
			return m.Store().InstantiableDescriptor(v)
		}),
		MethodAuthor.Handle(func(_ context.Context, a core.ApplyArgs) (version.ID, error) {
			return m.Store().Author(a.Version, func(d *dfm.Descriptor) error {
				*d = *a.Target
				return nil
			})
		}),
		MethodEvolveInstance.Handle(func(ctx context.Context, a EvolveArgs) (rpc.None, error) {
			return none, m.EvolveInstance(ctx, a.LOID, a.Version)
		}),
		MethodRecords.Handle(func(context.Context, rpc.None) ([]Record, error) {
			return m.Records(), nil
		}),
		MethodRecover.Handle(func(ctx context.Context, _ rpc.None) (RecoveryReport, error) {
			return m.Recover(ctx)
		}),
		MethodHealth.Handle(func(context.Context, rpc.None) ([]InstanceHealth, error) {
			return m.InstanceHealths(), nil
		}),
		MethodPolicyGet.Handle(func(_ context.Context, loid naming.LOID) (Designation, error) {
			pol, ok := m.PolicyOf(loid)
			return Designation{Policy: pol, Designated: ok}, nil
		}),
		MethodPolicySet.Handle(func(_ context.Context, a PolicyArgs) (rpc.None, error) {
			return none, m.SetPolicy(a.LOID, a.Policy)
		}),
	)
}

// runCodec carries a count-prefixed run of items.
func runCodec[T any](put func(*wire.Encoder, T), get func(*wire.Decoder) (T, error)) rpc.Codec[[]T] {
	return rpc.NewCodec(
		func(e *wire.Encoder, items []T) { rpc.PutRun(e, items, put) },
		func(d *wire.Decoder) ([]T, error) { return rpc.GetRun(d, get) })
}

func putEvolveArgs(e *wire.Encoder, a EvolveArgs) {
	rpc.PutLOID(e, a.LOID)
	core.PutVersion(e, a.Version)
}

func getEvolveArgs(d *wire.Decoder) (a EvolveArgs, err error) {
	if a.LOID, err = rpc.GetLOID(d); err != nil {
		return a, err
	}
	a.Version, err = core.GetVersion(d)
	return a, err
}

func putRecord(e *wire.Encoder, r Record) {
	rpc.PutLOID(e, r.LOID)
	core.PutVersion(e, r.Version)
	e.PutString(r.Impl.String())
}

func getRecord(d *wire.Decoder) (r Record, err error) {
	if r.LOID, err = rpc.GetLOID(d); err != nil {
		return r, err
	}
	if r.Version, err = core.GetVersion(d); err != nil {
		return r, err
	}
	r.Impl, err = getImpl(d)
	return r, err
}

func getImpl(d *wire.Decoder) (registry.ImplType, error) {
	s, err := d.String()
	if err != nil {
		return registry.ImplType{}, err
	}
	return registry.ParseImplType(s)
}

func putRecoveryReport(e *wire.Encoder, r RecoveryReport) {
	e.PutUvarint(uint64(r.Passes))
	core.PutVersion(e, r.Current)
	for _, loids := range [][]naming.LOID{r.Resumed, r.Verified, r.RolledBack, r.Quarantined} {
		rpc.PutRun(e, loids, rpc.PutLOID)
	}
}

func getRecoveryReport(d *wire.Decoder) (r RecoveryReport, err error) {
	passes, err := d.Uvarint()
	if err != nil {
		return r, err
	}
	r.Passes = int(passes)
	if r.Current, err = core.GetVersion(d); err != nil {
		return r, err
	}
	for _, loids := range []*[]naming.LOID{&r.Resumed, &r.Verified, &r.RolledBack, &r.Quarantined} {
		if *loids, err = rpc.GetRun(d, rpc.GetLOID); err != nil {
			return r, err
		}
	}
	return r, nil
}

func putInstanceHealth(e *wire.Encoder, h InstanceHealth) {
	rpc.PutLOID(e, h.LOID)
	core.PutVersion(e, h.Version)
	e.PutBool(h.Quarantined)
	e.PutString(h.Reason)
}

func getInstanceHealth(d *wire.Decoder) (h InstanceHealth, err error) {
	if h.LOID, err = rpc.GetLOID(d); err != nil {
		return h, err
	}
	if h.Version, err = core.GetVersion(d); err != nil {
		return h, err
	}
	if h.Quarantined, err = d.Bool(); err != nil {
		return h, err
	}
	h.Reason, err = d.String()
	return h, err
}

func putDesignation(e *wire.Encoder, g Designation) {
	e.PutBool(g.Designated)
	if g.Designated {
		e.PutString(g.Policy.String())
	} else {
		e.PutString("")
	}
}

func getDesignation(d *wire.Decoder) (g Designation, err error) {
	if g.Designated, err = d.Bool(); err != nil {
		return g, err
	}
	doc, err := d.String()
	if err != nil || !g.Designated {
		g.Policy = policy.Default()
		return g, err
	}
	g.Policy, err = policy.Parse(doc)
	return g, err
}

func putPolicyArgs(e *wire.Encoder, a PolicyArgs) {
	rpc.PutLOID(e, a.LOID)
	e.PutString(a.Policy.String())
}

func getPolicyArgs(d *wire.Decoder) (a PolicyArgs, err error) {
	if a.LOID, err = rpc.GetLOID(d); err != nil {
		return a, err
	}
	doc, err := d.String()
	if err != nil {
		return a, err
	}
	a.Policy, err = policy.Parse(doc)
	return a, err
}

// --- Remote proxies -----------------------------------------------------------

// RemoteInstance adapts a DCDO reachable over RPC to the Instance interface.
type RemoteInstance struct {
	Client *rpc.Client
	Target naming.LOID
}

var _ Instance = RemoteInstance{}

// LOID implements Instance.
func (r RemoteInstance) LOID() naming.LOID { return r.Target }

// Version implements Instance.
func (r RemoteInstance) Version(ctx context.Context) (version.ID, error) {
	return core.MethodVersion.Call(ctx, r.Client, r.Target, rpc.None{})
}

// Apply implements Instance.
func (r RemoteInstance) Apply(ctx context.Context, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	return core.MethodApplyDescriptor.Call(ctx, r.Client, r.Target, core.ApplyArgs{Target: target, Version: v})
}

// ApplyPlan implements Instance.
func (r RemoteInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	res, err := core.MethodApplyPlan.Call(ctx, r.Client, r.Target, a)
	if err != nil {
		return core.ApplyReport{}, err
	}
	return res.Outcome()
}

// Interface implements Instance.
func (r RemoteInstance) Interface(ctx context.Context) ([]string, error) {
	return core.MethodInterface.Call(ctx, r.Client, r.Target, rpc.None{})
}

// EnsureCurrent implements the client side of the explicit update policy
// (§3.4): a client "discovers that a DCDO is out of date, and initiates the
// update to the current version before invoking a function on the object".
// It compares the object's version with the remote manager's current
// version and, when they differ, asks the manager to evolve the instance.
// It reports whether an update was initiated.
func EnsureCurrent(ctx context.Context, client *rpc.Client, mgr, obj naming.LOID) (bool, error) {
	current, err := MethodCurrentVersion.Call(ctx, client, mgr, rpc.None{})
	if err != nil {
		return false, fmt.Errorf("ensure current: %w", err)
	}
	if current.IsZero() {
		return false, nil
	}
	mine, err := RemoteInstance{Client: client, Target: obj}.Version(ctx)
	if err != nil {
		return false, fmt.Errorf("ensure current: %w", err)
	}
	if current.Equal(mine) {
		return false, nil
	}
	if _, err := MethodEvolveInstance.Call(ctx, client, mgr, EvolveArgs{LOID: obj, Version: current}); err != nil {
		return false, fmt.Errorf("ensure current: %w", err)
	}
	return true, nil
}

// RemoteView adapts a manager reachable over RPC to evolution.ManagerView,
// letting remote DCDOs run lazy update checks against their manager.
type RemoteView struct {
	Client *rpc.Client
	Target naming.LOID
}

var _ evolution.ManagerView = RemoteView{}

// CurrentVersion implements evolution.ManagerView. The interface is
// deliberately context-free (lazy update checks are the object's own
// maintenance); the proxy supplies a background context.
func (r RemoteView) CurrentVersion() (version.ID, error) {
	return MethodCurrentVersion.Call(context.Background(), r.Client, r.Target, rpc.None{})
}

// InstantiableDescriptor implements evolution.ManagerView.
func (r RemoteView) InstantiableDescriptor(v version.ID) (*dfm.Descriptor, error) {
	return MethodInstantiableDesc.Call(context.Background(), r.Client, r.Target, v)
}
