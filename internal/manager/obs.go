package manager

import (
	"context"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/version"
)

// tracedInstance is optionally implemented by instances that can thread
// trace context into their apply path (LocalInstance does, via core's
// Apply*Traced). Remote instances fall back to the plain calls — the trace
// context for those rides the RPC envelope instead.
type tracedInstance interface {
	ApplyTraced(ctx context.Context, parent obs.SpanContext, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error)
	ApplyPlanTraced(ctx context.Context, parent obs.SpanContext, a core.PlanArgs) (core.ApplyReport, error)
}

// ApplyTraced implements tracedInstance.
func (l LocalInstance) ApplyTraced(ctx context.Context, parent obs.SpanContext, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	return l.Obj.ApplyDescriptorTraced(ctx, parent, target, v)
}

// ApplyPlanTraced implements tracedInstance.
func (l LocalInstance) ApplyPlanTraced(ctx context.Context, parent obs.SpanContext, a core.PlanArgs) (core.ApplyReport, error) {
	return l.Obj.ApplyPlanTraced(ctx, parent, a)
}

var (
	_ obs.Configurable = (*Manager)(nil)
	_ obs.Configurable = (*Object)(nil)
)

// SetObs implements obs.Configurable for the RPC wrapper by delegating to
// the wrapped manager, so hosting a manager Object on an instrumented node
// wires the manager automatically.
func (o *Object) SetObs(ob *obs.Obs) { o.Mgr.SetObs(ob) }

// SetObs wires the manager into o: evolution operations gain mgr.evolve /
// mgr.apply spans and append structured events (version designations,
// instance creations, adoptions, drops, evolutions) to o's event log. A nil
// o disables both.
func (m *Manager) SetObs(o *obs.Obs) {
	m.obsState.Store(o)
}

// tracer returns the manager's tracer, nil when observability is off.
func (m *Manager) tracer() *obs.Tracer {
	return m.obsState.Load().GetTracer()
}

// event appends a structured event to the wired event log (no-op when
// observability is off).
func (m *Manager) event(kind string, loid naming.LOID, v version.ID, detail string) {
	log := m.obsState.Load().GetEvents()
	if log == nil {
		return
	}
	ev := obs.Event{Kind: kind, Detail: detail}
	if loid != (naming.LOID{}) {
		ev.Object = loid.String()
	}
	if !v.IsZero() {
		ev.Version = v.String()
	}
	log.Append(ev)
}

// applyInstance moves inst to v under a mgr.apply span parented on sp: by
// the planned change a when it is non-nil, else to the full descriptor desc.
// Local instances get the span's context, so the object's dcdo.apply span
// joins the same trace. With tracing off (sp nil) it is the plain Instance
// call. ctx flows through either way.
func applyInstance(ctx context.Context, sp *obs.Span, inst Instance, a *core.PlanArgs, desc *dfm.Descriptor, v version.ID) error {
	ti, traced := inst.(tracedInstance)
	var child *obs.Span
	if sp != nil {
		child = sp.Child(obs.StageMgrApply)
		child.Annotate("object", inst.LOID().String())
	} else {
		traced = false
	}
	var err error
	switch {
	case a != nil && traced:
		_, err = ti.ApplyPlanTraced(ctx, child.Context(), *a)
	case a != nil:
		_, err = inst.ApplyPlan(ctx, *a)
	case traced:
		_, err = ti.ApplyTraced(ctx, child.Context(), desc, v)
	default:
		_, err = inst.Apply(ctx, desc, v)
	}
	if child != nil {
		child.Fail(err)
		child.Finish()
	}
	return err
}
