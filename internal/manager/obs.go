package manager

import (
	"context"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/version"
)

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
// The span rides in ctx, so the object's dcdo.apply span joins the same
// trace whether the instance is local or remote. With tracing off (sp nil)
// it is the plain Instance call.
func applyInstance(ctx context.Context, sp *obs.Span, inst Instance, a *core.PlanArgs, desc *dfm.Descriptor, v version.ID) error {
	child := sp.Child(obs.StageMgrApply)
	if child != nil {
		child.Annotate("object", inst.LOID().String())
		ctx = obs.ContextWithSpan(ctx, child.Context())
	}
	var err error
	if a != nil {
		_, err = inst.ApplyPlan(ctx, *a)
	} else {
		_, err = inst.Apply(ctx, desc, v)
	}
	child.Fail(err)
	child.Finish()
	return err
}
