package core

import (
	"context"
	"strings"
	"time"

	"godcdo/internal/dfm"
	"godcdo/internal/metrics"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// dcdoObs is the object's immutable observability wiring, swapped
// atomically so the invoke path reads it with one pointer load and no lock.
type dcdoObs struct {
	tracer      *obs.Tracer
	events      *obs.EventLog
	histResolve *metrics.Histogram
	histFunc    *metrics.Histogram
}

var (
	_ obs.Configurable  = (*DCDO)(nil)
	_ rpc.ContextObject = (*DCDO)(nil)
)

// SetObs wires the object into o: DFM resolution and user-function
// execution gain dcdo.resolve / dcdo.func spans and histograms, every DFM
// function gets a per-function latency histogram ("dfm.<loid>.<fn>"), and
// configuration events are mirrored into o's event log. A nil o disables
// all of it and restores the seed invoke path.
func (d *DCDO) SetObs(o *obs.Obs) {
	if o == nil {
		d.obsState.Store(nil)
		d.table.EnableLatency(nil)
		return
	}
	st := &dcdoObs{tracer: o.Tracer, events: o.Events}
	if reg := o.Metrics; reg != nil {
		st.histResolve = reg.Histogram(obs.StageDCDOResolve)
		st.histFunc = reg.Histogram(obs.StageDCDOFunc)
		prefix := "dfm." + d.cfg.LOID.String() + "."
		d.table.EnableLatency(func(fn string) *metrics.Histogram {
			return reg.Histogram(prefix + fn)
		})
	} else {
		d.table.EnableLatency(nil)
	}
	d.obsState.Store(st)
}

// invokeMetered is the histogram-observing variant of the InvokeMethod user
// path, taken only when SetObs installed observability state.
func (d *DCDO) invokeMetered(st *dcdoObs, method string, args []byte) ([]byte, error) {
	var resolveStart time.Time
	if st.histResolve != nil {
		resolveStart = time.Now()
	}
	impl, release, err := d.table.BeginExportedCall(method)
	if st.histResolve != nil {
		st.histResolve.Observe(time.Since(resolveStart))
	}
	if err != nil {
		return nil, mapDFMError(err)
	}
	defer release()
	var funcStart time.Time
	if st.histFunc != nil {
		funcStart = time.Now()
	}
	result, err := impl(d, args)
	if st.histFunc != nil {
		st.histFunc.Observe(time.Since(funcStart))
	}
	return result, err
}

// InvokeMethodTraced implements rpc.ContextObject: the dispatcher hands the
// server-side span context down so the object's internal stages — DFM
// resolution and user-function execution (or the control-plane handler) —
// appear as children of server.dispatch in the caller's trace. ctx is
// checked at the same stage boundaries InvokeMethodCtx uses, so cancelled
// calls abort between resolution and execution even when traced.
func (d *DCDO) InvokeMethodTraced(ctx context.Context, parent obs.SpanContext, method string, args []byte) ([]byte, error) {
	st := d.obsState.Load()
	if st == nil || st.tracer == nil {
		return d.InvokeMethodCtx(ctx, method, args)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if strings.HasPrefix(method, ControlPrefix) {
		sp := st.tracer.StartSpan(obs.StageDCDOControl, parent)
		sp.Annotate("method", method)
		result, err := d.control.InvokeMethodCtx(ctx, method, args)
		sp.Fail(err)
		sp.Finish()
		return result, err
	}

	rs := st.tracer.StartSpan(obs.StageDCDOResolve, parent)
	var resolveStart time.Time
	if st.histResolve != nil {
		resolveStart = time.Now()
	}
	impl, release, err := d.table.BeginExportedCall(method)
	if st.histResolve != nil {
		st.histResolve.Observe(time.Since(resolveStart))
	}
	rs.Fail(err)
	rs.Finish()
	if err != nil {
		return nil, mapDFMError(err)
	}
	defer release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fs := st.tracer.StartSpan(obs.StageDCDOFunc, parent)
	fs.Annotate("function", method)
	var funcStart time.Time
	if st.histFunc != nil {
		funcStart = time.Now()
	}
	result, err := impl(d, args)
	if st.histFunc != nil {
		st.histFunc.Observe(time.Since(funcStart))
	}
	fs.Fail(err)
	fs.Finish()
	return result, err
}

// ApplyDescriptorTraced is ApplyDescriptor with the caller's span context
// (the manager's mgr.apply span), recording the whole evolution as a
// dcdo.apply span. With tracing off it is exactly ApplyDescriptor.
func (d *DCDO) ApplyDescriptorTraced(ctx context.Context, parent obs.SpanContext, target *dfm.Descriptor, newVersion version.ID) (ApplyReport, error) {
	return d.traceApply(parent, newVersion, func() (ApplyReport, error) { return d.ApplyDescriptor(ctx, target, newVersion) })
}

// ApplyPlanTraced is ApplyPlan recorded the same way.
func (d *DCDO) ApplyPlanTraced(ctx context.Context, parent obs.SpanContext, a PlanArgs) (ApplyReport, error) {
	return d.traceApply(parent, a.To, func() (ApplyReport, error) { return d.ApplyPlan(ctx, a) })
}

func (d *DCDO) traceApply(parent obs.SpanContext, newVersion version.ID, apply func() (ApplyReport, error)) (ApplyReport, error) {
	st := d.obsState.Load()
	if st == nil || st.tracer == nil {
		return apply()
	}
	sp := st.tracer.StartSpan(obs.StageDCDOApply, parent)
	sp.Annotate("object", d.cfg.LOID.String())
	sp.Annotate("version", newVersion.String())
	report, err := apply()
	sp.Fail(err)
	sp.Finish()
	return report, err
}
