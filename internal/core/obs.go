package core

import (
	"context"
	"strings"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/obs"
)

// dcdoObs is the object's immutable observability wiring, swapped
// atomically so the invoke path reads it with one pointer load and no lock.
type dcdoObs struct {
	tracer      *obs.Tracer
	events      *obs.EventLog
	histResolve *metrics.Histogram
	histFunc    *metrics.Histogram
}

var _ obs.Configurable = (*DCDO)(nil)

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

// span starts a span for stage under the trace position ctx carries: nil
// unless the object is traced and ctx carries one.
func (d *DCDO) span(ctx context.Context, stage string) *obs.Span {
	if st := d.obsState.Load(); st != nil {
		if parent := obs.SpanFromContext(ctx); parent.Valid() {
			return st.tracer.StartSpan(stage, parent)
		}
	}
	return nil
}

// invokeObserved is InvokeMethodCtx observed: it times DFM resolution and
// the user function into the resolve and func histograms and, when ctx
// carries a trace position, records them as dcdo.resolve and dcdo.func spans
// under it (a control method as one dcdo.control span, which the handler's
// ctx carries on, so a remote apply nests under it). Both invoke entry
// points take it whenever SetObs installed state; a wrapper in front of the
// object changes nothing, since the position rides in ctx.
func (d *DCDO) invokeObserved(ctx context.Context, st *dcdoObs, method string, args []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tracer := st.tracer
	parent := obs.SpanFromContext(ctx)
	if !parent.Valid() {
		tracer = nil // spans only join a trace; they never root one
	}
	if strings.HasPrefix(method, ControlPrefix) {
		sp := tracer.StartSpan(obs.StageDCDOControl, parent)
		sp.Annotate("method", method)
		result, err := d.control.InvokeMethodCtx(obs.ContextWithSpan(ctx, sp.Context()), method, args)
		sp.Fail(err)
		sp.Finish()
		return result, err
	}

	rs := tracer.StartSpan(obs.StageDCDOResolve, parent)
	start := time.Now()
	impl, release, err := d.table.BeginExportedCall(method)
	if st.histResolve != nil {
		st.histResolve.Observe(time.Since(start))
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

	fs := tracer.StartSpan(obs.StageDCDOFunc, parent)
	fs.Annotate("function", method)
	start = time.Now()
	result, err := impl(d, args)
	if st.histFunc != nil {
		st.histFunc.Observe(time.Since(start))
	}
	fs.Fail(err)
	fs.Finish()
	return result, err
}
