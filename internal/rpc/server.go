package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// Object is anything the dispatcher can host: it services named method
// invocations with opaque argument/result payloads. Both normal Legion-style
// objects and DCDOs implement Object.
type Object interface {
	// InvokeMethod executes the named exported function. Implementations
	// return ErrNoSuchFunction / ErrFunctionDisabled (or wrapped variants)
	// for the paper's failure classes. args is borrowed: over TCP it
	// aliases the inbound frame, for single calls and batch sub-calls
	// alike, and is valid only until InvokeMethod returns. The result may
	// alias args; bytes kept past return must be copied.
	InvokeMethod(method string, args []byte) ([]byte, error)
}

// ContextAwareObject is optionally implemented by hosted objects (core.DCDO
// does) that can observe the call's context between their internal stages:
// such objects stop work at the next stage boundary when the caller's
// propagated deadline expires or the server shuts down, instead of running
// orphaned work to completion.
type ContextAwareObject interface {
	// InvokeMethodCtx is InvokeMethod bounded by ctx.
	InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error)
}

// ContextObject is optionally implemented by hosted objects (core.DCDO does)
// that can thread trace context through their internal stages. The
// dispatcher type-asserts for it only when tracing is enabled, so plain
// Objects and untraced traffic pay nothing.
type ContextObject interface {
	// InvokeMethodTraced is InvokeMethodCtx with the caller's span context,
	// letting the object parent its internal spans (resolve, func) on the
	// server-side dispatch span.
	InvokeMethodTraced(ctx context.Context, parent obs.SpanContext, method string, args []byte) ([]byte, error)
}

// ObjectFunc adapts a function to the Object interface.
type ObjectFunc func(method string, args []byte) ([]byte, error)

// InvokeMethod implements Object.
func (f ObjectFunc) InvokeMethod(method string, args []byte) ([]byte, error) {
	return f(method, args)
}

// DefaultMaxRemoteDeadline is how far in the future a propagated deadline is
// allowed to reach. A remote peer's clock is not trusted: an absurd or
// skewed deadline is clamped to now+this rather than pinning server
// resources arbitrarily long.
const DefaultMaxRemoteDeadline = 5 * time.Minute

// Names of the dispatcher's dimensioned metric families, registered by
// SetObs: per-object, per-method invoke latency and call/error counts,
// labelled loid x method with bounded cardinality. These are what the
// supervisor's per-cohort burn-rate windows and the /metrics exposition
// read.
const (
	InvokeLatencyVec = "invoke.latency"
	InvokeCallsVec   = "invoke.calls"
	InvokeErrorsVec  = "invoke.errors"
)

// invokeLabels are the label names of the dispatcher's metric families.
var invokeLabels = []string{"loid", "method"}

// methodStats caches the resolved dimensioned-metric children for one
// (object, method) pair, so the steady-state dispatch path is one read-locked
// map hit instead of three label-key constructions.
type methodStats struct {
	lat   *metrics.Histogram
	calls *metrics.Counter
	errs  *metrics.Counter
}

// hosted wraps one served object with its per-method metric cache.
type hosted struct {
	obj    Object
	target string // canonical LOID string, the `loid` label value

	mu      sync.RWMutex
	methods map[string]*methodStats
}

// stats returns the cached metric children for method, resolving them from
// the dispatcher's vectors on first call. Only invoked when the dispatcher
// has dimensioned metrics installed.
func (h *hosted) stats(d *Dispatcher, method string) *methodStats {
	h.mu.RLock()
	st, ok := h.methods[method]
	h.mu.RUnlock()
	if ok {
		return st
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if st, ok := h.methods[method]; ok {
		return st
	}
	st = &methodStats{
		lat:   d.vLat.With(h.target, method),
		calls: d.vCalls.With(h.target, method),
		errs:  d.vErrs.With(h.target, method),
	}
	if h.methods == nil {
		h.methods = make(map[string]*methodStats, 8)
	}
	h.methods[method] = st
	return st
}

// DispatchStats counts dispatcher admission outcomes.
type DispatchStats struct {
	// Admitted counts requests that reached object dispatch.
	Admitted uint64
	// Shed counts requests refused with CodeOverloaded because the
	// concurrency limit and queue were both full.
	Shed uint64
	// ExpiredOnArrival counts requests whose propagated deadline had already
	// passed when they arrived; they were rejected before dispatch.
	ExpiredOnArrival uint64
	// Cancelled counts admitted requests whose context ended mid-dispatch —
	// while queued for an execution slot or between the object's stages.
	Cancelled uint64
	// Queued is the number of requests currently waiting for an execution
	// slot (a point-in-time gauge, not a cumulative count).
	Queued int64
}

// Dispatcher routes inbound envelopes to the objects hosted at one endpoint.
// It implements transport.Handler and is safe for concurrent use.
type Dispatcher struct {
	// MaxRemoteDeadline clamps how far ahead a request's propagated deadline
	// may reach (DefaultMaxRemoteDeadline when zero). Set before serving.
	MaxRemoteDeadline time.Duration

	mu      sync.RWMutex
	objects map[naming.LOID]*hosted

	// Admission control, installed by SetAdmission. slots is a semaphore
	// bounding concurrent dispatches; queueDepth bounds how many requests
	// may wait for a slot before new arrivals are shed. Both nil/zero by
	// default: unlimited concurrency, exactly the pre-admission behaviour.
	slots      chan struct{}
	queueDepth int64
	queued     atomic.Int64

	admitted  atomic.Uint64
	shed      atomic.Uint64
	expired   atomic.Uint64
	cancelled atomic.Uint64

	// Observability, installed by SetObs; all nil by default so Handle's
	// fast path is unchanged when the node runs without obs.
	tracer       *obs.Tracer
	histDispatch *metrics.Histogram
	inflight     *metrics.Gauge
	events       *obs.EventLog
	flight       *obs.FlightRecorder

	// Dimensioned per-object metric families (loid x method), installed by
	// SetObs when the registry is present. Children are cached per hosted
	// object in methodStats.
	vLat   *metrics.HistogramVec
	vCalls *metrics.CounterVec
	vErrs  *metrics.CounterVec
}

var _ transport.Handler = (*Dispatcher)(nil)

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{objects: make(map[naming.LOID]*hosted)}
}

// SetAdmission installs admission control: at most maxInflight requests
// dispatch concurrently, up to queueDepth more wait for a slot, and anything
// beyond that is shed immediately with CodeOverloaded. maxInflight <= 0
// removes the limit. Call before serving traffic.
func (d *Dispatcher) SetAdmission(maxInflight, queueDepth int) {
	if maxInflight <= 0 {
		d.slots, d.queueDepth = nil, 0
		return
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	d.slots = make(chan struct{}, maxInflight)
	d.queueDepth = int64(queueDepth)
}

// Stats returns a snapshot of the admission counters.
func (d *Dispatcher) Stats() DispatchStats {
	return DispatchStats{
		Admitted:         d.admitted.Load(),
		Shed:             d.shed.Load(),
		ExpiredOnArrival: d.expired.Load(),
		Cancelled:        d.cancelled.Load(),
		Queued:           d.queued.Load(),
	}
}

// SetObs wires the dispatcher into o: inbound requests get server.dispatch
// spans (joined to the caller's trace via envelope metadata), dispatch
// latency lands in the server.dispatch histogram, and the registry gains an
// in-flight-requests gauge plus a hosted-objects gauge func. A nil o
// disables all of it.
func (d *Dispatcher) SetObs(o *obs.Obs) {
	if o == nil {
		d.tracer, d.histDispatch, d.inflight, d.events, d.flight = nil, nil, nil, nil, nil
		d.vLat, d.vCalls, d.vErrs = nil, nil, nil
		return
	}
	d.tracer = o.Tracer
	d.events = o.Events
	d.flight = o.GetFlight()
	if reg := o.Metrics; reg != nil {
		d.histDispatch = reg.Histogram(obs.StageServerDispatch)
		d.inflight = reg.Gauge("dispatcher.inflight")
		d.vLat = reg.HistogramVec(InvokeLatencyVec, invokeLabels, 0)
		d.vCalls = reg.CounterVec(InvokeCallsVec, invokeLabels, 0)
		d.vErrs = reg.CounterVec(InvokeErrorsVec, invokeLabels, 0)
		reg.RegisterGaugeFunc("dispatcher.hosted_objects", func() int64 { return int64(d.Len()) })
		reg.RegisterGaugeFunc("dispatcher.admitted", func() int64 { return int64(d.admitted.Load()) })
		reg.RegisterGaugeFunc("dispatcher.shed", func() int64 { return int64(d.shed.Load()) })
		reg.RegisterGaugeFunc("dispatcher.expired_on_arrival", func() int64 { return int64(d.expired.Load()) })
		reg.RegisterGaugeFunc("dispatcher.cancelled_mid_dispatch", func() int64 { return int64(d.cancelled.Load()) })
	} else {
		d.histDispatch, d.inflight = nil, nil
		d.vLat, d.vCalls, d.vErrs = nil, nil, nil
	}
}

// Host makes obj reachable at loid on this dispatcher, replacing any
// previous object at the same LOID.
func (d *Dispatcher) Host(loid naming.LOID, obj Object) {
	h := &hosted{obj: obj, target: loid.String()}
	d.mu.Lock()
	d.objects[loid] = h
	d.mu.Unlock()
}

// Evict removes loid from this dispatcher (the object migrated away or was
// destroyed); subsequent calls for it fail with CodeNoSuchObject, which is
// how clients discover stale bindings.
func (d *Dispatcher) Evict(loid naming.LOID) {
	d.mu.Lock()
	delete(d.objects, loid)
	d.mu.Unlock()
}

// Hosted reports whether loid is currently served by this dispatcher.
func (d *Dispatcher) Hosted(loid naming.LOID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.objects[loid]
	return ok
}

// Len reports the number of hosted objects.
func (d *Dispatcher) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.objects)
}

// Handle implements transport.Handler. The inbound pipeline is:
//
//  1. deadline screening — a request whose propagated deadline already
//     passed is rejected with CodeExpired before any work happens (the
//     caller gave up; executing it would be orphaned work);
//  2. admission — when SetAdmission is active, the request takes an
//     execution slot, waits in the bounded queue for one, or is shed with
//     CodeOverloaded;
//  3. dispatch — the object runs under a context carrying the (clamped)
//     deadline, so context-aware objects stop at stage boundaries.
//
// Requests without a deadline and dispatchers without admission control
// follow the exact pre-context fast path.
//
// KindBatchRequest envelopes take the batch pipeline (handleBatch): the
// whole batch is screened and admitted as one unit, its sub-requests
// dispatch through the same core as single calls, and the per-sub results
// travel back as one KindBatchResponse run.
func (d *Dispatcher) Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	switch req.Kind {
	case wire.KindRequest:
	case wire.KindBatchRequest:
		return d.handleBatch(ctx, req)
	default:
		return errEnvelope(req.ID, wire.CodeBadRequest, fmt.Sprintf("unexpected envelope kind %s", req.Kind))
	}

	ctx, cancel, expired := d.screenDeadline(ctx, req)
	if cancel != nil {
		defer cancel()
	}
	if expired != nil {
		return expired
	}

	if d.slots != nil {
		if resp := d.admit(ctx, req); resp != nil {
			return resp
		}
		defer func() { <-d.slots }()
	}
	d.admitted.Add(1)

	if d.inflight != nil {
		d.inflight.Inc()
		defer d.inflight.Dec()
	}
	return d.dispatchOne(ctx, req)
}

// screenDeadline applies pipeline step 1 to a request carrying a propagated
// deadline: clamp it against MaxRemoteDeadline, reject it with CodeExpired
// when it already passed, and otherwise derive an execution context bounded
// by it. The returned cancel (when non-nil) must be deferred by the caller;
// a non-nil envelope means the request was rejected.
func (d *Dispatcher) screenDeadline(ctx context.Context, req *wire.Envelope) (context.Context, context.CancelFunc, *wire.Envelope) {
	if req.Deadline <= 0 {
		return ctx, nil, nil
	}
	now := time.Now()
	deadline := time.Unix(0, req.Deadline)
	// Clamp rather than trust: the peer's clock may be skewed or hostile.
	maxAhead := d.MaxRemoteDeadline
	if maxAhead <= 0 {
		maxAhead = DefaultMaxRemoteDeadline
	}
	if horizon := now.Add(maxAhead); deadline.After(horizon) {
		deadline = horizon
	}
	if !deadline.After(now) {
		d.expired.Add(1)
		d.event("request-expired", req, "deadline passed before dispatch")
		return ctx, nil, errEnvelope(req.ID, wire.CodeExpired,
			fmt.Sprintf("%v: deadline expired %v before arrival", ErrExpired, now.Sub(deadline)))
	}
	// Derive the execution context only when the transport's ctx is not
	// already at least as strict, so the in-process path (which carries
	// the caller's ctx directly) does not pay a second deadline timer.
	if cur, ok := ctx.Deadline(); !ok || cur.After(deadline) {
		ctx, cancel := context.WithDeadline(ctx, deadline)
		return ctx, cancel, nil
	}
	return ctx, nil, nil
}

// dispatchOne is the dispatch core shared by the single-call and batch
// paths: object lookup, tracing, dimensioned metrics, flight retention, and
// the invocation itself. The caller has already screened the deadline and
// taken admission. The returned envelope comes from the envelope pool; the
// transport that consumes it may recycle it with wire.PutEnvelope.
func (d *Dispatcher) dispatchOne(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	// The caller's head-sampling decision: an unsampled trace gets no eager
	// spans here either — only lazy tail retention below — so the whole
	// distributed trace is kept or dropped as a unit.
	unsampled := req.TraceFlags&wire.TraceFlagUnsampled != 0
	measured := d.histDispatch != nil || d.vLat != nil || (unsampled && d.flight != nil)
	var dispatchStart time.Time
	if measured {
		dispatchStart = time.Now()
	}
	loid, err := naming.ParseLOID(req.Target)
	if err != nil {
		return errEnvelope(req.ID, wire.CodeBadRequest, err.Error())
	}
	d.mu.RLock()
	h, ok := d.objects[loid]
	d.mu.RUnlock()
	if !ok {
		return errEnvelope(req.ID, wire.CodeNoSuchObject, fmt.Sprintf("%s not hosted here", loid))
	}
	obj := h.obj
	var st *methodStats
	if d.vLat != nil {
		st = h.stats(d, req.Method)
	}

	var sp *obs.Span
	if d.tracer != nil && !unsampled {
		// Join the caller's trace when the envelope carries context; root a
		// server-local trace otherwise.
		sp = d.tracer.StartSpan(obs.StageServerDispatch, obs.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID})
		sp.Annotate("loid", req.Target)
		sp.Annotate("method", req.Method)
	}
	var result []byte
	if sp != nil {
		if ctxObj, ok := obj.(ContextObject); ok {
			result, err = ctxObj.InvokeMethodTraced(ctx, sp.Context(), req.Method, req.Payload)
		} else {
			result, err = invokeObject(ctx, obj, req.Method, req.Payload)
		}
		sp.Fail(err)
		sp.Finish()
	} else {
		result, err = invokeObject(ctx, obj, req.Method, req.Payload)
	}
	var dur time.Duration
	if measured {
		dur = time.Since(dispatchStart)
	}
	if d.histDispatch != nil {
		d.histDispatch.Observe(dur)
	}
	if st != nil {
		st.lat.Observe(dur)
		st.calls.Inc()
		if err != nil {
			st.errs.Inc()
		}
	}
	if unsampled && d.flight != nil && req.TraceID != 0 && d.flight.ShouldRetain(dur, err != nil) {
		// Lazy tail retention for a dropped trace: materialise this side's
		// dispatch record (parented on the caller's wire span) only now that
		// the call proved slow or failed.
		reason := obs.RetainSlow
		rec := obs.SpanRecord{
			TraceID:  req.TraceID,
			SpanID:   d.tracer.MintSpanID(),
			ParentID: req.SpanID,
			Stage:    obs.StageServerDispatch,
			Start:    dispatchStart,
			Duration: dur,
			Annots:   map[string]string{"loid": req.Target, "method": req.Method, "sampled": "false"},
		}
		if err != nil {
			reason = obs.RetainError
			rec.Err = err.Error()
		}
		d.flight.Retain(req.TraceID, reason, rec)
	}
	if err != nil {
		if ctx.Err() != nil {
			// The context ended while the object was executing and the
			// object surfaced it: the work stopped at a stage boundary.
			d.cancelled.Add(1)
			d.event("dispatch-cancelled", req, ctx.Err().Error())
		}
		return errEnvelope(req.ID, CodeOf(err), err.Error())
	}
	// A response is matched to its call by ID (a batch sub-response by
	// position), so it carries no Target or Method: echoing them would cost
	// the client two string decodes per call that nothing reads.
	resp := wire.GetEnvelope()
	resp.Kind, resp.ID, resp.Payload = wire.KindResponse, req.ID, result
	return resp
}

// handleBatch services a KindBatchRequest: the outer deadline is screened
// once, the whole batch takes one admission slot (it arrived as one frame
// and dispatches as one unit), and the sub-requests run sequentially through
// dispatchOne — sequential dispatch is what makes payload borrowing trivially
// safe, since the inbound frame outlives every sub-call. Each sub-result is
// encoded into the response run as soon as it is produced, so sub-response
// envelopes are recycled immediately. When the context expires mid-batch the
// remaining sub-calls fail with CodeExpired individually (the ones already
// executed keep their results).
func (d *Dispatcher) handleBatch(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	ctx, cancel, expired := d.screenDeadline(ctx, req)
	if cancel != nil {
		defer cancel()
	}
	if expired != nil {
		return expired
	}

	subs, err := wire.DecodeBatchRun(req.Payload, nil)
	if err != nil {
		return errEnvelope(req.ID, wire.CodeBadRequest, fmt.Sprintf("batch run: %v", err))
	}

	if d.slots != nil {
		if resp := d.admit(ctx, req); resp != nil {
			return resp
		}
		defer func() { <-d.slots }()
	}
	d.admitted.Add(uint64(len(subs)))
	if d.inflight != nil {
		d.inflight.Inc()
		defer d.inflight.Dec()
	}

	// Build the response run incrementally in pooled buffers. The size of
	// the request run is a decent first guess for the response run.
	run := wire.AppendBatchHeader(wire.GetBuf(len(req.Payload) + 64)[:0], len(subs))
	scratch := wire.GetBuf(512)[:0]
	for i := range subs {
		sub := &subs[i]
		var sr *wire.Envelope
		switch {
		case ctx.Err() != nil:
			d.cancelled.Add(1)
			sr = errEnvelope(sub.ID, wire.CodeExpired,
				fmt.Sprintf("%v: %v before batch entry %d dispatched", ErrExpired, ctx.Err(), i))
		case sub.Kind != wire.KindRequest:
			sr = errEnvelope(sub.ID, wire.CodeBadRequest,
				fmt.Sprintf("unexpected sub-envelope kind %s", sub.Kind))
		default:
			// The outer envelope owns the batch's trace context; propagate
			// it so per-sub dispatch records join the caller's trace.
			sub.TraceID, sub.SpanID, sub.TraceFlags = req.TraceID, req.SpanID, req.TraceFlags
			sr = d.dispatchOne(ctx, sub)
		}
		run, scratch = wire.AppendBatchEntry(run, sr, scratch)
		wire.PutEnvelope(sr)
	}
	wire.PutBuf(scratch)

	resp := wire.GetEnvelope()
	resp.Kind, resp.ID, resp.Payload = wire.KindBatchResponse, req.ID, run
	// The run buffer travels with the envelope; the transport releases both
	// once the response is encoded out.
	resp.MarkPayloadPooled()
	return resp
}

// invokeObject dispatches through the context-aware interface when the
// object offers it, falling back to plain InvokeMethod.
func invokeObject(ctx context.Context, obj Object, method string, args []byte) ([]byte, error) {
	if co, ok := obj.(ContextAwareObject); ok {
		return co.InvokeMethodCtx(ctx, method, args)
	}
	return obj.InvokeMethod(method, args)
}

// admit takes an execution slot, waiting in the bounded queue when none is
// free. It returns nil when the request is admitted (the caller must release
// the slot) or the error envelope to send when it is shed or expires while
// queued.
func (d *Dispatcher) admit(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	select {
	case d.slots <- struct{}{}:
		return nil // free slot, no queueing
	default:
	}
	// All slots busy: join the bounded queue or shed.
	if d.queued.Add(1) > d.queueDepth {
		d.queued.Add(-1)
		d.shed.Add(1)
		d.event("request-shed", req, "concurrency limit and queue full")
		return errEnvelope(req.ID, wire.CodeOverloaded,
			fmt.Sprintf("%v: %d in flight, queue full", ErrOverloaded, cap(d.slots)))
	}
	defer d.queued.Add(-1)
	select {
	case d.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		// The caller's deadline (or the server's shutdown) ended the wait
		// before a slot freed: dispatch began but never reached the object.
		d.cancelled.Add(1)
		d.event("dispatch-cancelled", req, "context ended while queued for admission")
		return errEnvelope(req.ID, wire.CodeExpired,
			fmt.Sprintf("%v: %v while queued for admission", ErrExpired, ctx.Err()))
	}
}

// event appends an admission event to the node's event log (no-op when obs
// is not installed — EventLog.Append is nil-safe).
func (d *Dispatcher) event(kind string, req *wire.Envelope, detail string) {
	d.events.Append(obs.Event{Kind: kind, Object: req.Target, Function: req.Method, Detail: detail})
}

// errEnvelope builds a KindError response from the envelope pool; the
// consuming transport may recycle it with wire.PutEnvelope.
func errEnvelope(id, code uint64, msg string) *wire.Envelope {
	ev := wire.GetEnvelope()
	ev.Kind, ev.ID, ev.Code, ev.ErrorMsg = wire.KindError, id, code, msg
	return ev
}
