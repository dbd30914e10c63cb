// Package obs is the runtime's observability layer: a dependency-free
// tracer, a structured evolution-event log, and a per-node metrics registry,
// bundled into an Obs handle that the rpc, core, manager, and legion layers
// accept optionally. Every entry point is nil-safe — a nil *Tracer returns
// nil *Span, and every *Span method is a no-op on a nil receiver — so
// instrumented code pays one pointer compare, and zero allocations, when
// observability is disabled.
package obs

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names used across the runtime. Spans are labelled with these so
// harness reports and the ctl `trace` subcommand can attribute latency to a
// fixed taxonomy (see DESIGN.md "Observability").
const (
	StageClientInvoke   = "client.invoke"   // whole client-side Invoke, incl. retries
	StageClientBind     = "client.bind"     // naming cache resolve / agent lookup
	StageClientAttempt  = "client.attempt"  // one transport round trip
	StageClientBackoff  = "client.backoff"  // sleep between retries
	StageClientRebind   = "client.rebind"   // binding invalidation + re-resolve
	StageServerDispatch = "server.dispatch" // rpc.Dispatcher.Handle
	StageDCDOControl    = "dcdo.control"    // dcdo.* control-plane method
	StageDCDOResolve    = "dcdo.resolve"    // dfm.BeginExportedCall resolution
	StageDCDOFunc       = "dcdo.func"       // user function execution
	StageDCDOApply      = "dcdo.apply"      // core.ApplyDescriptor evolution
	StageMgrEvolve      = "mgr.evolve"      // manager EvolveInstance
	StageMgrApply       = "mgr.apply"       // manager applying descriptor to one instance
	StageMgrRecover     = "mgr.recover"     // manager journal replay after restart
	StageMgrProbe       = "mgr.probe"       // liveness prober sweep
)

// SpanContext identifies a position in a trace; it is what crosses the wire
// (as the envelope's trace metadata) and what parents a child span. The zero
// value means "no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context belongs to a trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 }

// spanKey is the context key of the trace position a ctx carries.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sc as its trace position: the one
// route a trace takes through the call graph. Spans started for work done
// under the returned ctx parent on sc, and an rpc call made under it joins
// sc's trace. An invalid sc returns ctx as it is.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanFromContext returns the trace position ctx carries, the zero
// SpanContext when it carries none.
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanKey{}).(SpanContext)
	return sc
}

// SpanRecord is the immutable, exported form of a finished (or in-flight)
// span, as stored in the tracer's ring and serialised by /debug/obs.
type SpanRecord struct {
	TraceID  uint64            `json:"trace_id"`
	SpanID   uint64            `json:"span_id"`
	ParentID uint64            `json:"parent_id,omitempty"`
	Stage    string            `json:"stage"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"err,omitempty"`
	Annots   map[string]string `json:"annotations,omitempty"`
}

// Span is one timed stage within a trace. Spans are created by
// Tracer.StartSpan or Span.Child and recorded into the tracer's ring by
// Finish. All methods are safe on a nil receiver, so call sites can thread a
// possibly-nil span without branching.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent uint64
	stage  string
	start  time.Time
	mu     sync.Mutex
	err    string
	annots map[string]string
	done   bool
}

// Tracer mints trace/span IDs and keeps a fixed-size ring of recently
// finished spans. A nil *Tracer is the disabled state: StartSpan returns
// nil and the caller's instrumentation collapses to a pointer compare.
//
// A tracer optionally carries a head Sampler (nil keeps every trace) and a
// FlightRecorder (nil disables tail retention). When both are present the
// tracer implements the two-tier recording model: sampled traces record
// eager spans into the ring as always, and any recorded span that errors or
// exceeds the recorder's threshold promotes its whole trace into the
// recorder; unsampled traces skip the ring entirely and are materialised
// into the recorder lazily by the rpc layer only when they misbehave.
type Tracer struct {
	next    atomic.Uint64 // ID allocator; seeded randomly so nodes don't collide
	sampler *Sampler
	flight  *FlightRecorder
	mu      sync.Mutex
	ring    []SpanRecord
	head    int
	size    int
}

// DefaultRingSize is how many finished spans a tracer retains.
const DefaultRingSize = 4096

// NewTracer returns a tracer retaining the last ringSize finished spans
// (DefaultRingSize if ringSize <= 0).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Tracer{ring: make([]SpanRecord, ringSize)}
	// Random base offset keeps span/trace IDs from distinct node-local
	// tracers from colliding when their spans are merged into one trace.
	t.next.Store(rand.Uint64() | 1)
	return t
}

// nextID returns a fresh nonzero ID.
func (t *Tracer) nextID() uint64 {
	for {
		id := t.next.Add(1)
		if id != 0 {
			return id
		}
	}
}

// SetSampler installs (or clears) the head sampler. A nil sampler keeps
// every trace.
func (t *Tracer) SetSampler(s *Sampler) {
	if t == nil {
		return
	}
	t.sampler = s
}

// Sampler returns the tracer's head sampler (nil = keep everything).
func (t *Tracer) Sampler() *Sampler {
	if t == nil {
		return nil
	}
	return t.sampler
}

// SetFlight installs (or clears) the flight recorder spans promote into.
func (t *Tracer) SetFlight(f *FlightRecorder) {
	if t == nil {
		return
	}
	t.flight = f
}

// Flight returns the tracer's flight recorder (nil = no tail retention).
// Nil-safe.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// Keep applies the head sampler to traceID. Nil-safe: a nil tracer (or no
// sampler) keeps everything.
func (t *Tracer) Keep(traceID uint64) bool {
	if t == nil {
		return true
	}
	return t.sampler.Keep(traceID)
}

// MintContext allocates a fresh root trace context without creating a Span.
// This is the unsampled fast path's primitive: the caller gets wire-ready
// trace/span IDs (two atomic adds, zero allocations) and materialises
// SpanRecords only if the call later proves worth retaining. Nil-safe.
func (t *Tracer) MintContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.nextID(), SpanID: t.nextID()}
}

// MintSpanID allocates a fresh span ID for lazily-materialised records.
// Nil-safe.
func (t *Tracer) MintSpanID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID()
}

// StartSpan begins a span for the given stage. If parent is valid the span
// joins that trace with a parent link; otherwise it roots a new trace. A nil
// tracer returns nil.
func (t *Tracer) StartSpan(stage string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tracer: t, stage: stage, start: time.Now()}
	sp.ctx.SpanID = t.nextID()
	if parent.Valid() {
		sp.ctx.TraceID = parent.TraceID
		sp.parent = parent.SpanID
	} else {
		sp.ctx.TraceID = t.nextID()
	}
	return sp
}

// Child begins a sub-span of sp for the given stage. Nil-safe.
func (sp *Span) Child(stage string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tracer.StartSpan(stage, sp.ctx)
}

// Context returns the span's trace position (zero for a nil span).
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.ctx
}

// Annotate attaches a key/value annotation. Nil-safe; callers should guard
// expensive value construction with `if sp != nil` themselves.
func (sp *Span) Annotate(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.annots == nil {
		sp.annots = make(map[string]string, 4)
	}
	sp.annots[key] = value
	sp.mu.Unlock()
}

// Fail records err on the span (no-op for nil span or nil error).
func (sp *Span) Fail(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.mu.Lock()
	sp.err = err.Error()
	sp.mu.Unlock()
}

// Finish stamps the duration and records the span into the tracer's ring.
// Finishing twice records once. Nil-safe.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.done {
		sp.mu.Unlock()
		return
	}
	sp.done = true
	rec := SpanRecord{
		TraceID:  sp.ctx.TraceID,
		SpanID:   sp.ctx.SpanID,
		ParentID: sp.parent,
		Stage:    sp.stage,
		Start:    sp.start,
		Duration: time.Since(sp.start),
		Err:      sp.err,
		Annots:   sp.annots,
	}
	sp.mu.Unlock()
	sp.tracer.record(rec)
}

// record appends rec to the ring, evicting the oldest entry when full, and
// runs the tail-retention trigger: a span that errored or exceeded the
// flight recorder's threshold promotes its whole trace (every span for it
// still in the ring) into the recorder; spans of already-retained traces
// keep appending so the retained trace ends up complete.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
	if f := t.flight; f != nil {
		if reason, ok := f.shouldPromote(rec.Duration, rec.Err != ""); ok {
			f.Retain(rec.TraceID, reason, t.Trace(rec.TraceID)...)
		} else {
			f.Append(rec)
		}
	}
}

// Recent returns up to limit of the most recently finished spans, oldest
// first (all retained spans if limit <= 0). Nil-safe: a nil tracer returns
// nil.
func (t *Tracer) Recent(limit int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.size
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]SpanRecord, 0, n)
	// Oldest retained entry sits at head-size (mod len); walk forward,
	// skipping to the last n.
	start := t.head - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Trace returns every retained span belonging to traceID, oldest first.
func (t *Tracer) Trace(traceID uint64) []SpanRecord {
	if t == nil || traceID == 0 {
		return nil
	}
	var out []SpanRecord
	for _, rec := range t.Recent(0) {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}
