package main

import (
	"context"
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/manager"
	"godcdo/internal/objstate"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// Outside-in tracing. The benchmark wraps the public seams between modules —
// Dialer, Handler, hosted Object, registered function body, manager.Instance
// — and each wrapper records one span around the call it forwards. Nothing
// inside the program is instrumented. The spans of one operation share its
// sequence number, which travels from seam to seam the way a real trace
// context would: in the context.Context between wrappers in one process, in
// Envelope.TraceID across the wire, and in the first opIDBytes of the payload
// down to the function body (which receives no context).

type spanKind uint8

const (
	spanOp            spanKind = iota // root: one caller operation
	spanEvolve                        // root: one EvolveInstance/RollbackInstance
	spanTransportCall                 // client-side Dialer.Call
	spanServerHandle                  // server-side Handler.Handle
	spanReplicaInvoke                 // hosted replica.Replica
	spanObjectInvoke                  // hosted (or replica-wrapped) core.DCDO
	spanFuncBody                      // registered function body
	spanShip                          // primary's Dialer.Call shipping state
	spanInstanceApply                 // manager.Instance.Apply
	spanKinds
)

func (k spanKind) root() bool { return k == spanOp || k == spanEvolve }

type span struct {
	start, end int64 // ns since tracer.base
	op         uint64
	kind       spanKind
}

// spanCapacity bounds the in-memory span buffer (16 MiB). Operations that
// begin once it is nearly full run untraced, so the fastest workloads trace
// their first few hundred thousand operations of the window and no more.
const spanCapacity = 1 << 19

// spanReserve is the room begin() demands before it lets an operation trace:
// more spans than any one operation records (a 1024-call local block records
// 2048).
const spanReserve = 4096

type tracer struct {
	base  time.Time
	spans []span
	next  atomic.Int64
	on    atomic.Bool
	ops   atomic.Uint64

	// Counts taken at the seams, over the traced window.
	clientCalls atomic.Uint64 // Dialer.Call by the rpc client
	shipCalls   atomic.Uint64 // Dialer.Call by a primary replica
	shipBytes   atomic.Uint64
	backupReads atomic.Uint64 // repl.read seen by hosted replicas

	mu        sync.Mutex
	exchanges []exchange // sampled request/response envelopes for replay
	journal   []manager.JournalRecord
	seen      atomic.Uint64 // exchanges offered to sample
}

// An exchange is one recorded request with its response, deep-copied so the
// replay runs on exactly what crossed the wire.
type exchange struct {
	req, resp wire.Envelope
}

const (
	exchangeSampleEvery = 16
	exchangeSampleMax   = 512
)

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin allots the next operation's identifier, or 0 when the operation
// should run untraced (window closed or buffer nearly full).
func (t *tracer) begin() uint64 {
	if !t.on.Load() || t.next.Load() > int64(len(t.spans)-spanReserve) {
		return 0
	}
	return t.ops.Add(1)
}

func (t *tracer) record(kind spanKind, op uint64, start, end int64) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = span{start: start, end: end, op: op, kind: kind}
}

func (t *tracer) recorded() []span {
	if n := t.next.Load(); n < int64(len(t.spans)) {
		return t.spans[:n]
	}
	return t.spans
}

type opKey struct{}

func withOp(ctx context.Context, op uint64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opOf(ctx context.Context) uint64 {
	op, _ := ctx.Value(opKey{}).(uint64)
	return op
}

// payloadOp reads the operation identifier a caller stamped into a payload.
func payloadOp(args []byte) uint64 {
	if len(args) < opIDBytes {
		return 0
	}
	return binary.LittleEndian.Uint64(args)
}

func stampOp(payload []byte, op uint64) {
	binary.LittleEndian.PutUint64(payload, op)
}

// tracedDialer wraps the Dialer handed to rpc.NewClient (kind
// spanTransportCall) or to replica.New (kind spanShip).
type tracedDialer struct {
	inner transport.Dialer
	t     *tracer
	kind  spanKind
}

func (d *tracedDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	if d.t.on.Load() {
		if d.kind == spanShip {
			d.t.shipCalls.Add(1)
			d.t.shipBytes.Add(uint64(len(req.Payload)))
		} else {
			d.t.clientCalls.Add(1)
		}
	}
	op := opOf(ctx)
	if op == 0 {
		return d.inner.Call(ctx, endpoint, req, timeout)
	}
	req.TraceID = op
	start := d.t.now()
	resp, err := d.inner.Call(ctx, endpoint, req, timeout)
	d.t.record(d.kind, op, start, d.t.now())
	if err == nil && d.kind == spanTransportCall {
		d.t.sample(req, resp)
	}
	return resp, err
}

func (d *tracedDialer) Close() error { return d.inner.Close() }

// sample keeps a deep copy of every exchangeSampleEvery-th exchange, up to
// exchangeSampleMax, for the wire and dispatcher replays.
func (t *tracer) sample(req, resp *wire.Envelope) {
	if strings.HasPrefix(req.Method, core.ControlPrefix) {
		return // an evolve's descriptor shipment, not a call
	}
	if t.seen.Add(1)%exchangeSampleEvery != 1 {
		return
	}
	x := exchange{req: *req, resp: *resp}
	x.req.Payload = append([]byte(nil), req.Payload...)
	x.resp.Payload = append([]byte(nil), resp.Payload...)
	t.mu.Lock()
	if len(t.exchanges) < exchangeSampleMax {
		t.exchanges = append(t.exchanges, x)
	}
	t.mu.Unlock()
}

// tracedHandler wraps the Dispatcher handed to ListenTCPOptions.
type tracedHandler struct {
	inner transport.Handler
	t     *tracer
}

func (h *tracedHandler) Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	op := req.TraceID
	if op == 0 {
		return h.inner.Handle(ctx, req)
	}
	start := h.t.now()
	resp := h.inner.Handle(withOp(ctx, op), req)
	h.t.record(spanServerHandle, op, start, h.t.now())
	return resp
}

// hostedObject is what the dispatcher hosts in this benchmark: core.DCDO and
// replica.Replica both serve calls with and without a context.
type hostedObject interface {
	rpc.Object
	rpc.ContextAwareObject
}

// tracedObject wraps a hosted object (kind spanReplicaInvoke around a
// replica.Replica, spanObjectInvoke around a core.DCDO). Around a DCDO it
// also serves as the replica.Inner of a traced replica.
type tracedObject struct {
	inner hostedObject
	state func() *objstate.State
	t     *tracer
	kind  spanKind
}

var (
	_ hostedObject  = (*tracedObject)(nil)
	_ replica.Inner = (*tracedObject)(nil)
)

// InvokeMethod is the context-free entry local_call drives; the operation is
// read out of the payload, as in a function body.
func (o *tracedObject) InvokeMethod(method string, args []byte) ([]byte, error) {
	op := payloadOp(args)
	if op == 0 || !o.t.on.Load() {
		return o.inner.InvokeMethod(method, args)
	}
	start := o.t.now()
	out, err := o.inner.InvokeMethod(method, args)
	o.t.record(o.kind, op, start, o.t.now())
	return out, err
}

func (o *tracedObject) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if o.kind == spanReplicaInvoke && method == rpc.MethodReplRead && o.t.on.Load() {
		o.t.backupReads.Add(1)
	}
	op := opOf(ctx)
	if op == 0 {
		return o.inner.InvokeMethodCtx(ctx, method, args)
	}
	start := o.t.now()
	out, err := o.inner.InvokeMethodCtx(ctx, method, args)
	o.t.record(o.kind, op, start, o.t.now())
	return out, err
}

func (o *tracedObject) State() *objstate.State { return o.state() }

func traceDCDO(d *core.DCDO, t *tracer) *tracedObject {
	return &tracedObject{inner: d, state: d.State, t: t, kind: spanObjectInvoke}
}

// traceFunc wraps a registered function body. The body receives no context,
// so the operation is read back out of the payload.
func traceFunc(f registry.Func, t *tracer) registry.Func {
	return func(c registry.Caller, args []byte) ([]byte, error) {
		op := payloadOp(args)
		if op == 0 || !t.on.Load() {
			return f(c, args)
		}
		start := t.now()
		out, err := f(c, args)
		t.record(spanFuncBody, op, start, t.now())
		return out, err
	}
}

// tracedInstance wraps the manager.RemoteInstance handed to the manager.
type tracedInstance struct {
	manager.Instance
	t *tracer
}

func (i tracedInstance) Apply(ctx context.Context, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	op := opOf(ctx)
	if op == 0 {
		return i.Instance.Apply(ctx, target, v)
	}
	start := i.t.now()
	rep, err := i.Instance.Apply(ctx, target, v)
	i.t.record(spanInstanceApply, op, start, i.t.now())
	return rep, err
}

// journalSink is the Journal.SetSink hook: it keeps every record appended
// during the traced window, for the per-evolve counts and the append replay.
func (t *tracer) journalSink(r manager.JournalRecord) error {
	if t.on.Load() {
		t.mu.Lock()
		t.journal = append(t.journal, r)
		t.mu.Unlock()
	}
	return nil
}

// selfTimes is the outcome of nesting the recorded spans: per root kind and
// span kind, the self time of every such span (duration minus the part its
// children cover) and its whole duration, plus the totals the ledger check
// compares. Splitting by root keeps an evolve's spans out of the call ledger.
type selfTimes struct {
	self      [spanKinds][spanKinds][]float64 // [root][kind] ns
	duration  [spanKinds][spanKinds][]float64
	rootTotal float64 // Σ root durations of nested operations
	selfTotal float64 // Σ self times of every span of those operations
	stray     float64 // Σ durations of spans that fit under no root
}

// residualPct is |Σ self − Σ root| ÷ Σ root: zero when every span nested
// under its operation's root, larger when spans were lost or fell outside it.
func (s *selfTimes) residualPct() float64 {
	if s.rootTotal == 0 {
		return 0
	}
	d := s.selfTotal + s.stray - s.rootTotal
	if d < 0 {
		d = -d
	}
	return 100 * d / s.rootTotal
}

// nest groups spans by operation and nests each group by interval
// containment: a span's parent is the tightest span of the same operation
// that encloses it. Sequential siblings (sixteen batch sub-calls, two state
// shipments) never overlap, so containment recovers the call tree without
// parent identifiers crossing the wire.
func nest(spans []span) *selfTimes {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := &spans[order[x]], &spans[order[y]]
		if a.op != b.op {
			return a.op < b.op
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		// Identical intervals: a span is recorded when it ends, after its
		// children, so the later record is the parent.
		return order[x] > order[y]
	})
	out := &selfTimes{}
	group := make([]span, 0, 64)
	for i := 0; i < len(order); {
		group = group[:0]
		op := spans[order[i]].op
		for ; i < len(order) && spans[order[i]].op == op; i++ {
			group = append(group, spans[order[i]])
		}
		nestOp(group, out)
	}
	return out
}

type openSpan struct {
	span
	from    int64 // start, moved past whatever an earlier sibling already covers
	covered int64 // ns of [from, end] covered by children so far
	reach   int64 // end of the latest child interval merged into covered
}

// nestOp nests one operation's spans, sorted by start (outermost first among
// equals), and adds their self times to out. Where two siblings overlap, the
// overlap belongs to the earlier one alone: the later sibling's self time is
// counted from where the earlier one ends, so no nanosecond is attributed
// twice and the self times of a tree sum to its root.
func nestOp(group []span, out *selfTimes) {
	if !group[0].kind.root() {
		// The operation's root was never recorded (buffer cut-off).
		for _, s := range group {
			out.stray += float64(s.end - s.start)
		}
		return
	}
	root := group[0].kind
	out.rootTotal += float64(group[0].end - group[0].start)
	stack := make([]openSpan, 0, 8)
	closeTop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self := float64(top.end - top.from - top.covered)
		out.self[root][top.kind] = append(out.self[root][top.kind], self)
		out.duration[root][top.kind] = append(out.duration[root][top.kind], float64(top.end-top.start))
		out.selfTotal += self
	}
	for i, s := range group {
		for len(stack) > 0 && s.end > stack[len(stack)-1].end {
			closeTop()
		}
		if i > 0 && len(stack) == 0 {
			out.stray += float64(s.end - s.start) // outside the root
			continue
		}
		from := s.start
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			if p.reach > from {
				from = p.reach
			}
			if from > s.end {
				from = s.end
			}
			p.covered += s.end - from
			p.reach = s.end
		}
		stack = append(stack, openSpan{span: s, from: from, reach: from})
	}
	for len(stack) > 0 {
		closeTop()
	}
}
