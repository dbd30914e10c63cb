package rpc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
)

// sampledEnv wires a testEnv with a shared obs configured for head sampling
// and tail retention on both the client and the dispatcher.
func sampledEnv(t *testing.T, rate float64, threshold time.Duration) (*testEnv, *obs.Obs) {
	t.Helper()
	env := newTestEnv(t, "samp")
	o := obs.NewWithOptions(obs.Options{
		SampleRate:      rate,
		FlightCapacity:  64,
		FlightThreshold: threshold,
	})
	env.client.Tracer = o.Tracer
	env.disp.SetObs(o)
	return env, o
}

func TestUnsampledCallsRecordNoSpans(t *testing.T) {
	env, o := sampledEnv(t, 0.0000001, -1) // drop effectively everything, errors-only retention
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 4}
	env.host(loid, echoObject())

	for i := 0; i < 50; i++ {
		if _, err := env.client.Invoke(context.Background(), loid, "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	if spans := o.Tracer.Recent(0); len(spans) != 0 {
		t.Fatalf("unsampled calls recorded %d spans: %+v", len(spans), spans[0])
	}
	if got := o.GetFlight().Stats().Retained; got != 0 {
		t.Fatalf("healthy unsampled calls retained %d traces", got)
	}
}

func TestSampledTraceStillEager(t *testing.T) {
	env, o := sampledEnv(t, 1, -1) // rate >= 1: no sampler installed, keep all
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 5}
	env.host(loid, echoObject())
	if _, err := env.client.Invoke(context.Background(), loid, "m", nil); err != nil {
		t.Fatal(err)
	}
	spans := o.Tracer.Recent(0)
	var stages []string
	for _, sp := range spans {
		stages = append(stages, sp.Stage)
	}
	joined := strings.Join(stages, ",")
	for _, want := range []string{obs.StageClientInvoke, obs.StageClientAttempt, obs.StageServerDispatch} {
		if !strings.Contains(joined, want) {
			t.Fatalf("sampled call missing %s span: %s", want, joined)
		}
	}
	// Client root and server dispatch must share one trace ID.
	var traceID uint64
	for _, sp := range spans {
		if traceID == 0 {
			traceID = sp.TraceID
		}
		if sp.TraceID != traceID {
			t.Fatalf("spans split across traces: %+v", spans)
		}
	}
}

func TestUnsampledErrorRetainedBothSides(t *testing.T) {
	env, o := sampledEnv(t, 0.0000001, -1)
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 6}
	boom := errors.New("kaput")
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return nil, boom
	}))

	_, err := env.client.Invoke(context.Background(), loid, "explode", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	// Client and server share one obs here, so the retained trace must hold
	// both the lazily-materialised client.invoke and server.dispatch records
	// under one trace ID even though no spans were ever recorded eagerly.
	recent := o.GetFlight().Recent(0)
	if len(recent) != 1 {
		t.Fatalf("retained %d traces, want 1: %+v", len(recent), recent)
	}
	ft := recent[0]
	if ft.Reason != obs.RetainError {
		t.Fatalf("reason = %q", ft.Reason)
	}
	var haveInvoke, haveDispatch bool
	for _, sp := range ft.Spans {
		if sp.TraceID != ft.TraceID {
			t.Fatalf("span outside trace: %+v", sp)
		}
		switch sp.Stage {
		case obs.StageClientInvoke:
			haveInvoke = true
			if sp.Err == "" {
				t.Fatal("client record lost the error")
			}
		case obs.StageServerDispatch:
			haveDispatch = true
			if sp.ParentID == 0 {
				t.Fatal("server record not parented on the wire span")
			}
		}
	}
	if !haveInvoke || !haveDispatch {
		t.Fatalf("incomplete retained trace: %+v", ft.Spans)
	}
	if len(o.Tracer.Recent(0)) != 0 {
		t.Fatal("unsampled error produced eager spans")
	}
}

func TestUnsampledSlowCallRetained(t *testing.T) {
	env, o := sampledEnv(t, 0.0000001, 5*time.Millisecond)
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 7}
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		time.Sleep(15 * time.Millisecond)
		return []byte("ok"), nil
	}))
	if _, err := env.client.Invoke(context.Background(), loid, "slowpoke", nil); err != nil {
		t.Fatal(err)
	}
	recent := o.GetFlight().Recent(0)
	if len(recent) != 1 || recent[0].Reason != obs.RetainSlow {
		t.Fatalf("slow unsampled call not retained: %+v", recent)
	}
	found := false
	for _, sp := range recent[0].Spans {
		if sp.Annots["method"] == "slowpoke" && sp.Annots["sampled"] == "false" {
			found = true
		}
	}
	if !found {
		t.Fatalf("retained spans missing method annotation: %+v", recent[0].Spans)
	}
}

func TestDispatcherDimensionedMetrics(t *testing.T) {
	env := newTestEnv(t, "dims")
	o := obs.New()
	env.client.Tracer = o.Tracer
	env.disp.SetObs(o)
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 8}
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		if method == "bad" {
			return nil, errors.New("no")
		}
		return []byte("ok"), nil
	}))
	for i := 0; i < 5; i++ {
		if _, err := env.client.Invoke(context.Background(), loid, "good", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.client.Invoke(context.Background(), loid, "bad", nil); err == nil {
		t.Fatal("expected remote error")
	}

	key := loid.String()
	calls := o.Metrics.LookupCounterVec(InvokeCallsVec)
	errs := o.Metrics.LookupCounterVec(InvokeErrorsVec)
	lat := o.Metrics.LookupHistogramVec(InvokeLatencyVec)
	if calls == nil || errs == nil || lat == nil {
		t.Fatal("dimensioned families not registered")
	}
	if got := calls.Sum(metrics.MatchLabel("loid", key)); got != 6 {
		t.Fatalf("cohort calls = %d, want 6", got)
	}
	if got := errs.Sum(metrics.MatchLabel("loid", key)); got != 1 {
		t.Fatalf("cohort errors = %d, want 1", got)
	}
	if got := lat.With(key, "good").Count(); got != 5 {
		t.Fatalf("good latency count = %d, want 5", got)
	}
	if got := lat.With(key, "bad").Count(); got != 1 {
		t.Fatalf("bad latency count = %d, want 1", got)
	}
}

func TestObsServiceFlightMethod(t *testing.T) {
	env, o := sampledEnv(t, 0.0000001, -1)
	env.disp.Host(ObsLOID, NewObsService(o))
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 9}
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return nil, errors.New("retained")
	}))
	_, _ = env.client.Invoke(context.Background(), loid, "fail", nil)

	oc := &ObsClient{Dialer: env.net.Dialer(), Endpoint: env.server.Endpoint(), Timeout: 2 * time.Second}
	rep, err := oc.Flight(context.Background(), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Retained != 1 || len(rep.Traces) != 1 {
		t.Fatalf("flight report = %+v", rep)
	}
	// Point query by trace ID.
	one, err := oc.Flight(context.Background(), rep.Traces[0].TraceID, 0, false)
	if err != nil || len(one.Traces) != 1 {
		t.Fatalf("point flight query = %+v, %v", one, err)
	}
	// Slowest ordering path works over RPC too.
	if _, err := oc.Flight(context.Background(), 0, 10, true); err != nil {
		t.Fatal(err)
	}
}

// A batch runs under one client.invoke span, like a single call: in the
// trace its ctx carries, or in one it roots, with every sub-call's
// server.dispatch span in that same trace.
func TestBatchJoinsTheCallersTrace(t *testing.T) {
	env, o := sampledEnv(t, 1, -1)
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 9}
	env.host(loid, echoObject())
	calls := []BatchCall{{LOID: loid, Method: "a"}, {LOID: loid, Method: "b"}}
	stages := func(spans []obs.SpanRecord) map[string]int {
		n := make(map[string]int)
		for _, sp := range spans {
			n[sp.Stage]++
		}
		return n
	}

	caller := o.Tracer.StartSpan("caller", obs.SpanContext{})
	ctx := obs.ContextWithSpan(context.Background(), caller.Context())
	for i, r := range env.client.InvokeBatch(ctx, calls) {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
	}
	caller.Finish()
	all := o.Tracer.Recent(0)
	trace := o.Tracer.Trace(caller.Context().TraceID)
	if len(trace) != len(all) {
		t.Fatalf("%d of %d spans in the caller's trace: %+v", len(trace), len(all), all)
	}
	got := stages(trace)
	if got[obs.StageClientInvoke] != 1 || got[obs.StageClientAttempt] != 1 || got[obs.StageServerDispatch] != 2 {
		t.Fatalf("caller's trace stages = %v, want 1 client.invoke, 1 client.attempt, 2 server.dispatch", got)
	}
	// A batch records no client.bind span per sub-call: a 1024-call batch
	// would otherwise push that many spans into the ring every round.
	if got[obs.StageClientBind] != 0 {
		t.Fatalf("batch recorded %d client.bind spans, want 0", got[obs.StageClientBind])
	}
	for _, sp := range trace {
		if sp.Stage == obs.StageClientInvoke && sp.ParentID != caller.Context().SpanID {
			t.Fatalf("client.invoke parented on %d, want the caller's span %d", sp.ParentID, caller.Context().SpanID)
		}
	}

	// With no span in ctx, the batch roots its own trace. Its calls go to two
	// endpoints, each attempt from its own goroutine under the one span.
	disp2 := NewDispatcher()
	disp2.SetObs(o)
	srv2, err := env.net.Listen("samp2", disp2)
	if err != nil {
		t.Fatal(err)
	}
	far := naming.LOID{Domain: 4, Class: 4, Instance: 10}
	disp2.Host(far, echoObject())
	env.agent.Register(far, naming.Address{Endpoint: srv2.Endpoint()})
	calls[1].LOID = far
	before := len(all)
	for i, r := range env.client.InvokeBatch(context.Background(), calls) {
		if r.Err != nil {
			t.Fatalf("scattered sub %d: %v", i, r.Err)
		}
	}
	fresh := o.Tracer.Recent(0)[before:]
	if len(fresh) == 0 {
		t.Fatal("an unparented batch recorded no spans")
	}
	rooted := o.Tracer.Trace(fresh[0].TraceID)
	if len(rooted) != len(fresh) {
		t.Fatalf("an unparented batch's spans split across traces: %+v", fresh)
	}
	if got := stages(rooted); got[obs.StageClientInvoke] != 1 || got[obs.StageClientAttempt] != 2 || got[obs.StageServerDispatch] != 2 {
		t.Fatalf("rooted trace stages = %v, want 1 client.invoke, 2 client.attempt, 2 server.dispatch", got)
	}
}

// A batch whose trace the head sampler drops records no span, but once it
// proves slow or failed the flight recorder keeps one client.invoke record
// for the whole batch and the server's record of each sub-call, under the
// one minted trace.
func TestUnsampledBatchRetainedBothSides(t *testing.T) {
	env, o := sampledEnv(t, 0.0000001, 5*time.Millisecond)
	loid := naming.LOID{Domain: 4, Class: 4, Instance: 11}
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		time.Sleep(10 * time.Millisecond)
		if method == "bad" {
			return nil, errors.New("kaput")
		}
		return []byte("ok"), nil
	}))
	res := env.client.InvokeBatch(context.Background(), []BatchCall{{LOID: loid, Method: "good"}, {LOID: loid, Method: "bad"}})
	if res[0].Err != nil || res[1].Err == nil {
		t.Fatalf("results = %+v, want the second sub-call alone to fail", res)
	}
	if spans := o.Tracer.Recent(0); len(spans) != 0 {
		t.Fatalf("an unsampled batch recorded %d eager spans: %+v", len(spans), spans)
	}
	recent := o.GetFlight().Recent(0)
	if len(recent) != 1 {
		t.Fatalf("retained %+v, want one trace", recent)
	}
	var invoke *obs.SpanRecord
	dispatched := map[string]bool{}
	for i, sp := range recent[0].Spans {
		if sp.TraceID != recent[0].TraceID {
			t.Fatalf("span outside the trace: %+v", sp)
		}
		switch sp.Stage {
		case obs.StageClientInvoke:
			if invoke != nil {
				t.Fatalf("two client.invoke records: %+v", recent[0].Spans)
			}
			invoke = &recent[0].Spans[i]
		case obs.StageServerDispatch:
			dispatched[sp.Annots["method"]] = true
		}
	}
	if invoke == nil || invoke.Annots["calls"] != "2" || invoke.Annots["sampled"] != "false" || invoke.Err == "" {
		t.Fatalf("client.invoke record = %+v, want calls=2, sampled=false and the error", invoke)
	}
	for _, sp := range recent[0].Spans {
		if sp.Stage == obs.StageServerDispatch && sp.ParentID != invoke.SpanID {
			t.Fatalf("server record parented on %d, want the batch's wire span %d", sp.ParentID, invoke.SpanID)
		}
	}
	if !dispatched["good"] || !dispatched["bad"] {
		t.Fatalf("server kept its side of %v, want both sub-calls", dispatched)
	}
}
