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
