package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// scriptedDialer fails the first attempt of every call with one scripted
// outcome and passes later attempts through. A batch frame is the first
// attempt of each of its sub-calls. attempts counts every attempt per
// method, frames included.
type scriptedDialer struct {
	inner transport.Dialer
	failureScript

	mu       sync.Mutex
	attempts map[string]int
}

// failureScript is the outcome a scriptedDialer gives each call's first
// attempt.
type failureScript struct {
	err   error  // transport failure to script, or nil
	code  uint64 // error code to script when err is nil
	outer bool   // script a batch frame's code as one outer error envelope
}

func (d *scriptedDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	methods := []string{req.Method}
	if req.Kind == wire.KindBatchRequest {
		subs, err := wire.DecodeBatchRun(req.Payload, nil)
		if err != nil {
			return nil, err
		}
		methods = methods[:0]
		for _, s := range subs {
			methods = append(methods, s.Method)
		}
	}
	d.mu.Lock()
	first := true
	for _, m := range methods {
		first = first && d.attempts[m] == 0
		d.attempts[m]++
	}
	d.mu.Unlock()

	switch {
	case !first:
		return d.inner.Call(ctx, endpoint, req, timeout)
	case d.err != nil:
		return nil, d.err
	case req.Kind != wire.KindBatchRequest || d.outer:
		return &wire.Envelope{Kind: wire.KindError, ID: req.ID, Code: d.code, ErrorMsg: "scripted"}, nil
	}
	run := wire.AppendBatchHeader(nil, len(methods))
	var scratch []byte
	for k := range methods {
		sub := &wire.Envelope{Kind: wire.KindError, ID: uint64(k + 1), Code: d.code, ErrorMsg: "scripted"}
		run, scratch = wire.AppendBatchEntry(run, sub, scratch)
	}
	return &wire.Envelope{Kind: wire.KindBatchResponse, ID: req.ID, Payload: run}, nil
}

func (d *scriptedDialer) Close() error { return d.inner.Close() }

// routeOutcome is everything a route must agree on for one failure row.
type routeOutcome struct {
	results  [2]string // per call: "ok" or the sentinels the error matches
	attempts [2]int    // per call, the failed first attempt included
	stats    ClientStats
	cache    naming.CacheStats
}

var routeSentinels = []error{
	ErrAmbiguousResult, ErrBudgetExhausted, ErrNoSuchObject, ErrNoSuchFunction,
	ErrFunctionDisabled, ErrStaleBinding, ErrUnavailable, ErrBadRequest,
	ErrOverloaded, ErrExpired, ErrNotPrimary, ErrFenced,
	transport.ErrReset, transport.ErrTimeout, transport.ErrClosed,
}

func describeResult(err error) string {
	if err == nil {
		return "ok"
	}
	s := "error"
	for _, sentinel := range routeSentinels {
		if errors.Is(err, sentinel) {
			s += fmt.Sprintf(" [%v]", sentinel)
		}
	}
	return s
}

// runRoute makes two calls, to two objects on one node, whose first
// attempts fail as script dictates: as two single calls, or as one two-sub
// batch.
func runRoute(t *testing.T, script failureScript, idempotent, batch bool) routeOutcome {
	t.Helper()
	env := newTestEnv(t, "n1")
	loids := [2]naming.LOID{{Instance: 1}, {Instance: 2}}
	methods := [2]string{"a", "b"}
	for _, l := range loids {
		env.host(l, echoObject())
	}
	d := &scriptedDialer{inner: env.net.Dialer(), failureScript: script, attempts: map[string]int{}}
	env.client.dialer = d

	var errs [2]error
	ctx := context.Background()
	if batch {
		calls := []BatchCall{
			{LOID: loids[0], Method: methods[0], Idempotent: idempotent},
			{LOID: loids[1], Method: methods[1], Idempotent: idempotent},
		}
		for i, r := range env.client.InvokeBatch(ctx, calls) {
			errs[i] = r.Err
		}
	} else {
		for i := range loids {
			if idempotent {
				_, errs[i] = env.client.InvokeIdempotent(ctx, loids[i], methods[i], nil)
			} else {
				_, errs[i] = env.client.Invoke(ctx, loids[i], methods[i], nil)
			}
		}
	}

	var out routeOutcome
	for i := range errs {
		out.results[i] = describeResult(errs[i])
		out.attempts[i] = d.attempts[methods[i]]
	}
	out.stats = env.client.Stats()
	// Entry counters differ by construction: Calls counts single-call
	// entries, and Batches, CallsBatched and BatchFallbacks count batch ones.
	out.stats.Calls, out.stats.IdempotentCalls = 0, 0
	out.stats.Batches, out.stats.CallsBatched, out.stats.BatchFallbacks = 0, 0, 0
	out.cache = env.cache.Stats()
	return out
}

// Every row of the failure table, met on a call's first attempt, ends the
// same way whether the call went out alone or as a batch sub-call: the same
// result, attempts, backoffs, failure counters and cache traffic.
func TestRoutesAgreeOnEveryFailure(t *testing.T) {
	type row struct {
		name   string
		script failureScript
	}
	rows := []row{
		{"transport safe", failureScript{err: &transport.CallError{Class: transport.RetrySafe, Err: transport.ErrReset}}},
		{"transport ambiguous", failureScript{err: &transport.CallError{Class: transport.RetryAmbiguous, Err: transport.ErrTimeout}}},
		{"transport never", failureScript{err: &transport.CallError{Class: transport.RetryNever, Err: transport.ErrClosed}}},
	}
	for code := wire.CodeInternal; code <= wire.CodeFenced; code++ {
		rows = append(rows,
			row{fmt.Sprintf("code %d per sub", code), failureScript{code: code}},
			row{fmt.Sprintf("code %d outer", code), failureScript{code: code, outer: true}})
	}
	for _, r := range rows {
		for _, idempotent := range []bool{false, true} {
			single := runRoute(t, r.script, idempotent, false)
			batch := runRoute(t, r.script, idempotent, true)
			if single != batch {
				t.Errorf("%s (idempotent %v): routes disagree\n single: %+v\n  batch: %+v",
					r.name, idempotent, single, batch)
			}
		}
	}
}

// A batch whose frame is shed retries its sub-calls together: each round
// is one frame, so with MaxAttempts 3 the four sub-calls ride three frames
// and no single call, and every sub-call backs off before each re-send.
func TestShedBatchBacksOffAndKeepsAttemptBudget(t *testing.T) {
	env := newTestEnv(t, "n1")
	var frames, singles atomic.Int64
	perMethod := map[string]int{}
	var mu sync.Mutex
	shed := transport.HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Kind != wire.KindBatchRequest {
			singles.Add(1)
		} else if subs, err := wire.DecodeBatchRun(req.Payload, nil); err == nil {
			frames.Add(1)
			mu.Lock()
			for _, sub := range subs {
				perMethod[sub.Method]++
			}
			mu.Unlock()
		}
		return &wire.Envelope{Kind: wire.KindError, ID: req.ID, Code: wire.CodeOverloaded, ErrorMsg: "shed"}
	})
	srv, err := env.net.Listen("busy", shed)
	if err != nil {
		t.Fatal(err)
	}
	env.client.Retry = RetryPolicy{CallTimeout: time.Second, MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, Multiplier: 1}

	b := env.client.NewBatch()
	for i := 0; i < 4; i++ {
		loid := naming.LOID{Instance: uint64(10 + i)}
		env.agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
		b.Add(loid, fmt.Sprintf("m%d", i), nil)
	}
	for i, r := range b.Invoke(context.Background()) {
		if !errors.Is(r.Err, ErrOverloaded) {
			t.Errorf("sub %d err = %v, want ErrOverloaded", i, r.Err)
		}
	}
	if f, s := frames.Load(), singles.Load(); f != 3 || s != 0 {
		t.Fatalf("%d frames + %d single calls, want 3 + 0 (3 attempts per sub, each in a frame)", f, s)
	}
	for m, n := range perMethod {
		if n != 3 {
			t.Errorf("%s sent %d times, want 3", m, n)
		}
	}
	st := env.client.Stats()
	if st.Backoffs != 8 || st.OverloadedSheds != 12 || st.Retries != 8 || st.Errors != 4 {
		t.Fatalf("stats = %+v, want 8 backoffs, 12 sheds, 8 retries, 4 errors", st)
	}
}

// The batch frame's timeout is cut to RetryPolicy.Budget like any attempt's.
// Over loopback TCP (the inproc dialer ignores timeouts) a frame to a
// handler that takes a second times out at the budget: the non-idempotent
// sub-call is ambiguous and the idempotent one has no budget left to retry.
func TestBatchFrameHonoursBudget(t *testing.T) {
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	release := make(chan struct{})
	disp := NewDispatcher()
	loid := naming.LOID{Instance: 1}
	disp.Host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		select {
		case <-release:
		case <-time.After(time.Second):
		}
		return []byte("late"), nil
	}))
	srv, err := transport.ListenTCP("127.0.0.1:0", disp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	client := NewClient(cache, dialer)
	client.Retry = RetryPolicy{CallTimeout: 5 * time.Second, MaxAttempts: 3, MaxRebinds: 2,
		BaseBackoff: 5 * time.Millisecond, Multiplier: 1, Budget: 100 * time.Millisecond}

	start := time.Now()
	results := client.InvokeBatch(context.Background(), []BatchCall{
		{LOID: loid, Method: "w"},
		{LOID: loid, Method: "r", Idempotent: true},
	})
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("InvokeBatch took %v under a 100ms budget", elapsed)
	}
	if !errors.Is(results[0].Err, ErrAmbiguousResult) {
		t.Errorf("non-idempotent sub err = %v, want ErrAmbiguousResult", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrBudgetExhausted) {
		t.Errorf("idempotent sub err = %v, want ErrBudgetExhausted", results[1].Err)
	}
}
