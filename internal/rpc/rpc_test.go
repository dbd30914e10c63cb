package rpc

import (
	"context"

	"errors"
	"fmt"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// testEnv wires an agent, a cache, an inproc network, and a dispatcher
// hosted at one endpoint.
type testEnv struct {
	agent  *naming.Agent
	cache  *naming.Cache
	net    *transport.InprocNetwork
	disp   *Dispatcher
	server *transport.InprocServer
	client *Client
}

func newTestEnv(t *testing.T, nodeName string) *testEnv {
	t.Helper()
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	disp := NewDispatcher()
	srv, err := net.Listen(nodeName, disp)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(cache, net.Dialer())
	// Keep same-endpoint retry backoffs test-fast.
	client.Retry.BaseBackoff = time.Millisecond
	client.Retry.MaxBackoff = 4 * time.Millisecond
	return &testEnv{
		agent:  agent,
		cache:  cache,
		net:    net,
		disp:   disp,
		server: srv,
		client: client,
	}
}

func (e *testEnv) host(loid naming.LOID, obj Object) {
	e.disp.Host(loid, obj)
	e.agent.Register(loid, naming.Address{Endpoint: e.server.Endpoint()})
}

func echoObject() Object {
	return ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return append([]byte(method+":"), args...), nil
	})
}

func TestInvokeRoundTrip(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 1}
	env.host(loid, echoObject())

	out, err := env.client.Invoke(context.Background(), loid, "greet", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "greet:world" {
		t.Fatalf("out = %q", out)
	}
	st := env.client.Stats()
	if st.Calls != 1 || st.Rebinds != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokeUnboundObject(t *testing.T) {
	env := newTestEnv(t, "n1")
	_, err := env.client.Invoke(context.Background(), naming.LOID{Instance: 404}, "m", nil)
	if !errors.Is(err, naming.ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestInvokeNoSuchFunctionNotRetried(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	calls := 0
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		calls++
		return nil, fmt.Errorf("function %q: %w", method, ErrNoSuchFunction)
	}))

	_, err := env.client.Invoke(context.Background(), loid, "gone", nil)
	if !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("err = %v, want ErrNoSuchFunction", err)
	}
	if calls != 1 {
		t.Fatalf("handler called %d times, want 1 (no retry for app errors)", calls)
	}
	if st := env.client.Stats(); st.Rebinds != 0 {
		t.Fatalf("rebinds = %d, want 0", st.Rebinds)
	}
}

func TestInvokeDisabledFunctionErrorCode(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 2}
	env.host(loid, ObjectFunc(func(string, []byte) ([]byte, error) {
		return nil, ErrFunctionDisabled
	}))
	_, err := env.client.Invoke(context.Background(), loid, "f", nil)
	if !errors.Is(err, ErrFunctionDisabled) {
		t.Fatalf("err = %v, want ErrFunctionDisabled", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeDisabled {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestInvokeRebindsAfterMigration(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 3}
	env.host(loid, echoObject())

	// Warm the cache.
	if _, err := env.client.Invoke(context.Background(), loid, "m", nil); err != nil {
		t.Fatal(err)
	}

	// Migrate: evict from n1, host on n2, update the binding agent. The
	// client's cache still points at n1.
	disp2 := NewDispatcher()
	srv2, err := env.net.Listen("n2", disp2)
	if err != nil {
		t.Fatal(err)
	}
	env.disp.Evict(loid)
	disp2.Host(loid, echoObject())
	env.agent.Register(loid, naming.Address{Endpoint: srv2.Endpoint()})

	out, err := env.client.Invoke(context.Background(), loid, "m", []byte("post-migrate"))
	if err != nil {
		t.Fatalf("invoke after migration: %v", err)
	}
	if string(out) != "m:post-migrate" {
		t.Fatalf("out = %q", out)
	}
	if st := env.client.Stats(); st.Rebinds != 1 {
		t.Fatalf("rebinds = %d, want 1", st.Rebinds)
	}
}

func TestInvokeRebindExhaustion(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 4}
	// Bind to an endpoint that never hosts the object.
	env.agent.Register(loid, naming.Address{Endpoint: env.server.Endpoint()})

	env.client.Retry.MaxRebinds = 3
	_, err := env.client.Invoke(context.Background(), loid, "m", nil)
	if !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v, want wrapped ErrNoSuchObject", err)
	}
	if st := env.client.Stats(); st.Rebinds != 4 { // initial + 3 retries all rebound
		t.Fatalf("rebinds = %d, want 4", st.Rebinds)
	}
}

func TestInvokeUnreachableEndpointRebinds(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 5}
	// First binding points at a node that does not exist; after
	// invalidation, the agent still returns the dead address once, then we
	// fix it mid-test by re-registering.
	env.agent.Register(loid, naming.Address{Endpoint: "inproc:dead"})
	env.disp.Host(loid, echoObject())

	done := make(chan struct{})
	go func() {
		// Fix the binding as soon as the first failure invalidates the
		// cache. Registering here is racy in principle, but MaxRebinds
		// retries make the test deterministic in practice.
		env.agent.Register(loid, naming.Address{Endpoint: env.server.Endpoint()})
		close(done)
	}()
	<-done

	out, err := env.client.Invoke(context.Background(), loid, "m", []byte("x"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(out) != "m:x" {
		t.Fatalf("out = %q", out)
	}
}

func TestDispatcherRejectsNonRequests(t *testing.T) {
	d := NewDispatcher()
	resp := d.Handle(context.Background(), &wire.Envelope{Kind: wire.KindResponse, ID: 7})
	if resp.Kind != wire.KindError || resp.Code != wire.CodeBadRequest || resp.ID != 7 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDispatcherRejectsBadLOID(t *testing.T) {
	d := NewDispatcher()
	resp := d.Handle(context.Background(), &wire.Envelope{Kind: wire.KindRequest, Target: "not-a-loid"})
	if resp.Kind != wire.KindError || resp.Code != wire.CodeBadRequest {
		t.Fatalf("resp = %+v", resp)
	}
}

// TestDispatcherResponseOmitsTargetAndMethod pins that a single-call
// response, like a batch sub-response, carries neither Target nor Method: the
// caller matches it by ID, and echoing the names cost two string decodes per
// call on the client.
func TestDispatcherResponseOmitsTargetAndMethod(t *testing.T) {
	d := NewDispatcher()
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 4}
	d.Host(loid, echoObject())
	resp := d.Handle(context.Background(), &wire.Envelope{
		Kind: wire.KindRequest, ID: 11, Target: loid.String(), Method: "greet", Payload: []byte("x"),
	})
	if resp.Kind != wire.KindResponse || resp.ID != 11 || string(resp.Payload) != "greet:x" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Target != "" || resp.Method != "" {
		t.Fatalf("response echoes Target %q and Method %q, want both empty", resp.Target, resp.Method)
	}
}

func TestDispatcherHostEvictHosted(t *testing.T) {
	d := NewDispatcher()
	loid := naming.LOID{Instance: 9}
	if d.Hosted(loid) {
		t.Fatal("empty dispatcher claims to host object")
	}
	d.Host(loid, echoObject())
	if !d.Hosted(loid) || d.Len() != 1 {
		t.Fatal("Host did not register object")
	}
	d.Evict(loid)
	if d.Hosted(loid) || d.Len() != 0 {
		t.Fatal("Evict did not remove object")
	}
}

func TestCodeOfMapping(t *testing.T) {
	cases := []struct {
		err  error
		code uint64
	}{
		{ErrNoSuchObject, wire.CodeNoSuchObject},
		{ErrNoSuchFunction, wire.CodeNoSuchFunction},
		{ErrFunctionDisabled, wire.CodeDisabled},
		{ErrStaleBinding, wire.CodeStaleBinding},
		{ErrUnavailable, wire.CodeUnavailable},
		{ErrBadRequest, wire.CodeBadRequest},
		{errors.New("anything else"), wire.CodeInternal},
		{fmt.Errorf("wrapped: %w", ErrNoSuchFunction), wire.CodeNoSuchFunction},
		{&RemoteError{Code: wire.CodeDisabled}, wire.CodeDisabled},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.code {
			t.Errorf("CodeOf(%v) = %d, want %d", c.err, got, c.code)
		}
	}
}

func TestRemoteErrorUnwrapUnknownCode(t *testing.T) {
	re := &RemoteError{Code: 999, Message: "mystery"}
	if re.Unwrap() != nil {
		t.Fatal("unknown code should unwrap to nil")
	}
	if re.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestInvokeOverTCP(t *testing.T) {
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	disp := NewDispatcher()
	srv, err := transport.ListenTCP("127.0.0.1:0", disp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	loid := naming.LOID{Domain: 2, Class: 2, Instance: 2}
	disp.Host(loid, echoObject())
	agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})

	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	client := NewClient(cache, dialer)
	client.Retry.CallTimeout = 2 * time.Second

	out, err := client.Invoke(context.Background(), loid, "tcp", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "tcp:y" {
		t.Fatalf("out = %q", out)
	}
}
