package rpc

import (
	"context"

	"errors"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// agentEnv hosts an agent service over TCP and returns a RemoteAgent proxy.
func agentEnv(t *testing.T) (*naming.Agent, *RemoteAgent, func()) {
	t.Helper()
	agent := naming.NewAgent(vclock.Real{})
	disp := NewDispatcher()
	disp.Host(AgentLOID, NewAgentService(agent))
	srv, err := transport.ListenTCP("127.0.0.1:0", disp)
	if err != nil {
		t.Fatal(err)
	}
	dialer := transport.NewTCPDialer()
	remote := &RemoteAgent{Dialer: dialer, Endpoint: srv.Endpoint(), Timeout: 2 * time.Second}
	cleanup := func() {
		_ = dialer.Close()
		_ = srv.Close()
	}
	return agent, remote, cleanup
}

func TestRemoteAgentRegisterLookup(t *testing.T) {
	agent, remote, cleanup := agentEnv(t)
	defer cleanup()

	loid := naming.LOID{Domain: 2, Class: 3, Instance: 4}
	addr := remote.Register(loid, naming.Address{Endpoint: "tcp:10.0.0.1:9"})
	if addr.Incarnation != 1 {
		t.Fatalf("incarnation = %d, want 1", addr.Incarnation)
	}
	b, err := remote.Lookup(loid)
	if err != nil {
		t.Fatal(err)
	}
	if b.Address.Endpoint != "tcp:10.0.0.1:9" || b.Address.Incarnation != 1 {
		t.Fatalf("binding = %+v", b)
	}
	// The local agent saw the registration too.
	local, err := agent.Lookup(loid)
	if err != nil || local.Address != b.Address {
		t.Fatalf("local view = %+v, %v", local, err)
	}

	// Re-registration bumps the incarnation through the proxy.
	addr = remote.Register(loid, naming.Address{Endpoint: "tcp:10.0.0.2:9"})
	if addr.Incarnation != 2 {
		t.Fatalf("incarnation = %d, want 2", addr.Incarnation)
	}
}

func TestRemoteAgentLookupNotBound(t *testing.T) {
	_, remote, cleanup := agentEnv(t)
	defer cleanup()
	_, err := remote.Lookup(naming.LOID{Instance: 404})
	if !errors.Is(err, naming.ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestRemoteAgentDeregister(t *testing.T) {
	_, remote, cleanup := agentEnv(t)
	defer cleanup()
	loid := naming.LOID{Instance: 5}
	remote.Register(loid, naming.Address{Endpoint: "tcp:x:1"})
	remote.Deregister(loid)
	if _, err := remote.Lookup(loid); !errors.Is(err, naming.ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestRemoteAgentBacksBindingCache(t *testing.T) {
	_, remote, cleanup := agentEnv(t)
	defer cleanup()

	loid := naming.LOID{Instance: 6}
	remote.Register(loid, naming.Address{Endpoint: "tcp:a:1"})
	cache := naming.NewCache(remote, vclock.Real{}, 0)
	b, err := cache.Resolve(loid)
	if err != nil || b.Address.Endpoint != "tcp:a:1" {
		t.Fatalf("resolve = %+v, %v", b, err)
	}
	// Hit comes from the cache, not the wire.
	if _, err := cache.Resolve(loid); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteAgentUnreachable(t *testing.T) {
	dialer := transport.NewTCPDialer()
	dialer.DialTimeout = 200 * time.Millisecond
	defer dialer.Close()
	remote := &RemoteAgent{Dialer: dialer, Endpoint: "tcp:127.0.0.1:1", Timeout: time.Second}

	if _, err := remote.Lookup(naming.LOID{Instance: 1}); err == nil {
		t.Fatal("lookup against dead agent succeeded")
	}
	// Register degrades gracefully, returning the intended address.
	addr := remote.Register(naming.LOID{Instance: 1}, naming.Address{Endpoint: "tcp:y:1", Incarnation: 7})
	if addr.Endpoint != "tcp:y:1" || addr.Incarnation != 7 {
		t.Fatalf("addr = %+v", addr)
	}
	remote.Deregister(naming.LOID{Instance: 1}) // must not panic
}

// Full cross-"process" deployment: a node in one dispatcher registers its
// objects against a remote agent, and a client resolves through the same
// remote agent.
func TestRemoteAgentEndToEnd(t *testing.T) {
	_, remote, cleanup := agentEnv(t)
	defer cleanup()

	// "Server process": hosts an object and registers remotely.
	serverDisp := NewDispatcher()
	serverSrv, err := transport.ListenTCP("127.0.0.1:0", serverDisp)
	if err != nil {
		t.Fatal(err)
	}
	defer serverSrv.Close()
	loid := naming.LOID{Domain: 3, Class: 3, Instance: 3}
	serverDisp.Host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return []byte("pong"), nil
	}))
	remote.Register(loid, naming.Address{Endpoint: serverSrv.Endpoint()})

	// "Client process": resolves through the remote agent.
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	cache := naming.NewCache(remote, vclock.Real{}, 0)
	client := NewClient(cache, dialer)
	client.Retry.CallTimeout = 2 * time.Second
	out, err := client.Invoke(context.Background(), loid, "ping", nil)
	if err != nil || string(out) != "pong" {
		t.Fatalf("invoke = %q, %v", out, err)
	}
}
