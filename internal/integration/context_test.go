package integration_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// hasEvent reports whether the node's event log holds an event of kind.
func hasEvent(o *obs.Obs, kind string) bool {
	for _, ev := range o.GetEvents().Recent(128) {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// waitUntil polls cond for up to 3 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExpiredRequestRejectedBeforeDispatchOverTCP sends a request over real
// TCP whose propagated deadline already passed: the server must reject it
// with CodeExpired before the DCDO runs anything, and record the outcome in
// its obs layer.
func TestExpiredRequestRejectedBeforeDispatchOverTCP(t *testing.T) {
	localAgent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{Name: "srv", Agent: localAgent, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	var executions atomic.Int64
	reg := registry.New()
	if _, err := reg.Register("count:1", registry.NativeImplType, map[string]registry.Func{
		"get": func(registry.Caller, []byte) ([]byte, error) {
			executions.Add(1)
			return []byte("ran"), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: "count", Revision: 1, CodeRef: "count:1",
		Impl: registry.AnyImplType, CodeSize: 4 << 10,
		Functions: []component.FunctionDecl{{Name: "get", Exported: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	icoLOID := naming.LOID{Domain: 7, Class: 9, Instance: 1}
	if _, err := node.HostObject(icoLOID, component.NewICO(comp)); err != nil {
		t.Fatal(err)
	}

	objLOID := naming.LOID{Domain: 7, Class: 1, Instance: 1}
	obj := core.New(core.Config{LOID: objLOID, Registry: reg, Fetcher: remoteFetcher(node)})
	desc := dfm.NewDescriptor()
	desc.Components["count"] = dfm.ComponentRef{ICO: icoLOID, CodeRef: "count:1", Impl: registry.AnyImplType, CodeSize: 4 << 10, Revision: 1}
	desc.Entries = []dfm.EntryDesc{{Function: "get", Component: "count", Exported: true, Enabled: true}}
	if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := node.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}

	// A live control: the same request with a valid deadline executes.
	d := transport.NewTCPDialer()
	defer d.Close()
	fresh := &wire.Envelope{Kind: wire.KindRequest, ID: 1, Target: objLOID.String(),
		Method: "get", Deadline: time.Now().Add(2 * time.Second).UnixNano()}
	resp, err := d.Call(context.Background(), node.Endpoint(), fresh, 2*time.Second)
	if err != nil || resp.Kind != wire.KindResponse {
		t.Fatalf("fresh request: %+v, %v", resp, err)
	}
	if executions.Load() != 1 {
		t.Fatalf("executions = %d after a live request, want 1", executions.Load())
	}

	// The expired request must be refused before dispatch: no execution.
	stale := &wire.Envelope{Kind: wire.KindRequest, ID: 2, Target: objLOID.String(),
		Method: "get", Deadline: time.Now().Add(-time.Second).UnixNano()}
	resp, err = d.Call(context.Background(), node.Endpoint(), stale, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError || resp.Code != wire.CodeExpired {
		t.Fatalf("stale request: kind=%s code=%d, want error/CodeExpired", resp.Kind, resp.Code)
	}
	if executions.Load() != 1 {
		t.Fatalf("expired request executed (executions = %d)", executions.Load())
	}
	if st := node.Dispatcher().Stats(); st.ExpiredOnArrival != 1 {
		t.Fatalf("stats = %+v, want ExpiredOnArrival=1", st)
	}
	if !hasEvent(node.Obs(), "request-expired") {
		t.Fatal("no request-expired event recorded")
	}
}

// blockingFetcher delegates to Backing except for Block, whose fetch parks
// until the caller's context ends — a stand-in for a slow component
// download that the propagated deadline must be able to abort.
type blockingFetcher struct {
	Backing component.Fetcher
	Block   naming.LOID
	blocked atomic.Int64
}

func (f *blockingFetcher) Fetch(ctx context.Context, ico naming.LOID) (*component.Component, error) {
	if ico == f.Block {
		f.blocked.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return f.Backing.Fetch(ctx, ico)
}

// TestCancellationAbortsEvolutionBetweenStagesOverTCP drives a remote
// ApplyDescriptor whose component fetch outlives the caller's deadline: the
// propagated deadline must abort the apply at a stage boundary (the object
// keeps its old version — no partial configuration), and the server must
// record the mid-dispatch cancellation.
func TestCancellationAbortsEvolutionBetweenStagesOverTCP(t *testing.T) {
	g := newGreeterType(t)

	localAgent := naming.NewAgent(vclock.Real{})
	infra, err := legion.NewNode(legion.NodeConfig{Name: "infra", Agent: localAgent})
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()
	if _, err := infra.HostObject(rpc.AgentLOID, rpc.NewAgentService(localAgent)); err != nil {
		t.Fatal(err)
	}
	g.hostICOs(t, infra)

	remote := &rpc.RemoteAgent{Dialer: transport.NewTCPDialer(), Endpoint: infra.Endpoint(), Timeout: 2 * time.Second}
	server, err := legion.NewNode(legion.NodeConfig{
		Name: "server", Agent: remote, CallTimeout: 2 * time.Second, Obs: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// Version 1.1 adds a component whose ICO is never reachable: its fetch
	// blocks until the dispatch context ends.
	slowICO := naming.LOID{Domain: 1, Class: 9, Instance: 3}
	fetcher := &blockingFetcher{Backing: remoteFetcher(server), Block: slowICO}
	objLOID := naming.LOID{Domain: 1, Class: 1, Instance: 7}
	obj := core.New(core.Config{LOID: objLOID, Registry: g.reg, Fetcher: fetcher})
	if _, err := obj.ApplyDescriptor(context.Background(), g.descriptor("greet-en"), version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}

	desc11 := g.descriptor("greet-en")
	desc11.Components["greet-de"] = dfm.ComponentRef{ICO: slowICO, CodeRef: "greet-de:1", Impl: registry.AnyImplType, CodeSize: 8 << 10, Revision: 1}
	desc11.Entries = append(desc11.Entries, dfm.EntryDesc{Function: "greet", Component: "greet-de", Exported: true})

	// The admin applies 1.1 remotely under a short deadline; the fetch of
	// greet-de outlives it.
	client, err := legion.NewNode(legion.NodeConfig{Name: "admin", Agent: remote, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ri := manager.RemoteInstance{Client: client.Client(), Target: objLOID}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := ri.Apply(ctx, desc11, version.ID{1, 1}); err == nil {
		t.Fatal("apply with an expiring deadline succeeded")
	}

	// The fetch was actually reached and aborted by the propagated deadline.
	waitUntil(t, "blocked fetch", func() bool { return fetcher.blocked.Load() >= 1 })
	// The server noticed the cancellation mid-dispatch…
	waitUntil(t, "cancelled dispatch stat", func() bool {
		return server.Dispatcher().Stats().Cancelled >= 1
	})
	if !hasEvent(server.Obs(), "dispatch-cancelled") {
		t.Fatal("no dispatch-cancelled event recorded")
	}
	// …and the object aborted between stages: still fully on version 1.
	if got := obj.Version(); !got.Equal(version.ID{1}) {
		t.Fatalf("version = %v after aborted apply, want 1", got)
	}
	out, err := obj.InvokeMethod("greet", nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("object unusable after aborted apply: %q, %v", out, err)
	}
}
