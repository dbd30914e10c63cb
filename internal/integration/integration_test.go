// Package integration_test drives whole-system scenarios across the real
// stack: TCP transports, remote binding agents, remote managers, DCDO
// evolution under live traffic, and DCDO migration between heterogeneous
// hosts.
package integration_test

import (
	"context"

	"errors"
	"fmt"
	"testing"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// compile-time check: a DCDO is a legion.StatefulObject, so the generic
// migration path applies to it.
var _ legion.StatefulObject = (*core.DCDO)(nil)

// greeterType bundles a registry and two greet components (en, fr) with
// their ICO LOIDs, served by whichever node hosts the ICOs.
type greeterType struct {
	reg    *registry.Registry
	icoEN  naming.LOID
	icoFR  naming.LOID
	compEN *component.Component
	compFR *component.Component
}

func newGreeterType(t *testing.T) *greeterType {
	t.Helper()
	g := &greeterType{
		reg:   registry.New(),
		icoEN: naming.LOID{Domain: 1, Class: 9, Instance: 1},
		icoFR: naming.LOID{Domain: 1, Class: 9, Instance: 2},
	}
	register := func(ref, msg string, impl registry.ImplType) {
		t.Helper()
		_, err := g.reg.Register(ref, impl, map[string]registry.Func{
			"greet": func(registry.Caller, []byte) ([]byte, error) { return []byte(msg), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	register("greet-en:1", "hello", registry.NativeImplType)
	register("greet-fr:1", "bonjour", registry.NativeImplType)

	mk := func(id, ref string) *component.Component {
		t.Helper()
		c, err := component.NewSynthetic(component.Descriptor{
			ID: id, Revision: 1, CodeRef: ref,
			Impl: registry.AnyImplType, CodeSize: 8 << 10,
			Functions: []component.FunctionDecl{{Name: "greet", Exported: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	g.compEN = mk("greet-en", "greet-en:1")
	g.compFR = mk("greet-fr", "greet-fr:1")
	return g
}

// descriptor builds the two-component descriptor enabling the named one.
func (g *greeterType) descriptor(enabled string) *dfm.Descriptor {
	d := dfm.NewDescriptor()
	d.Components["greet-en"] = dfm.ComponentRef{ICO: g.icoEN, CodeRef: "greet-en:1", Impl: registry.AnyImplType, CodeSize: 8 << 10, Revision: 1}
	d.Components["greet-fr"] = dfm.ComponentRef{ICO: g.icoFR, CodeRef: "greet-fr:1", Impl: registry.AnyImplType, CodeSize: 8 << 10, Revision: 1}
	d.Entries = []dfm.EntryDesc{
		{Function: "greet", Component: "greet-en", Exported: true, Enabled: enabled == "greet-en"},
		{Function: "greet", Component: "greet-fr", Exported: true, Enabled: enabled == "greet-fr"},
	}
	return d
}

// hostICOs serves the components' ICOs on node.
func (g *greeterType) hostICOs(t *testing.T, node *legion.Node) {
	t.Helper()
	if _, err := node.HostObject(g.icoEN, component.NewICO(g.compEN)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.HostObject(g.icoFR, component.NewICO(g.compFR)); err != nil {
		t.Fatal(err)
	}
}

// remoteFetcher returns a fetcher that downloads components over RPC
// through the node's client.
func remoteFetcher(node *legion.Node) component.Fetcher {
	return &component.CachingFetcher{
		Store:   component.NewStore(),
		Backing: &component.RemoteFetcher{Client: node.Client()},
	}
}

// TestFullDeploymentOverTCP builds the complete multi-"process" topology
// with only TCP between the pieces: the agent service and ICOs on an infra
// node, a manager exposed remotely, a DCDO on a server node that downloads
// its components over RPC, and a client that drives evolution through the
// remote manager.
func TestFullDeploymentOverTCP(t *testing.T) {
	g := newGreeterType(t)

	// Infra node owns the in-memory agent and serves it + the ICOs.
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

	// Every other node reaches the agent remotely over TCP.
	newRemoteNode := func(name string) *legion.Node {
		t.Helper()
		remote := &rpc.RemoteAgent{
			Dialer:   transport.NewTCPDialer(),
			Endpoint: infra.Endpoint(),
			Timeout:  2 * time.Second,
		}
		n, err := legion.NewNode(legion.NodeConfig{Name: name, Agent: remote, CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	server := newRemoteNode("server")
	clientNode := newRemoteNode("client")

	// Manager on the infra node, exposed remotely.
	mgr := manager.New(evolution.SingleVersion, evolution.Explicit)
	root, err := mgr.Store().CreateRoot(g.descriptor("greet-en"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	mgrLOID := naming.LOID{Domain: 0, Class: 2, Instance: 1}
	if _, err := infra.HostObject(mgrLOID, &manager.Object{Mgr: mgr}); err != nil {
		t.Fatal(err)
	}

	// The DCDO lives on the server node and downloads its components from
	// the infra node's ICOs over TCP.
	objLOID := naming.LOID{Domain: 1, Class: 1, Instance: 1}
	obj := core.New(core.Config{
		LOID:     objLOID,
		Registry: g.reg,
		Fetcher:  remoteFetcher(server),
	})
	if _, err := server.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}
	// The manager manages it through a remote proxy (itself over TCP).
	ri := manager.RemoteInstance{Client: infra.Client(), Target: objLOID}
	if err := mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}

	// The client calls the object.
	out, err := clientNode.Client().Invoke(context.Background(), objLOID, "greet", nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("greet = %q, %v", out, err)
	}

	// An administrator (the client node) authors and activates version 1.1
	// entirely through the remote manager interface: one mgr.author call
	// carries the edited copy of the root's descriptor.
	admin := clientNode.Client()
	ctx := context.Background()
	desc, err := manager.MethodDescriptor.Call(ctx, admin, mgrLOID, root)
	if err != nil {
		t.Fatal(err)
	}
	desc.Entry(dfm.EntryKey{Function: "greet", Component: "greet-en"}).Enabled = false
	desc.Entry(dfm.EntryKey{Function: "greet", Component: "greet-fr"}).Enabled = true
	child, err := manager.MethodAuthor.Call(ctx, admin, mgrLOID, core.ApplyArgs{Target: desc, Version: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := manager.MethodSetCurrent.Call(ctx, admin, mgrLOID, child); err != nil {
		t.Fatal(err)
	}
	if _, err := manager.MethodEvolveInstance.Call(ctx, admin, mgrLOID, manager.EvolveArgs{LOID: objLOID, Version: child}); err != nil {
		t.Fatal(err)
	}

	out, err = clientNode.Client().Invoke(context.Background(), objLOID, "greet", nil)
	if err != nil || string(out) != "bonjour" {
		t.Fatalf("greet after remote evolution = %q, %v", out, err)
	}
	rec, err := mgr.RecordOf(objLOID)
	if err != nil || !rec.Version.Equal(child) {
		t.Fatalf("record = %+v, %v", rec, err)
	}
}

// TestDCDOMigrationPreservesStateAndConfiguration migrates a stateful DCDO
// between nodes using the generic legion migration path; its counter and
// configuration survive, and clients heal their bindings.
func TestDCDOMigrationPreservesStateAndConfiguration(t *testing.T) {
	g := newGreeterType(t)
	if _, err := g.reg.Register("count:1", registry.NativeImplType, map[string]registry.Func{
		"inc": func(c registry.Caller, _ []byte) ([]byte, error) {
			raw, _ := c.State().Get("n")
			var n uint64
			if raw != nil {
				n, _ = wire.NewDecoder(raw).Uvarint()
			}
			e := wire.NewEncoder(8)
			e.PutUvarint(n + 1)
			c.State().Set("n", e.Bytes())
			return e.Bytes(), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	countComp, err := component.NewSynthetic(component.Descriptor{
		ID: "count", Revision: 1, CodeRef: "count:1",
		Impl: registry.AnyImplType, CodeSize: 1 << 10,
		Functions: []component.FunctionDecl{{Name: "inc", Exported: true}},
	})
	if err != nil {
		t.Fatal(err)
	}

	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	mkNode := func(name string) *legion.Node {
		n, err := legion.NewNode(legion.NodeConfig{Name: name, Agent: agent, Inproc: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	src := mkNode("src")
	dst := mkNode("dst")
	icoHost := mkNode("icos")
	g.hostICOs(t, icoHost)
	countICO := naming.LOID{Domain: 1, Class: 9, Instance: 3}
	if _, err := icoHost.HostObject(countICO, component.NewICO(countComp)); err != nil {
		t.Fatal(err)
	}

	desc := g.descriptor("greet-en")
	desc.Components["count"] = dfm.ComponentRef{ICO: countICO, CodeRef: "count:1", Impl: registry.AnyImplType, CodeSize: 1 << 10, Revision: 1}
	desc.Entries = append(desc.Entries, dfm.EntryDesc{Function: "inc", Component: "count", Exported: true, Enabled: true})

	objLOID := naming.LOID{Domain: 1, Class: 1, Instance: 7}
	obj := core.New(core.Config{LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(src)})
	if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}

	// A client bumps the counter twice (and caches the src binding).
	client := mkNode("client")
	for i := 0; i < 2; i++ {
		if _, err := client.Client().Invoke(context.Background(), objLOID, "inc", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Migrate: the destination incarnation is a fresh DCDO wired to the
	// destination node's fetcher; the capture rebuilds it there.
	target := core.New(core.Config{LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(dst)})
	if err := legion.Migrate(objLOID, src, dst, obj, target); err != nil {
		t.Fatal(err)
	}
	if src.Hosts(objLOID) || !dst.Hosts(objLOID) {
		t.Fatal("object did not move")
	}

	// The client's next call heals the stale binding and sees counter 3.
	out, err := client.Client().Invoke(context.Background(), objLOID, "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := wire.NewDecoder(out).Uvarint()
	if n != 3 {
		t.Fatalf("counter after migration = %d, want 3", n)
	}
	// Configuration equivalent, version preserved.
	if !target.Snapshot().Equivalent(obj.Snapshot()) {
		t.Fatal("migrated configuration not equivalent")
	}
	if !target.Version().Equal(version.ID{1}) {
		t.Fatalf("migrated version = %v", target.Version())
	}
}

// TestHeterogeneousMigration reproduces §2.1's point: two functionally
// equivalent implementations of the same component (different
// implementation types) are interchangeable, so an object can migrate to a
// node of a different architecture and come back up on the implementation
// matching that host.
func TestHeterogeneousMigration(t *testing.T) {
	g := newGreeterType(t)
	sparc := registry.ImplType{Arch: "sparc", Format: "elf", Language: "c"}
	// The same code reference, "compiled" for sparc: functionally
	// equivalent but distinguishable output so we can observe selection.
	if _, err := g.reg.Register("greet-en:1", sparc, map[string]registry.Func{
		"greet": func(registry.Caller, []byte) ([]byte, error) { return []byte("hello (sparc build)"), nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.reg.Register("greet-fr:1", sparc, map[string]registry.Func{
		"greet": func(registry.Caller, []byte) ([]byte, error) { return []byte("bonjour (sparc build)"), nil },
	}); err != nil {
		t.Fatal(err)
	}

	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	goNode, err := legion.NewNode(legion.NodeConfig{Name: "go-host", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer goNode.Close()
	sparcNode, err := legion.NewNode(legion.NodeConfig{Name: "sparc-host", Agent: agent, Inproc: net, HostImpl: sparc})
	if err != nil {
		t.Fatal(err)
	}
	defer sparcNode.Close()
	g.hostICOs(t, goNode)

	objLOID := naming.LOID{Domain: 1, Class: 1, Instance: 8}
	obj := core.New(core.Config{
		LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(goNode),
		HostImpl: goNode.HostImpl(),
	})
	if _, err := obj.ApplyDescriptor(context.Background(), g.descriptor("greet-en"), version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := goNode.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}
	out, err := obj.InvokeMethod("greet", nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("greet on go host = %q, %v", out, err)
	}

	// Migrate to the sparc host: the fresh incarnation binds the sparc
	// implementations of the same components.
	target := core.New(core.Config{
		LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(sparcNode),
		HostImpl: sparc,
	})
	if err := legion.Migrate(objLOID, goNode, sparcNode, obj, target); err != nil {
		t.Fatal(err)
	}
	out, err = target.InvokeMethod("greet", nil)
	if err != nil || string(out) != "hello (sparc build)" {
		t.Fatalf("greet on sparc host = %q, %v", out, err)
	}
	// Functionally equivalent per §2.1: same components, same interface.
	if !target.Snapshot().Equivalent(obj.Snapshot()) {
		t.Fatal("heterogeneous incarnations not functionally equivalent")
	}
}

// TestLazyUpdateAgainstRemoteManager wraps a DCDO in a lazy updater whose
// manager view is a remote proxy: designating a new current version on the
// (remote) manager takes effect on the object's next invocation.
func TestLazyUpdateAgainstRemoteManager(t *testing.T) {
	g := newGreeterType(t)
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	infra, err := legion.NewNode(legion.NodeConfig{Name: "infra", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()
	serverNode, err := legion.NewNode(legion.NodeConfig{Name: "server", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer serverNode.Close()
	g.hostICOs(t, infra)

	mgr := manager.New(evolution.SingleVersion, evolution.Lazy)
	root, err := mgr.Store().CreateRoot(g.descriptor("greet-en"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	child, err := mgr.Store().Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Store().Configure(child, func(d *dfm.Descriptor) error {
		d.Entry(dfm.EntryKey{Function: "greet", Component: "greet-en"}).Enabled = false
		d.Entry(dfm.EntryKey{Function: "greet", Component: "greet-fr"}).Enabled = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}
	mgrLOID := naming.LOID{Domain: 0, Class: 2, Instance: 2}
	if _, err := infra.HostObject(mgrLOID, &manager.Object{Mgr: mgr}); err != nil {
		t.Fatal(err)
	}

	obj := core.New(core.Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: 9},
		Registry: g.reg,
		Fetcher:  remoteFetcher(serverNode),
	})
	if _, err := obj.ApplyDescriptor(context.Background(), g.descriptor("greet-en"), root); err != nil {
		t.Fatal(err)
	}
	view := manager.RemoteView{Client: serverNode.Client(), Target: mgrLOID}
	lazy := evolution.NewLazyUpdater(obj, view, evolution.StrictConsistency(), nil)
	if _, err := serverNode.HostObject(obj.LOID(), lazy); err != nil {
		t.Fatal(err)
	}

	client, err := legion.NewNode(legion.NodeConfig{Name: "client", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	out, err := client.Client().Invoke(context.Background(), obj.LOID(), "greet", nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("greet = %q, %v", out, err)
	}

	// Designate the new current version; the next invocation lazily
	// updates the object through the remote view before serving.
	if err := mgr.SetCurrentVersion(context.Background(), child); err != nil {
		t.Fatal(err)
	}
	out, err = client.Client().Invoke(context.Background(), obj.LOID(), "greet", nil)
	if err != nil || string(out) != "bonjour" {
		t.Fatalf("greet after lazy remote update = %q, %v", out, err)
	}
	checks, updates := lazy.Stats()
	if checks < 2 || updates != 1 {
		t.Fatalf("lazy stats: %d checks, %d updates", checks, updates)
	}
}

// TestDisappearingExportedFunctionAcrossTheWire reproduces §3.1's first
// problem end to end: a client discovers an interface, the function is
// disabled before its invocation lands, and the failure arrives as the
// matchable error class the paper prescribes.
func TestDisappearingExportedFunctionAcrossTheWire(t *testing.T) {
	g := newGreeterType(t)
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	server, err := legion.NewNode(legion.NodeConfig{Name: "server", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	g.hostICOs(t, server)

	obj := core.New(core.Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: 10},
		Registry: g.reg,
		Fetcher:  remoteFetcher(server),
	})
	if _, err := obj.ApplyDescriptor(context.Background(), g.descriptor("greet-en"), version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.HostObject(obj.LOID(), obj); err != nil {
		t.Fatal(err)
	}

	client, err := legion.NewNode(legion.NodeConfig{Name: "client", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Client obtains the interface: greet is there.
	names, err := core.MethodInterface.Call(context.Background(), client.Client(), obj.LOID(), rpc.None{})
	if err != nil || len(names) != 1 || names[0] != "greet" {
		t.Fatalf("interface = %v, %v", names, err)
	}

	// Before the invocation is sent, greet is disabled with no
	// replacement.
	if err := obj.DisableFunction(dfm.EntryKey{Function: "greet", Component: "greet-en"}); err != nil {
		t.Fatal(err)
	}
	_, err = client.Client().Invoke(context.Background(), obj.LOID(), "greet", nil)
	if !errors.Is(err, rpc.ErrFunctionDisabled) {
		t.Fatalf("err = %v, want ErrFunctionDisabled across the wire", err)
	}

	// Removing the component entirely turns it into "no such function".
	if err := obj.RemoveComponent("greet-en"); err != nil {
		t.Fatal(err)
	}
	if err := obj.RemoveComponent("greet-fr"); err != nil {
		t.Fatal(err)
	}
	_, err = client.Client().Invoke(context.Background(), obj.LOID(), "greet", nil)
	if !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("err = %v, want ErrNoSuchFunction across the wire", err)
	}
}

// TestDCDODeactivateReactivateThroughVault parks a stateful DCDO in a
// file-backed vault and brings it back on another node after a simulated
// restart: implementation rebuilt from the captured descriptor, state
// intact.
func TestDCDODeactivateReactivateThroughVault(t *testing.T) {
	g := newGreeterType(t)
	if _, err := g.reg.Register("kv:1", registry.NativeImplType, map[string]registry.Func{
		"put": func(c registry.Caller, args []byte) ([]byte, error) {
			c.State().Set("k", args)
			return nil, nil
		},
		"get": func(c registry.Caller, _ []byte) ([]byte, error) {
			v, _ := c.State().Get("k")
			return v, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	kvComp, err := component.NewSynthetic(component.Descriptor{
		ID: "kv", Revision: 1, CodeRef: "kv:1",
		Impl: registry.AnyImplType, CodeSize: 1 << 10,
		Functions: []component.FunctionDecl{
			{Name: "put", Exported: true},
			{Name: "get", Exported: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	n1, err := legion.NewNode(legion.NodeConfig{Name: "v1", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := legion.NewNode(legion.NodeConfig{Name: "v2", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	kvICO := naming.LOID{Domain: 1, Class: 9, Instance: 30}
	if _, err := n1.HostObject(kvICO, component.NewICO(kvComp)); err != nil {
		t.Fatal(err)
	}

	desc := dfm.NewDescriptor()
	desc.Components["kv"] = dfm.ComponentRef{ICO: kvICO, CodeRef: "kv:1", Impl: registry.AnyImplType, CodeSize: 1 << 10, Revision: 1}
	desc.Entries = []dfm.EntryDesc{
		{Function: "put", Component: "kv", Exported: true, Enabled: true},
		{Function: "get", Component: "kv", Exported: true, Enabled: true},
	}
	objLOID := naming.LOID{Domain: 1, Class: 1, Instance: 40}
	obj := core.New(core.Config{LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(n1)})
	if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.HostObject(objLOID, obj); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Client().Invoke(context.Background(), objLOID, "put", []byte("precious")); err != nil {
		t.Fatal(err)
	}

	// Deactivate into a file vault.
	v, err := vault.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Deactivate(objLOID, obj, v); err != nil {
		t.Fatal(err)
	}
	if n1.Hosts(objLOID) {
		t.Fatal("object still live after deactivation")
	}

	// Reactivate on the other node: the empty incarnation rebuilds its
	// implementation from the captured descriptor.
	incarnation := core.New(core.Config{LOID: objLOID, Registry: g.reg, Fetcher: remoteFetcher(n2)})
	if err := n2.Activate(objLOID, incarnation, v); err != nil {
		t.Fatal(err)
	}
	out, err := n1.Client().Invoke(context.Background(), objLOID, "get", nil)
	if err != nil || string(out) != "precious" {
		t.Fatalf("get after reactivation = %q, %v", out, err)
	}
	if !incarnation.Version().Equal(version.ID{1, 3}) {
		t.Fatalf("version = %v", incarnation.Version())
	}
}

// TestProactiveFleetOverRemoteInstances has a local manager proactively
// evolve a fleet of DCDOs it only reaches through RPC proxies.
func TestProactiveFleetOverRemoteInstances(t *testing.T) {
	g := newGreeterType(t)
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	infra, err := legion.NewNode(legion.NodeConfig{Name: "infra", Agent: agent, Inproc: net})
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()
	g.hostICOs(t, infra)

	mgr := manager.New(evolution.SingleVersion, evolution.Proactive)
	root, err := mgr.Store().CreateRoot(g.descriptor("greet-en"))
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		t.Fatal(err)
	}

	var objs []*core.DCDO
	for i := 0; i < 4; i++ {
		node, err := legion.NewNode(legion.NodeConfig{Name: fmt.Sprintf("w%d", i), Agent: agent, Inproc: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		obj := core.New(core.Config{
			LOID:     naming.LOID{Domain: 1, Class: 1, Instance: uint64(20 + i)},
			Registry: g.reg,
			Fetcher:  remoteFetcher(node),
		})
		if _, err := node.HostObject(obj.LOID(), obj); err != nil {
			t.Fatal(err)
		}
		ri := manager.RemoteInstance{Client: infra.Client(), Target: obj.LOID()}
		if err := mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}

	child, err := mgr.Store().Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Store().Configure(child, func(d *dfm.Descriptor) error {
		d.Entry(dfm.EntryKey{Function: "greet", Component: "greet-en"}).Enabled = false
		d.Entry(dfm.EntryKey{Function: "greet", Component: "greet-fr"}).Enabled = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}
	// One call fans out to the whole fleet over RPC.
	if err := mgr.SetCurrentVersion(context.Background(), child); err != nil {
		t.Fatal(err)
	}
	for i, obj := range objs {
		out, err := obj.InvokeMethod("greet", nil)
		if err != nil || string(out) != "bonjour" {
			t.Fatalf("fleet member %d greet = %q, %v", i, out, err)
		}
		if !obj.Version().Equal(child) {
			t.Fatalf("fleet member %d version = %v", i, obj.Version())
		}
	}
}
