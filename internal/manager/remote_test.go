package manager

import (
	"context"

	"errors"
	"reflect"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// remoteEnv hosts a manager object and DCDOs behind an in-process RPC
// stack, exercising the full remote management path.
type remoteEnv struct {
	f      *fixture
	mgr    *Manager
	agent  *naming.Agent
	disp   *rpc.Dispatcher
	srv    *transport.InprocServer
	client *rpc.Client
	mgrLOI naming.LOID
}

func newRemoteEnv(t *testing.T, style evolution.Style) *remoteEnv {
	t.Helper()
	f := newFixture(t)
	m := f.newManager(t, style, evolution.Explicit)

	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	disp := rpc.NewDispatcher()
	srv, err := net.Listen("mgr-node", disp)
	if err != nil {
		t.Fatal(err)
	}

	mgrLOID := naming.LOID{Domain: 1, Class: 2, Instance: 1}
	disp.Host(mgrLOID, &Object{Mgr: m})
	agent.Register(mgrLOID, naming.Address{Endpoint: srv.Endpoint()})

	return &remoteEnv{
		f: f, mgr: m, agent: agent, disp: disp, srv: srv,
		client: rpc.NewClient(cache, net.Dialer()),
		mgrLOI: mgrLOID,
	}
}

func (e *remoteEnv) hostDCDO(t *testing.T) *core.DCDO {
	t.Helper()
	obj := e.f.newDCDO()
	e.disp.Host(obj.LOID(), obj)
	e.agent.Register(obj.LOID(), naming.Address{Endpoint: e.srv.Endpoint()})
	return obj
}

func TestRemoteCurrentVersionAndDescriptor(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)

	view := RemoteView{Client: env.client, Target: env.mgrLOI}
	cur, err := view.CurrentVersion()
	if err != nil || !cur.Equal(v(1)) {
		t.Fatalf("current = %v, %v", cur, err)
	}
	desc, err := view.InstantiableDescriptor(v(1))
	if err != nil {
		t.Fatal(err)
	}
	local, _ := env.mgr.Store().InstantiableDescriptor(v(1))
	if !desc.Equivalent(local) {
		t.Fatal("remote descriptor not equivalent to local")
	}
	// Configurable version refused through the instantiable method.
	cfgV, _ := env.mgr.Store().Derive(v(1))
	if _, err := view.InstantiableDescriptor(cfgV); err == nil {
		t.Fatal("configurable descriptor served as instantiable")
	}
	// But visible through the plain descriptor method.
	if _, err := MethodDescriptor.Call(context.Background(), env.client, env.mgrLOI, cfgV); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteVersionLifecycle(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)

	// Derive a new version remotely.
	ctx := context.Background()
	child, err := MethodDerive.Call(ctx, env.client, env.mgrLOI, v(1))
	if err != nil {
		t.Fatal(err)
	}

	// Configure it: swap the enabled implementation to fr.
	if _, err := MethodVSetEnabled.Call(ctx, env.client, env.mgrLOI,
		SetEnabledArgs{Version: child, Key: dfm.EntryKey{Function: "greet", Component: "en"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := MethodVSetEnabled.Call(ctx, env.client, env.mgrLOI,
		SetEnabledArgs{Version: child, Key: dfm.EntryKey{Function: "greet", Component: "fr"}, Enabled: true}); err != nil {
		t.Fatal(err)
	}
	// Mark instantiable and set current.
	if _, err := MethodMarkInstantiable.Call(ctx, env.client, env.mgrLOI, child); err != nil {
		t.Fatal(err)
	}
	if _, err := MethodSetCurrent.Call(ctx, env.client, env.mgrLOI, child); err != nil {
		t.Fatal(err)
	}
	cur, _ := env.mgr.CurrentVersion()
	if !cur.Equal(child) {
		t.Fatalf("current = %v, want %v", cur, child)
	}
}

func TestRemoteInstanceEvolution(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)
	obj := env.hostDCDO(t)

	// The manager manages the object through a remote proxy.
	ri := RemoteInstance{Client: env.client, Target: obj.LOID()}
	if err := env.mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	got, err := ri.Version(context.Background())
	if err != nil || !got.Equal(v(1)) {
		t.Fatalf("remote version = %v, %v", got, err)
	}
	iface, err := ri.Interface(context.Background())
	if err != nil || !reflect.DeepEqual(iface, []string{"greet"}) {
		t.Fatalf("remote interface = %v, %v", iface, err)
	}

	// Evolve via the manager's remote interface.
	if _, err := MethodSetCurrent.Call(context.Background(), env.client, env.mgrLOI, v(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := MethodEvolveInstance.Call(context.Background(), env.client, env.mgrLOI,
		EvolveArgs{LOID: obj.LOID(), Version: v(1, 1)}); err != nil {
		t.Fatal(err)
	}
	out, err := env.client.Invoke(context.Background(), obj.LOID(), "greet", nil)
	if err != nil || string(out) != "bonjour" {
		t.Fatalf("greet after remote evolution = %q, %v", out, err)
	}
}

func TestEnsureCurrentUpdatesStaleInstance(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)
	obj := env.hostDCDO(t)
	ri := RemoteInstance{Client: env.client, Target: obj.LOID()}
	if err := env.mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}

	// Object is already current: no update initiated.
	updated, err := EnsureCurrent(context.Background(), env.client, env.mgrLOI, obj.LOID())
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("EnsureCurrent updated an up-to-date instance")
	}

	// Designate 1.1 current under the explicit policy: the instance stays
	// stale until a client calls EnsureCurrent.
	if err := env.mgr.SetCurrentVersion(context.Background(), v(1, 1)); err != nil {
		t.Fatal(err)
	}
	if !obj.Version().Equal(v(1)) {
		t.Fatalf("instance evolved without explicit request: %v", obj.Version())
	}
	updated, err = EnsureCurrent(context.Background(), env.client, env.mgrLOI, obj.LOID())
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("EnsureCurrent did not update a stale instance")
	}
	if !obj.Version().Equal(v(1, 1)) {
		t.Fatalf("version = %v, want 1.1", obj.Version())
	}
	out, err := env.client.Invoke(context.Background(), obj.LOID(), "greet", nil)
	if err != nil || string(out) != "bonjour" {
		t.Fatalf("greet after explicit update = %q, %v", out, err)
	}
}

func TestEnsureCurrentNoCurrentVersion(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)
	obj := env.hostDCDO(t)
	ri := RemoteInstance{Client: env.client, Target: obj.LOID()}
	if err := env.mgr.CreateInstance(context.Background(), ri, v(1), registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	env.mgr.mu.Lock()
	env.mgr.current = nil
	env.mgr.mu.Unlock()
	updated, err := EnsureCurrent(context.Background(), env.client, env.mgrLOI, obj.LOID())
	if err != nil || updated {
		t.Fatalf("EnsureCurrent = %v, %v; want no-op", updated, err)
	}
}

func TestRemoteRecords(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)
	obj := env.hostDCDO(t)
	ri := RemoteInstance{Client: env.client, Target: obj.LOID()}
	if err := env.mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}

	records, err := MethodRecords.Call(context.Background(), env.client, env.mgrLOI, rpc.None{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{LOID: obj.LOID(), Version: v(1), Impl: registry.NativeImplType}}
	if !reflect.DeepEqual(records, want) {
		t.Fatalf("records = %+v, want %+v", records, want)
	}
}

func TestRemoteAddComponentAndDep(t *testing.T) {
	env := newRemoteEnv(t, evolution.MultiGeneral)
	cfgV, _ := env.mgr.Store().Derive(v(1))

	// Remove fr remotely, then re-add it with different entries.
	ctx := context.Background()
	if _, err := MethodVRemoveComponent.Call(ctx, env.client, env.mgrLOI, ComponentArgs{Version: cfgV, ID: "fr"}); err != nil {
		t.Fatal(err)
	}
	desc, _ := env.mgr.Store().Descriptor(cfgV)
	if _, ok := desc.Components["fr"]; ok {
		t.Fatal("fr not removed")
	}

	ref := dfm.ComponentRef{ICO: env.f.icoFR, CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	entries := []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true}}
	if _, err := MethodVAddComponent.Call(ctx, env.client, env.mgrLOI,
		AddComponentArgs{Version: cfgV, ID: "fr", Ref: ref, Entries: entries}); err != nil {
		t.Fatal(err)
	}
	if _, err := MethodVAddDep.Call(ctx, env.client, env.mgrLOI,
		AddDepArgs{Version: cfgV, Dep: dfm.Dependency{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"}}); err != nil {
		t.Fatal(err)
	}
	desc, _ = env.mgr.Store().Descriptor(cfgV)
	if _, ok := desc.Components["fr"]; !ok || len(desc.Deps) != 1 {
		t.Fatalf("descriptor after remote config = %+v", desc)
	}

	// SetFlags remotely.
	if _, err := MethodVSetFlags.Call(ctx, env.client, env.mgrLOI,
		SetFlagsArgs{Version: cfgV, Key: dfm.EntryKey{Function: "greet", Component: "en"}, Exported: true, Mandatory: true}); err != nil {
		t.Fatal(err)
	}
	desc, _ = env.mgr.Store().Descriptor(cfgV)
	if e := desc.Entry(dfm.EntryKey{Function: "greet", Component: "en"}); e == nil || !e.Mandatory {
		t.Fatalf("entry after remote flags = %+v", e)
	}
}

func TestRemoteCreateRoot(t *testing.T) {
	f := newFixture(t)
	m := New(evolution.SingleVersion, evolution.Explicit)
	obj := &Object{Mgr: m}

	// Empty payload creates an empty root.
	e := wire.NewEncoder(8)
	e.PutBytes(nil)
	out, err := obj.InvokeMethod(MethodCreateRoot.Name, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := wire.NewDecoder(out).UintSlice()
	if len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("root = %v", segs)
	}

	// Second root refused.
	e2 := wire.NewEncoder(8)
	e2.PutBytes(f.descriptorEnabling("en").Encode())
	if _, err := obj.InvokeMethod(MethodCreateRoot.Name, e2.Bytes()); !errors.Is(err, ErrRootExists) {
		t.Fatalf("err = %v, want ErrRootExists", err)
	}
}

func TestRemoteBadArgsAndUnknownMethod(t *testing.T) {
	m := New(evolution.SingleVersion, evolution.Explicit)
	obj := &Object{Mgr: m}
	for _, method := range []string{
		MethodSetCurrent.Name, MethodDescriptor.Name, MethodDerive.Name, MethodMarkInstantiable.Name,
		MethodEvolveInstance.Name, MethodVAddComponent.Name, MethodVRemoveComponent.Name,
		MethodVSetEnabled.Name, MethodVSetFlags.Name, MethodVAddDep.Name,
	} {
		if _, err := obj.InvokeMethod(method, nil); !errors.Is(err, rpc.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", method, err)
		}
	}
	if _, err := obj.InvokeMethod("mgr.bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("err = %v, want ErrNoSuchFunction", err)
	}
}
