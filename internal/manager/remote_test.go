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
	"godcdo/internal/version"
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

// authorRemotely fetches parent's descriptor with mgr.descriptor, edits it
// through edit and authors the result under parent with one mgr.author call.
func (e *remoteEnv) authorRemotely(t *testing.T, parent version.ID, edit func(*dfm.Descriptor)) version.ID {
	t.Helper()
	ctx := context.Background()
	desc, err := MethodDescriptor.Call(ctx, e.client, e.mgrLOI, parent)
	if err != nil {
		t.Fatal(err)
	}
	edit(desc)
	child, err := MethodAuthor.Call(ctx, e.client, e.mgrLOI, core.ApplyArgs{Target: desc, Version: parent})
	if err != nil {
		t.Fatal(err)
	}
	return child
}

func TestRemoteVersionLifecycle(t *testing.T) {
	env := newRemoteEnv(t, evolution.SingleVersion)

	// Author a new version remotely: swap the enabled implementation to fr.
	child := env.authorRemotely(t, v(1), func(d *dfm.Descriptor) {
		d.Entry(dfm.EntryKey{Function: "greet", Component: "en"}).Enabled = false
		d.Entry(dfm.EntryKey{Function: "greet", Component: "fr"}).Enabled = true
	})
	if !child.Equal(v(1, 2)) || !env.mgr.Store().IsInstantiable(child) {
		t.Fatalf("authored %v, instantiable %v; want instantiable 1.2", child, env.mgr.Store().IsInstantiable(child))
	}
	// Set it current.
	ctx := context.Background()
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

	// Remove fr remotely, then re-add it with different entries.
	without := env.authorRemotely(t, v(1), func(d *dfm.Descriptor) {
		delete(d.Components, "fr")
		d.Entries = d.Entries[:1]
	})
	desc, _ := env.mgr.Store().Descriptor(without)
	if _, ok := desc.Components["fr"]; ok || len(desc.Entries) != 1 {
		t.Fatalf("fr not removed: %+v", desc)
	}

	// Re-add fr, add a dependency and set en's flags, all in one version.
	greetEN := dfm.EntryKey{Function: "greet", Component: "en"}
	readded := env.authorRemotely(t, without, func(d *dfm.Descriptor) {
		d.Components["fr"] = dfm.ComponentRef{ICO: env.f.icoFR, CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
		d.Entries = append(d.Entries, dfm.EntryDesc{Function: "greet", Component: "fr", Exported: true})
		d.Deps = append(d.Deps, dfm.Dependency{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"})
		e := d.Entry(greetEN)
		e.Exported, e.Mandatory = true, true
	})
	desc, _ = env.mgr.Store().Descriptor(readded)
	if _, ok := desc.Components["fr"]; !ok || len(desc.Deps) != 1 {
		t.Fatalf("descriptor after remote authoring = %+v", desc)
	}
	if e := desc.Entry(greetEN); e == nil || !e.Mandatory {
		t.Fatalf("entry after remote flags = %+v", e)
	}
}

func TestRemoteCreateRoot(t *testing.T) {
	f := newFixture(t)
	m := New(evolution.SingleVersion, evolution.Explicit)
	obj := &Object{Mgr: m}
	author := func(desc *dfm.Descriptor) ([]byte, error) {
		return obj.InvokeMethod(MethodAuthor.Name, MethodAuthor.Args.Encode(core.ApplyArgs{Target: desc}))
	}

	// No parent authors the root.
	out, err := author(dfm.NewDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	if root, err := MethodAuthor.Result.Decode(out); err != nil || !root.Equal(v(1)) || !m.Store().IsInstantiable(root) {
		t.Fatalf("root = %v, %v", root, err)
	}

	// Second root refused.
	if _, err := author(f.descriptorEnabling("en")); !errors.Is(err, ErrRootExists) {
		t.Fatalf("err = %v, want ErrRootExists", err)
	}
}

func TestRemoteBadArgsAndUnknownMethod(t *testing.T) {
	m := New(evolution.SingleVersion, evolution.Explicit)
	obj := &Object{Mgr: m}
	for _, method := range []string{
		MethodSetCurrent.Name, MethodDescriptor.Name, MethodAuthor.Name, MethodEvolveInstance.Name,
	} {
		if _, err := obj.InvokeMethod(method, nil); !errors.Is(err, rpc.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", method, err)
		}
	}
	if _, err := obj.InvokeMethod("mgr.bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("err = %v, want ErrNoSuchFunction", err)
	}
}
