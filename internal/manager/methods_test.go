package manager

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// declRow is one declared method with its types erased: a valid argument
// for it, a call that sends that argument, and its two decoders.
type declRow struct {
	name         string
	idempotent   bool
	noArgs       bool
	args         []byte
	call         func(ctx context.Context, c *rpc.Client) error
	decodeArgs   func([]byte) error
	decodeResult func([]byte) error
}

func declare[A, R any](m rpc.Method[A, R], target naming.LOID, a A) declRow {
	_, none := any(a).(rpc.None)
	return declRow{
		name:       m.Name,
		idempotent: m.Idempotent,
		noArgs:     none,
		args:       m.Args.Encode(a),
		call: func(ctx context.Context, c *rpc.Client) error {
			_, err := m.Call(ctx, c, target, a)
			return err
		},
		decodeArgs:   func(b []byte) error { _, err := m.Args.Decode(b); return err },
		decodeResult: func(b []byte) error { _, err := m.Result.Decode(b); return err },
	}
}

// declGroup is one service's declarations, addressed at one object.
type declGroup struct {
	service string
	target  naming.LOID
	prefix  string
	rows    []declRow
}

// declaredMethods lists every declaration of the DCDO control table, the ICO
// and the manager, each with a valid argument against the objects named.
func declaredMethods(obj, ico, mgr, icoFR naming.LOID, desc *dfm.Descriptor) []declGroup {
	none := rpc.None{}
	greetEN := dfm.EntryKey{Function: "greet", Component: "en"}
	return []declGroup{
		{"dcdo", obj, core.ControlPrefix, []declRow{
			declare(core.MethodInterface, obj, none),
			declare(core.MethodVersion, obj, none),
			declare(core.MethodSnapshot, obj, none),
			declare(core.MethodApplyDescriptor, obj, core.ApplyArgs{Target: desc, Version: v(1)}),
			declare(core.MethodEnable, obj, greetEN),
			declare(core.MethodDisable, obj, greetEN),
			declare(core.MethodIncorporate, obj, core.IncorporateArgs{ICO: icoFR, Enable: true}),
			declare(core.MethodRemoveComponent, obj, "fr"),
		}},
		{"ico", ico, "ico.", []declRow{
			declare(component.MethodGetDescriptor, ico, none),
			declare(component.MethodGetCodeSize, ico, none),
			declare(component.MethodReadCode, ico, component.ReadArgs{Offset: 0, Length: 16}),
		}},
		{"mgr", mgr, "mgr.", []declRow{
			declare(MethodCurrentVersion, mgr, none),
			declare(MethodSetCurrent, mgr, v(1, 1)),
			declare(MethodDescriptor, mgr, v(1)),
			declare(MethodInstantiableDesc, mgr, v(1)),
			declare(MethodDerive, mgr, v(1)),
			declare(MethodMarkInstantiable, mgr, v(1, 1)),
			declare(MethodEvolveInstance, mgr, EvolveArgs{LOID: obj, Version: v(1, 1)}),
			declare(MethodRecords, mgr, none),
			declare(MethodCreateRoot, mgr, desc),
			declare(MethodVAddComponent, mgr, AddComponentArgs{Version: v(1, 1), ID: "fr",
				Ref:     desc.Components["fr"],
				Entries: []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true}}}),
			declare(MethodVRemoveComponent, mgr, ComponentArgs{Version: v(1, 1), ID: "fr"}),
			declare(MethodVSetEnabled, mgr, SetEnabledArgs{Version: v(1, 1), Key: greetEN, Enabled: true}),
			declare(MethodVSetFlags, mgr, SetFlagsArgs{Version: v(1, 1), Key: greetEN, Exported: true}),
			declare(MethodVAddDep, mgr, AddDepArgs{Version: v(1, 1),
				Dep: dfm.Dependency{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"}}),
			declare(MethodRecover, mgr, none),
			declare(MethodHealth, mgr, none),
			declare(MethodPolicyGet, mgr, obj),
			declare(MethodPolicySet, mgr, PolicyArgs{LOID: obj, Policy: policy.Default()}),
		}},
	}
}

// TestDeclaredMethodContracts pins what the three declared method tables
// promise over the wire: each serves exactly its declarations, refuses an
// unknown name and a truncated payload, retries every read through a lost
// response, and runs a write at most once.
func TestDeclaredMethodContracts(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	m := f.newManager(t, evolution.SingleVersion, evolution.Explicit)
	obj := f.newDCDO()
	if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	ico := component.NewICO(f.comps[f.icoEN])
	mgrObj := &Object{Mgr: m}
	mgrLOID := naming.LOID{Domain: 1, Class: 2, Instance: 1}

	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	net := transport.NewInprocNetwork()
	disp := rpc.NewDispatcher()
	srv, err := net.Listen("contract-node", disp)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for loid, o := range map[naming.LOID]rpc.Object{obj.LOID(): obj, f.icoEN: ico, mgrLOID: mgrObj} {
		disp.Host(loid, o)
		agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
	}
	faults := transport.NewFaults(1)
	client := rpc.NewClient(naming.NewCache(agent, clk, 0), transport.NewFaultDialer(net.Dialer(), faults))
	client.Retry = rpc.RetryPolicy{CallTimeout: 100 * time.Millisecond, MaxAttempts: 3, MaxRebinds: 2,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Multiplier: 2}

	groups := declaredMethods(obj.LOID(), f.icoEN, mgrLOID, f.icoFR, f.descriptorEnabling("en"))
	tables := map[string]rpc.Table{"dcdo": obj.Control(), "ico": ico.Table, "mgr": m.methods}
	var idempotent []string
	for _, g := range groups {
		var declared []string
		for _, r := range g.rows {
			declared = append(declared, r.name)
			if r.idempotent {
				idempotent = append(idempotent, r.name)
			}
		}
		var served []string
		for name := range tables[g.service] {
			served = append(served, name)
		}
		sort.Strings(declared)
		sort.Strings(served)
		if !reflect.DeepEqual(served, declared) {
			t.Errorf("%s serves %v, declares %v", g.service, served, declared)
		}
		if _, err := client.Invoke(ctx, g.target, g.prefix+"bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
			t.Errorf("%sbogus: err = %v, want ErrNoSuchFunction", g.prefix, err)
		}
		for _, r := range g.rows {
			if r.noArgs {
				continue
			}
			if _, err := client.Invoke(ctx, g.target, r.name, r.args[:len(r.args)-1]); !errors.Is(err, rpc.ErrBadRequest) {
				t.Errorf("%s with a truncated payload: err = %v, want ErrBadRequest", r.name, err)
			}
		}
	}
	wantIdempotent := []string{
		"dcdo.interface", "dcdo.version", "dcdo.snapshot",
		"ico.getDescriptor", "ico.getCodeSize", "ico.readCode",
		"mgr.currentVersion", "mgr.descriptor", "mgr.instantiableDescriptor",
		"mgr.records", "mgr.health", "mgr.policyGet",
	}
	if !reflect.DeepEqual(idempotent, wantIdempotent) {
		t.Errorf("idempotent methods = %v, want only the reads %v", idempotent, wantIdempotent)
	}

	// Every read succeeds through one lost response.
	dropOne := transport.FaultConfig{DropResponse: 1, Budget: 1}
	for _, g := range groups {
		for _, r := range g.rows {
			if !r.idempotent {
				continue
			}
			faults.SetDefault(dropOne)
			dropped := faults.Stats().DroppedResponses
			if err := r.call(ctx, client); err != nil {
				t.Errorf("%s through a lost response: %v", r.name, err)
			}
			if got := faults.Stats().DroppedResponses - dropped; got != 1 {
				t.Errorf("%s: %d responses dropped, want 1", r.name, got)
			}
		}
	}

	// A write whose response is lost ends ambiguous, having run once.
	if err := m.SetCurrentVersion(ctx, v(1, 1)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		call func() error
		want dfm.EntryKey // the greet implementation enabled afterwards
	}{
		{MethodEvolveInstance.Name + " to 1.1", func() error {
			_, err := MethodEvolveInstance.Call(ctx, client, mgrLOID, EvolveArgs{LOID: obj.LOID(), Version: v(1, 1)})
			return err
		}, dfm.EntryKey{Function: "greet", Component: "fr"}},
		{core.MethodApplyDescriptor.Name + " back to 1", func() error {
			_, err := core.MethodApplyDescriptor.Call(ctx, client, obj.LOID(),
				core.ApplyArgs{Target: f.descriptorEnabling("en"), Version: v(1)})
			return err
		}, dfm.EntryKey{Function: "greet", Component: "en"}},
	} {
		faults.SetDefault(dropOne)
		calls, publishes := faults.Stats().Calls, obj.DFM().Publishes()
		if err := w.call(); !errors.Is(err, rpc.ErrAmbiguousResult) {
			t.Errorf("%s: err = %v, want ErrAmbiguousResult", w.name, err)
		}
		if got := faults.Stats().Calls - calls; got != 1 {
			t.Errorf("%s: %d attempts, want 1", w.name, got)
		}
		if got := obj.DFM().Publishes() - publishes; got != 1 {
			t.Errorf("%s: executed %d times, want once", w.name, got)
		}
		if out, err := obj.InvokeMethod("greet", nil); err != nil || string(out) != map[string]string{"en": "hello", "fr": "bonjour"}[w.want.Component] {
			t.Errorf("%s: greet = %q, %v; want %s's", w.name, out, err, w.want)
		}
	}
}

// FuzzDeclaredDecoders feeds arbitrary bytes to every declared Args and
// Result decoder of the three method tables. The bytes come off the network,
// so a decoder may refuse them but must never panic.
func FuzzDeclaredDecoders(f *testing.F) {
	desc := dfm.NewDescriptor()
	desc.Components["fr"] = dfm.ComponentRef{CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	desc.Entries = []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true, Enabled: true}}
	loid := func(class uint32) naming.LOID { return naming.LOID{Domain: 1, Class: class, Instance: 1} }
	var rows []declRow
	for _, g := range declaredMethods(loid(1), loid(8), loid(2), loid(9), desc) {
		rows = append(rows, g.rows...)
	}
	for _, r := range rows {
		f.Add(r.args)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range rows {
			_ = r.decodeArgs(data)
			_ = r.decodeResult(data)
		}
	})
}
