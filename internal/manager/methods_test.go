package manager

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/rpc/rpctest"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// declRow is one declared method with its types erased, and a call that
// sends its valid argument through a client.
type declRow struct {
	rpctest.Row
	call func(ctx context.Context, c *rpc.Client) error
}

func declare[A, R any](m rpc.Method[A, R], target naming.LOID, a A) declRow {
	return declRow{Row: rpctest.Declare(m, a), call: func(ctx context.Context, c *rpc.Client) error {
		_, err := m.Call(ctx, c, target, a)
		return err
	}}
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
			declare(core.MethodApplyPlan, obj, core.PlanArgs{From: v(1), To: v(1, 1),
				Change: dfm.NewChange(dfm.NewDescriptor(), desc)}),
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
			declare(MethodAuthor, mgr, core.ApplyArgs{Target: desc, Version: v(1)}),
			declare(MethodEvolveInstance, mgr, EvolveArgs{LOID: obj, Version: v(1, 1)}),
			declare(MethodRecords, mgr, none),
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
		var rows []rpctest.Row
		for _, r := range g.rows {
			rows = append(rows, r.Row)
			if r.Idempotent {
				idempotent = append(idempotent, r.Name)
			}
		}
		rpctest.CheckTable(t, tables[g.service], g.prefix, rows)
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
			if !r.Idempotent {
				continue
			}
			faults.SetDefault(dropOne)
			dropped := faults.Stats().DroppedResponses
			if err := r.call(ctx, client); err != nil {
				t.Errorf("%s through a lost response: %v", r.Name, err)
			}
			if got := faults.Stats().DroppedResponses - dropped; got != 1 {
				t.Errorf("%s: %d responses dropped, want 1", r.Name, got)
			}
		}
	}

	// A write whose response is lost ends ambiguous, having run once.
	if err := m.SetCurrentVersion(ctx, v(1, 1)); err != nil {
		t.Fatal(err)
	}
	publishes := func() int { return int(obj.DFM().Publishes()) }
	for _, w := range []struct {
		name string
		call func() error
		runs func() int   // counts the write's executions
		want dfm.EntryKey // the greet implementation enabled afterwards
	}{
		{MethodEvolveInstance.Name + " to 1.1", func() error {
			_, err := MethodEvolveInstance.Call(ctx, client, mgrLOID, EvolveArgs{LOID: obj.LOID(), Version: v(1, 1)})
			return err
		}, publishes, dfm.EntryKey{Function: "greet", Component: "fr"}},
		{core.MethodApplyDescriptor.Name + " back to 1", func() error {
			_, err := core.MethodApplyDescriptor.Call(ctx, client, obj.LOID(),
				core.ApplyArgs{Target: f.descriptorEnabling("en"), Version: v(1)})
			return err
		}, publishes, dfm.EntryKey{Function: "greet", Component: "en"}},
		{MethodAuthor.Name + " under 1", func() error {
			_, err := MethodAuthor.Call(ctx, client, mgrLOID, core.ApplyArgs{Target: f.descriptorEnabling("fr"), Version: v(1)})
			return err
		}, m.Store().Len, dfm.EntryKey{Function: "greet", Component: "en"}},
	} {
		faults.SetDefault(dropOne)
		calls, runs := faults.Stats().Calls, w.runs()
		if err := w.call(); !errors.Is(err, rpc.ErrAmbiguousResult) {
			t.Errorf("%s: err = %v, want ErrAmbiguousResult", w.name, err)
		}
		if got := faults.Stats().Calls - calls; got != 1 {
			t.Errorf("%s: %d attempts, want 1", w.name, got)
		}
		if got := w.runs() - runs; got != 1 {
			t.Errorf("%s: executed %d times, want once", w.name, got)
		}
		if out, err := obj.InvokeMethod("greet", nil); err != nil || string(out) != map[string]string{"en": "hello", "fr": "bonjour"}[w.want.Component] {
			t.Errorf("%s: greet = %q, %v; want %s's", w.name, out, err, w.want)
		}
	}
}

// infraMethods lists every declaration of the services addressed by
// endpoint — the binding agent, health, obs, mgr.repl, the replica host and
// the replication plane — keyed by method-name prefix, each with a valid
// argument. The rollout service's JSON table is checked in its own package.
func infraMethods(loid naming.LOID) map[string][]rpctest.Row {
	none := rpc.None{}
	return map[string][]rpctest.Row{
		"agent.": {
			rpctest.Declare(rpc.MethodAgentLookup, loid),
			rpctest.Declare(rpc.MethodAgentRegister, rpc.AgentRegisterArgs{LOID: loid, Address: naming.Address{Endpoint: "tcp:a:1"}}),
			rpctest.Declare(rpc.MethodAgentDeregister, loid),
			rpctest.Declare(rpc.MethodAgentRegisterSet, rpc.AgentSetArgs{LOID: loid,
				Set: naming.ReplicaSet{Primary: "tcp:a:1", Backups: []string{"tcp:b:1"}, Generation: 1}}),
			rpctest.Declare(rpc.MethodAgentSetPolicy, rpc.AgentPolicyArgs{LOID: loid, Policy: policy.Default()}),
		},
		"health.": {rpctest.Declare(rpc.MethodHealthPing, none)},
		"obs.": {
			rpctest.Declare(rpc.MethodObsSnapshot, none),
			rpctest.Declare(rpc.MethodObsSpans, rpc.ObsQuery{Limit: 8}),
			rpctest.Declare(rpc.MethodObsEvents, rpc.ObsQuery{Limit: 8}),
			rpctest.Declare(rpc.MethodObsFlight, rpc.ObsQuery{Slowest: true}),
		},
		"mgr.repl.": {rpctest.Declare(MethodMgrReplAppend, Shipment{Epoch: 1,
			Record: JournalRecord{Op: OpSkipped, Pass: 1, LOID: loid, Reason: "shipped"}})},
		"replhost.": {rpctest.Declare(replica.MethodHostAdd, replica.HostAddArgs{LOID: loid, Epoch: 1})},
		"repl.": {
			rpctest.Declare(replica.MethodShip, []byte{1, 1, 0, 0}),
			rpctest.Declare(replica.MethodPromote, replica.PromoteArgs{Epoch: 2, Backups: []string{"inproc:b"}}),
			rpctest.Declare(replica.MethodDemote, 2),
			rpctest.Declare(replica.MethodStatus, none),
			rpctest.Declare(replica.MethodSyncTo, "inproc:b"),
			rpctest.Declare(replica.MethodRead, rpc.ReadArgs{Method: "get"}),
		},
	}
}

// TestInfraMethodContracts holds the agent, health, obs and mgr.repl tables
// to their declarations. They are called at one endpoint in one attempt, so
// unlike the three tables above nothing here retries.
func TestInfraMethodContracts(t *testing.T) {
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	methods := infraMethods(naming.LOID{Domain: 1, Class: 1, Instance: 1})
	for prefix, table := range map[string]rpc.Table{
		"agent.":    rpc.NewAgentService(naming.NewAgent(vclock.Real{})),
		"health.":   rpc.NewHealthService("contract-node", nil, nil),
		"obs.":      rpc.NewObsService(obs.New()),
		"mgr.repl.": NewReplService(j, 1).Table,
	} {
		rpctest.CheckTable(t, table, prefix, methods[prefix])
	}
}

// FuzzDeclaredDecoders feeds arbitrary bytes to every declared Args and
// Result decoder of the manager's, DCDO's and ICO's tables and of the
// services infraMethods lists. The bytes come off the network,
// so a decoder may refuse them but must never panic.
func FuzzDeclaredDecoders(f *testing.F) {
	desc := dfm.NewDescriptor()
	desc.Components["fr"] = dfm.ComponentRef{CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	desc.Entries = []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true, Enabled: true}}
	loid := func(class uint32) naming.LOID { return naming.LOID{Domain: 1, Class: class, Instance: 1} }
	var rows []rpctest.Row
	for _, g := range declaredMethods(loid(1), loid(8), loid(2), loid(9), desc) {
		for _, r := range g.rows {
			rows = append(rows, r.Row)
		}
	}
	for _, infra := range infraMethods(loid(1)) {
		rows = append(rows, infra...)
	}
	for _, r := range rows {
		f.Add(r.Args)
	}
	// mgr.author carries whole descriptors: seed the shapes its row does
	// not, a root (no parent, empty descriptor), a dependency, and
	// mandatory, permanent entries.
	deps, flags := desc.Clone(), desc.Clone()
	deps.Deps = []dfm.Dependency{{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"}}
	flags.Entries[0].Mandatory, flags.Entries[0].Permanent = true, true
	for _, a := range []core.ApplyArgs{{Target: dfm.NewDescriptor()}, {Target: deps, Version: v(1)}, {Target: flags, Version: v(1, 1)}} {
		f.Add(MethodAuthor.Args.Encode(a))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range rows {
			_ = r.DecodeArgs(data)
			_ = r.DecodeResult(data)
		}
	})
}
