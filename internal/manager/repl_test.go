package manager

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// standbyEnv wires a primary journal shipping into a standby ReplService
// hosted over inproc, the way a real deployment pairs two manager nodes.
type standbyEnv struct {
	net      *transport.InprocNetwork
	primaryJ *Journal
	standbyJ *Journal
	service  *ReplService
	shipper  *JournalShipper
}

func newStandbyEnv(t *testing.T) *standbyEnv {
	t.Helper()
	net := transport.NewInprocNetwork()
	pj, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pj.Close() })
	sj, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sj.Close() })

	service := NewReplService(sj, 1)
	disp := rpc.NewDispatcher()
	disp.Host(rpc.MgrReplLOID, service)
	srv, err := net.Listen("standby", disp)
	if err != nil {
		t.Fatal(err)
	}
	shipper := &JournalShipper{
		Dialer:   net.Dialer(),
		Endpoint: srv.Endpoint(),
		Epoch:    1,
		Timeout:  time.Second,
	}
	pj.SetSink(shipper.Ship)
	return &standbyEnv{net: net, primaryJ: pj, standbyJ: sj, service: service, shipper: shipper}
}

func TestJournalShippingMirrorsRecords(t *testing.T) {
	env := newStandbyEnv(t)

	l := env.primaryJ.openPass(v(1, 1), []naming.LOID{{Instance: 1}}, "")
	if err := l.sync(); err != nil {
		t.Fatalf("begin pass: %v", err)
	}
	pass := l.pass
	if err := env.primaryJ.Append(JournalRecord{Op: OpIntent, Pass: pass, LOID: naming.LOID{Instance: 1}, From: v(1), To: v(1, 1)}); err != nil {
		t.Fatalf("Intent: %v", err)
	}
	if err := env.primaryJ.Append(JournalRecord{Op: OpDone, Pass: pass}); err != nil {
		t.Fatalf("Done: %v", err)
	}

	want, _ := env.primaryJ.Records()
	got, err := env.standbyJ.Records()
	if err != nil {
		t.Fatalf("standby Records: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("standby has %d records, primary %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Pass != want[i].Pass {
			t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
	if env.service.Received() != uint64(len(want)) {
		t.Fatalf("received = %d, want %d", env.service.Received(), len(want))
	}
}

func TestStandbyFencesDeposedPrimary(t *testing.T) {
	env := newStandbyEnv(t)

	if err := env.primaryJ.openPass(v(1, 1), nil, "").sync(); err != nil {
		t.Fatalf("begin pass before takeover: %v", err)
	}

	// The standby takes over: epoch 2. The deposed primary's next append
	// fails at the shipping step with a fencing error.
	env.service.Bump()
	err := env.primaryJ.openPass(v(1, 1), nil, "").sync()
	if !errors.Is(err, rpc.ErrFenced) {
		t.Fatalf("append after takeover err = %v, want ErrFenced", err)
	}
}

// TestStandbyFenceHoldsAcrossAppend races shipments of the old era against
// a takeover's epoch bump and epoch record, 30 times: a shipment accepted
// before the bump must be journaled before the bump returns, so no shipped
// record ever follows the takeover's OpMgrEpoch record.
func TestStandbyFenceHoldsAcrossAppend(t *testing.T) {
	payload := MethodMgrReplAppend.Args.Encode(Shipment{Epoch: 1,
		Record: JournalRecord{Op: OpSkipped, Pass: 1, LOID: naming.LOID{Instance: 1}, Reason: "shipped"}})
	for round := 0; round < 30; round++ {
		j, err := OpenJournal(journalPath(t))
		if err != nil {
			t.Fatal(err)
		}
		svc := NewReplService(j, 1)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := svc.InvokeMethod(MethodMgrReplAppend.Name, payload); err != nil {
						if !errors.Is(err, rpc.ErrFenced) {
							t.Error(err)
						}
						return
					}
				}
			}()
		}
		for svc.Received() < 4 {
			runtime.Gosched()
		}
		epoch := svc.Bump()
		if err := j.MgrEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		recs, err := j.Records()
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.Op == OpMgrEpoch && i != len(recs)-1 {
				t.Fatalf("round %d: %d shipped records follow the epoch record", round, len(recs)-1-i)
			}
		}
		if got := svc.Received(); got != uint64(len(recs)-1) {
			t.Fatalf("round %d: received = %d, journaled %d", round, got, len(recs)-1)
		}
	}
}

// TestInfraPayloadBytes pins the wire bytes of mgr.repl.append's frame,
// captured from the hand-written encoder its declaration replaced (a standby
// built before it must still understand every shipment), and of
// dcdo.applyPlan's arguments and results, which managers send to objects of
// other builds, and of mgr.author's, the one remote way to author a version.
// The rows are append-only: a changed encoding adds a row and keeps the old
// one, whose bytes must still decode, so an older peer's form never leaves
// the suite.
func TestInfraPayloadBytes(t *testing.T) {
	fr := dfm.ComponentRef{ICO: naming.LOID{Domain: 1, Class: 8, Instance: 2}, CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	plan := core.PlanArgs{From: v(1), To: v(1, 1), Change: &dfm.Change{
		Plan: dfm.Plan{AddComponents: []string{"fr"},
			Retune: []dfm.EntryDesc{{Function: "greet", Component: "en", Exported: true}},
			Deps:   []dfm.Dependency{{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"}}},
		Arriving: []dfm.Arrival{{ID: "fr", Ref: fr,
			Entries: []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true, Enabled: true}}}},
	}}
	authored := dfm.NewDescriptor()
	authored.Components["fr"] = fr
	authored.Entries = []dfm.EntryDesc{{Function: "greet", Component: "fr", Exported: true, Enabled: true, Mandatory: true}}
	authored.Deps = []dfm.Dependency{{Kind: dfm.DepD, FromFunc: "greet", ToFunc: "greet"}}
	for _, row := range []struct {
		name   string
		got    []byte
		want   string
		decode func([]byte) error
	}{
		{"mgr.repl.append args", MethodMgrReplAppend.Args.Encode(Shipment{Epoch: 3, Record: JournalRecord{Op: OpIntent, Pass: 7,
			LOID: naming.LOID{Domain: 1, Class: 2, Instance: 3}, From: v(1), To: v(1, 1)}}),
			"031601030700000a6c6f69643a312e322e33010102010100",
			func(b []byte) error { _, err := MethodMgrReplAppend.Args.Decode(b); return err }},
		{"dcdo.applyPlan args", core.MethodApplyPlan.Args.Encode(plan),
			"01010201010102667200000105677265657402656e010000000a6c6f69643a312e382e320466723a310e676f2f72656769737472792f676f4001010567726565740266720101000001040567726565740005677265657400",
			func(b []byte) error { _, err := core.MethodApplyPlan.Args.Decode(b); return err }},
		{"dcdo.applyPlan result, applied", core.MethodApplyPlan.Result.Encode(core.PlanResult{Report: core.ApplyReport{ComponentsAdded: 1, EntriesRetuned: 1, BytesFetched: 32}}),
			"000100000140", func(b []byte) error { _, err := core.MethodApplyPlan.Result.Decode(b); return err }},
		{"dcdo.applyPlan result, refused", core.MethodApplyPlan.Result.Encode(core.PlanResult{Refused: true}), "01",
			func(b []byte) error { _, err := core.MethodApplyPlan.Result.Decode(b); return err }},
		{"mgr.author args", MethodAuthor.Args.Encode(core.ApplyArgs{Target: authored, Version: v(1)}),
			"43010567726565740266720101010001040567726565740005677265657400010266720a6c6f69643a312e382e320466723a310e676f2f72656769737472792f676f40010101", func(b []byte) error { _, err := MethodAuthor.Args.Decode(b); return err }},
		{"mgr.author args, root", MethodAuthor.Args.Encode(core.ApplyArgs{Target: dfm.NewDescriptor()}),
			"0300000000", func(b []byte) error { _, err := MethodAuthor.Args.Decode(b); return err }},
		{"mgr.author result", MethodAuthor.Result.Encode(v(1, 2)), "020102",
			func(b []byte) error { _, err := MethodAuthor.Result.Decode(b); return err }},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
		if raw, _ := hex.DecodeString(row.want); row.decode(raw) != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", row.name, row.decode(raw))
		}
	}
}

func TestShipperSyncBringsStandbyUpToDate(t *testing.T) {
	env := newStandbyEnv(t)

	// Records appended before the standby attached (no sink yet).
	env.primaryJ.SetSink(nil)
	if err := env.primaryJ.Current(v(1)); err != nil {
		t.Fatalf("Current: %v", err)
	}
	l := env.primaryJ.openPass(v(1, 1), nil, "")
	_ = l.sync()
	pass := l.pass
	_ = env.primaryJ.Append(JournalRecord{Op: OpDone, Pass: pass})

	if err := env.shipper.Sync(env.primaryJ); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	env.primaryJ.SetSink(env.shipper.Ship)
	if err := env.primaryJ.MgrEpoch(1); err != nil {
		t.Fatalf("append after sync: %v", err)
	}

	got, _ := env.standbyJ.Records()
	if len(got) != 4 || got[0].Op != OpCurrent || got[3].Op != OpMgrEpoch {
		t.Fatalf("standby records = %+v", got)
	}
}

// TestStandbyTakeoverResumesFleetPass is the manager-failover core: the
// primary manager dies mid-fleet-pass, and the standby — holding only the
// shipped journal — takes over with a fenced epoch bump and finishes the
// pass against the same fleet.
func TestStandbyTakeoverResumesFleetPass(t *testing.T) {
	env := newStandbyEnv(t)
	f := newFixture(t)
	ctx := context.Background()

	primary := f.newManager(t, evolution.MultiGeneral, evolution.Explicit)
	primary.SetJournal(env.primaryJ)
	var objs []*core.DCDO
	for i := 0; i < 3; i++ {
		obj := f.newDCDO()
		objs = append(objs, obj)
		if err := primary.CreateInstance(ctx, LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
	}

	// The pass dies after one apply; the journal (and its shipped mirror)
	// holds an open pass.
	rep, err := primary.EvolveFleet(crashAfter(t, primary, 1), v(1, 1), nil)
	if !errors.Is(err, context.Canceled) || !rep.Halted || len(rep.Evolved) != 1 {
		t.Fatalf("partial pass: %+v err=%v", rep, err)
	}
	_ = env.primaryJ.Close() // crash

	// The standby manager: same store shape, the same fleet re-registered
	// (in-process here; remotely they would be RemoteInstances), and the
	// shipped journal.
	standbyMgr := f.newManager(t, evolution.MultiGeneral, evolution.Explicit)
	standbyMgr.SetJournal(env.standbyJ)
	for _, obj := range objs {
		if err := standbyMgr.Adopt(ctx, LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
	}

	sb := &Standby{Mgr: standbyMgr, Service: env.service}
	report, epoch, err := sb.Takeover(ctx)
	if err != nil {
		t.Fatalf("Takeover: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("takeover epoch = %d, want 2", epoch)
	}
	if report.Passes != 1 {
		t.Fatalf("takeover recovered %d passes, want 1", report.Passes)
	}
	for i, obj := range objs {
		if !obj.Version().Equal(v(1, 1)) {
			t.Fatalf("object %d at %v after takeover, want 1.1", i, obj.Version())
		}
	}

	// The epoch survives the takeover's compaction, so a third-era manager
	// recovering from this journal still knows era 2 happened.
	recs, err := env.standbyJ.Records()
	if err != nil {
		t.Fatal(err)
	}
	foundEpoch := false
	for _, r := range recs {
		if r.Op == OpMgrEpoch && r.Pass == 2 {
			foundEpoch = true
		}
	}
	if !foundEpoch {
		t.Fatalf("epoch record lost in compaction: %+v", recs)
	}

	// A second takeover is idempotent apart from the epoch bump.
	report2, epoch2, err := sb.Takeover(ctx)
	if err != nil || report2.Passes != 0 || epoch2 != 3 {
		t.Fatalf("second takeover: %+v epoch=%d err=%v", report2, epoch2, err)
	}
}

// replicatedFleetEnv hosts one replicated LOID (three members on their own
// inproc endpoints) managed through the RPC stack, for zero-downtime
// evolution tests.
type replicatedFleetEnv struct {
	f      *fixture
	mgr    *Manager
	agent  *naming.Agent
	net    *transport.InprocNetwork
	client *rpc.Client
	loid   naming.LOID
	group  *replica.Group
	objs   map[string]*core.DCDO
}

func newReplicatedFleetEnv(t *testing.T) *replicatedFleetEnv {
	t.Helper()
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiGeneral, evolution.Explicit)
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	client := rpc.NewClient(cache, net.Dialer())
	client.Retry.BaseBackoff = time.Millisecond
	client.Retry.MaxBackoff = 4 * time.Millisecond

	env := &replicatedFleetEnv{
		f: f, mgr: m, agent: agent, net: net, client: client,
		loid: naming.LOID{Domain: 2, Class: 1, Instance: 1},
		objs: map[string]*core.DCDO{},
	}

	desc, err := m.Store().InstantiableDescriptor(v(1))
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []string{"inproc:r0", "inproc:r1", "inproc:r2"}
	for i, ep := range endpoints {
		obj := core.New(core.Config{LOID: env.loid, Registry: f.reg, Fetcher: f.fetcher()})
		if _, err := obj.ApplyDescriptor(context.Background(), desc, v(1)); err != nil {
			t.Fatal(err)
		}
		role := replica.RoleBackup
		var backups []string
		if i == 0 {
			role = replica.RolePrimary
			backups = endpoints[1:]
		}
		rep := replica.New(env.loid, obj, net.Dialer(), role, 1, backups)
		disp := rpc.NewDispatcher()
		disp.Host(env.loid, rep)
		if _, err := net.Listen(ep[len("inproc:"):], disp); err != nil {
			t.Fatal(err)
		}
		env.objs[ep] = obj
	}
	env.group = replica.NewGroup(env.loid, net.Dialer(), agent, endpoints[0], endpoints[1:])

	if err := m.Adopt(context.Background(), RemoteInstance{Client: client, Target: env.loid}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	m.RegisterReplicaGroup(env.loid, env.group)
	return env
}

func TestEvolveReplicatedZeroDowntime(t *testing.T) {
	env := newReplicatedFleetEnv(t)
	ctx := context.Background()
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	env.mgr.SetJournal(j)

	if err := env.mgr.EvolveInstance(ctx, env.loid, v(1, 1)); err != nil {
		t.Fatalf("EvolveInstance: %v", err)
	}

	// Every member runs the target.
	for ep, obj := range env.objs {
		if !obj.Version().Equal(v(1, 1)) {
			t.Fatalf("member %s at %v, want 1.1", ep, obj.Version())
		}
	}
	// Leadership moved to the first evolved backup and the naming plane
	// published the hand-off as generation 2.
	set := env.agent.Set(env.loid)
	if set.Primary != "inproc:r1" || set.Generation != 2 {
		t.Fatalf("published set after evolution = %+v", set)
	}
	if !set.Contains("inproc:r0") {
		t.Fatalf("old primary dropped from set: %+v", set)
	}
	// The journal holds the move as a plain one does: the promotion is not
	// journalled, since a recovering manager learns the new era's leader
	// from the published set.
	recs, _ := j.Records()
	var ops []JournalOp
	for _, r := range recs {
		ops = append(ops, r.Op)
	}
	if want := []JournalOp{OpBegin, OpIntent, OpApplied, OpDone}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("journal ops = %v, want %v", ops, want)
	}
	// The manager's record tracks the group version.
	rec, err := env.mgr.RecordOf(env.loid)
	if err != nil || !rec.Version.Equal(v(1, 1)) {
		t.Fatalf("record = %+v err=%v", rec, err)
	}

	// Clients keep working against the evolved group (the fr component is
	// the enabled one at v1.1).
	out, err := env.client.Invoke(ctx, env.loid, "greet", nil)
	if err != nil || string(out) != "bonjour" {
		t.Fatalf("greet after evolution = %q, %v", out, err)
	}
}

// TestEvolveReplicatedResumesAfterPartialPass drives the crash-resume
// convergence property: a pass interrupted after the backups evolved (but
// before promotion) is re-run and converges without flipping leadership
// twice.
func TestEvolveReplicatedResumesAfterPartialPass(t *testing.T) {
	env := newReplicatedFleetEnv(t)
	ctx := context.Background()

	// Manually evolve both backups to the target, simulating the state a
	// crash left behind mid-evolveReplicated.
	desc, err := env.mgr.Store().InstantiableDescriptor(v(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"inproc:r1", "inproc:r2"} {
		if _, err := replica.Call(ctx, env.group, ep, core.MethodApplyDescriptor,
			core.ApplyArgs{Target: desc, Version: v(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}

	if err := env.mgr.EvolveInstance(ctx, env.loid, v(1, 1)); err != nil {
		t.Fatalf("resumed EvolveInstance: %v", err)
	}
	for ep, obj := range env.objs {
		if !obj.Version().Equal(v(1, 1)) {
			t.Fatalf("member %s at %v, want 1.1", ep, obj.Version())
		}
	}
	if got := env.group.Epoch(); got != 2 {
		t.Fatalf("group epoch = %d, want exactly one promotion", got)
	}
}

// membersAt fails the test unless every member of the group, read through
// Group.Status, runs want.
func membersAt(t *testing.T, g *replica.Group, want version.ID) {
	t.Helper()
	set := g.Set()
	members := append([]string{set.Primary}, set.Backups...)
	if len(members) != 3 {
		t.Fatalf("group set = %+v, want 3 members", set)
	}
	for _, ep := range members {
		st, err := g.Status(context.Background(), ep)
		if err != nil {
			t.Fatalf("status %s: %v", ep, err)
		}
		if at, err := version.Decode(st.VersionSegs); err != nil || !at.Equal(want) {
			t.Fatalf("member %s (%s) at %v (%v), want %s", ep, st.Role, at, err, want)
		}
	}
}

// TestRollbackMovesEveryReplica: a rollback of a degree-3 group moves every
// member back, the primary included, the way evolution moved them forward.
func TestRollbackMovesEveryReplica(t *testing.T) {
	env := newReplicatedFleetEnv(t)
	ctx := context.Background()
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	env.mgr.SetJournal(j)

	if err := env.mgr.EvolveInstance(ctx, env.loid, v(1, 1)); err != nil {
		t.Fatalf("EvolveInstance: %v", err)
	}
	membersAt(t, env.group, v(1, 1))
	if n := env.mgr.EvolveFallbacks(); n != 0 {
		t.Fatalf("%d members turned the plan down, want none", n)
	}
	// One member reconfigured behind the manager's back turns the rollback's
	// plan down and is rolled back by the full descriptor.
	if err := env.objs["inproc:r2"].DisableFunction(dfm.EntryKey{Function: "greet", Component: "fr"}); err != nil {
		t.Fatal(err)
	}
	if err := env.mgr.RollbackInstance(ctx, env.loid, v(1)); err != nil {
		t.Fatalf("RollbackInstance: %v", err)
	}
	if n := env.mgr.EvolveFallbacks(); n != 1 {
		t.Fatalf("%d evolve-fallbacks, want the reconfigured member's 1", n)
	}
	membersAt(t, env.group, v(1))
	if rec, err := env.mgr.RecordOf(env.loid); err != nil || !rec.Version.Equal(v(1)) {
		t.Fatalf("record = %+v (%v), want version 1", rec, err)
	}
	out, err := env.client.Invoke(ctx, env.loid, "greet", nil)
	if err != nil || string(out) != "hello" {
		t.Fatalf("greet after rollback = %q, %v", out, err)
	}
}

// TestRecoverFinishesHalfEvolvedGroup: a pass that crashed after promoting an
// evolved backup, before the deposed primary's apply, leaves the new primary
// on the target and the old one behind. A restarted manager recovering
// through a fresh client must finish the group, not verify it by its primary.
func TestRecoverFinishesHalfEvolvedGroup(t *testing.T) {
	env := newReplicatedFleetEnv(t)
	ctx := context.Background()
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	env.mgr.SetJournal(j)

	target := v(1, 1)
	l := j.openPass(target, []naming.LOID{env.loid}, "")
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	pass := l.pass
	if err := j.Append(JournalRecord{Op: OpIntent, Pass: pass, LOID: env.loid, From: v(1), To: target}); err != nil {
		t.Fatal(err)
	}
	desc, err := env.mgr.Store().InstantiableDescriptor(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"inproc:r1", "inproc:r2"} {
		if _, err := replica.Call(ctx, env.group, ep, core.MethodApplyDescriptor,
			core.ApplyArgs{Target: desc, Version: target}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.group.Promote(ctx, "inproc:r1", true); err != nil {
		t.Fatal(err)
	}
	_ = j.Close() // crash: inproc:r0, the deposed primary, is still on 1

	m2 := restartManager(t, env.mgr, evolution.MultiGeneral, evolution.Explicit, path)
	defer m2.Journal().Close()
	client := rpc.NewClient(naming.NewCache(env.agent, vclock.Real{}, 0), env.net.Dialer())
	if err := m2.Adopt(ctx, RemoteInstance{Client: client, Target: env.loid}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	m2.RegisterReplicaGroup(env.loid, replica.Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), env.group.Epoch()))
	report, err := m2.Recover(ctx)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Passes != 1 || len(report.Resumed) != 1 || report.Resumed[0] != env.loid || len(report.Verified) != 0 {
		t.Fatalf("report = %+v, want the group resumed, not verified", report)
	}
	membersAt(t, env.group, target)
	if rec, err := m2.RecordOf(env.loid); err != nil || !rec.Version.Equal(target) {
		t.Fatalf("record = %+v (%v), want version %s", rec, err, target)
	}
	if got := env.group.Epoch(); got != 2 {
		t.Fatalf("group epoch = %d, want the one promotion", got)
	}
	if again, err := m2.Recover(ctx); err != nil || again.Passes != 0 {
		t.Fatalf("second Recover = %+v, %v, want a no-op", again, err)
	}
}
