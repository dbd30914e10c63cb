package replica

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/policy"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// fakeInner is a minimal Inner: a state container plus "set"/"get" dynamic
// methods and the dcdo.version control probe. The E13 harness exercises the
// real core.DCDO path; these tests isolate the replication machinery.
type fakeInner struct {
	st   *objstate.State
	segs []uint64
	// duringSet, when set, runs inside "set" after the state changed;
	// duringGet inside "get".
	duringSet, duringGet func()
}

func newFakeInner(segs ...uint64) *fakeInner {
	return &fakeInner{st: objstate.New(), segs: segs}
}

func (f *fakeInner) State() *objstate.State { return f.st }

func (f *fakeInner) InvokeMethodCtx(_ context.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case core.MethodVersion.Name:
		e := wire.NewEncoder(16)
		e.PutUintSlice(f.segs)
		return e.Bytes(), nil
	case "set":
		dec := wire.NewDecoder(args)
		k, _ := dec.String()
		v, _ := dec.Bytes()
		f.st.Set(k, v)
		if f.duringSet != nil {
			f.duringSet()
		}
		return nil, nil
	case "get":
		k, _ := wire.NewDecoder(args).String()
		v, _ := f.st.Get(k)
		if f.duringGet != nil {
			f.duringGet()
		}
		e := wire.NewEncoder(len(v) + 4)
		e.PutBytes(v)
		return e.Bytes(), nil
	case "noop":
		return []byte("ok"), nil
	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

func setArgs(k, v string) []byte {
	e := wire.NewEncoder(len(k) + len(v) + 8)
	e.PutString(k)
	e.PutBytes([]byte(v))
	return e.Bytes()
}

func getValue(t *testing.T, inner *fakeInner, k string) string {
	t.Helper()
	v, ok := inner.st.Get(k)
	if !ok {
		return ""
	}
	return string(v)
}

// replicaEnv hosts a 3-member group (p, b1, b2) for one LOID on an inproc
// network, each member on its own endpoint. Members ship to each other
// through faults (a clean network until a test installs a rule); the test's
// own calls bypass it.
type replicaEnv struct {
	loid    naming.LOID
	net     *transport.InprocNetwork
	faults  *transport.Faults
	agent   *naming.Agent
	inners  map[string]*fakeInner
	members map[string]*Replica
	servers map[string]*transport.InprocServer
}

func newReplicaEnv(t *testing.T) *replicaEnv {
	t.Helper()
	env := &replicaEnv{
		loid:    naming.LOID{Domain: 3, Class: 1, Instance: 1},
		net:     transport.NewInprocNetwork(),
		faults:  transport.NewFaults(1),
		agent:   naming.NewAgent(vclock.Real{}),
		inners:  map[string]*fakeInner{},
		members: map[string]*Replica{},
		servers: map[string]*transport.InprocServer{},
	}
	endpoints := map[string]string{"p": "inproc:p", "b1": "inproc:b1", "b2": "inproc:b2"}
	for name := range endpoints {
		inner := newFakeInner(1)
		role := RoleBackup
		var backups []string
		if name == "p" {
			role = RolePrimary
			backups = []string{"inproc:b1", "inproc:b2"}
		}
		rep := New(env.loid, inner, transport.NewFaultDialer(env.net.Dialer(), env.faults), role, 1, backups)
		rep.ShipTimeout = 200 * time.Millisecond
		disp := rpc.NewDispatcher()
		disp.Host(env.loid, rep)
		srv, err := env.net.Listen(name, disp)
		if err != nil {
			t.Fatal(err)
		}
		env.inners[name] = inner
		env.members[name] = rep
		env.servers[name] = srv
	}
	env.agent.RegisterSet(env.loid, naming.ReplicaSet{
		Primary: "inproc:p",
		Backups: []string{"inproc:b1", "inproc:b2"},
	})
	return env
}

func (e *replicaEnv) call(endpoint, method string, args []byte) ([]byte, error) {
	return rpc.DirectCall(context.Background(), e.net.Dialer(), endpoint, e.loid, method, args, time.Second)
}

// callAt invokes a declared method on the group's LOID at endpoint.
func callAt[A, R any](e *replicaEnv, endpoint string, m rpc.Method[A, R], a A) (R, error) {
	return m.CallAt(context.Background(), e.net.Dialer(), endpoint, e.loid, time.Second, a)
}

func TestPrimaryExecutesAndShips(t *testing.T) {
	env := newReplicaEnv(t)

	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); err != nil {
		t.Fatalf("set on primary: %v", err)
	}
	for _, b := range []string{"b1", "b2"} {
		if got := getValue(t, env.inners[b], "k"); got != "v1" {
			t.Fatalf("backup %s state = %q, want v1", b, got)
		}
	}

	// A read that does not mutate state ships nothing: the sequence number
	// is still 1 on every member.
	if _, err := env.call("inproc:p", "noop", nil); err != nil {
		t.Fatalf("noop: %v", err)
	}
	for name, rep := range env.members {
		rep.mu.Lock()
		seq := rep.seq
		rep.mu.Unlock()
		if seq != 1 {
			t.Fatalf("%s seq = %d after read-only call, want 1", name, seq)
		}
	}

	// A second mutation ships again.
	if _, err := env.call("inproc:p", "set", setArgs("k", "v2")); err != nil {
		t.Fatalf("second set: %v", err)
	}
	if got := getValue(t, env.inners["b2"], "k"); got != "v2" {
		t.Fatalf("backup state after second set = %q, want v2", got)
	}
}

func TestBackupRefusesDynamicServesControl(t *testing.T) {
	env := newReplicaEnv(t)

	_, err := env.call("inproc:b1", "set", setArgs("k", "v"))
	if !errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("dynamic call on backup err = %v, want ErrNotPrimary", err)
	}
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeNotPrimary {
		t.Fatalf("remote error = %+v, want CodeNotPrimary", re)
	}

	// Control plane passes through on any role.
	out, err := env.call("inproc:b1", core.MethodVersion.Name, nil)
	if err != nil {
		t.Fatalf("version probe on backup: %v", err)
	}
	segs, err := wire.NewDecoder(out).UintSlice()
	if err != nil || len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("version = %v (%v)", segs, err)
	}
}

func TestStaleShipmentAndDuplicateDropped(t *testing.T) {
	env := newReplicaEnv(t)
	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); err != nil {
		t.Fatal(err)
	}

	// Replay the same sequence with different bytes: deduplicated, state
	// untouched, and the answer is the sequence already held, sent as such:
	// the backup did not take this shipment.
	other := objstate.New()
	other.Set("k", []byte("replayed"))
	replay, _, _ := appendShipment(nil, other, 1, 1, 0, 0)
	ack, err := callAt(env, "inproc:b1", MethodShip, replay)
	if err != nil {
		t.Fatalf("duplicate shipment: %v", err)
	}
	if ack != (ShipAck{Held: 1}) || ack.held(1) != 1 {
		t.Fatalf("duplicate shipment answered %+v, want held=1", ack)
	}
	if got := getValue(t, env.inners["b1"], "k"); got != "v1" {
		t.Fatalf("duplicate shipment overwrote state: %q", got)
	}

	// A corrupt delta is refused without advancing the sequence, so the
	// shipment can be repeated.
	if _, err := callAt(env, "inproc:b1", MethodShip, shipmentFrame(1, 2, 0, []byte{0xff})); err == nil {
		t.Fatal("corrupt shipment accepted")
	}
	if st := env.status(t, "b1"); st.Seq != 1 {
		t.Fatalf("corrupt shipment advanced seq to %d", st.Seq)
	}

	// A shipment from a dead era is fenced.
	env.members["b1"].mu.Lock()
	env.members["b1"].epoch = 5
	env.members["b1"].mu.Unlock()
	_, err = callAt(env, "inproc:b1", MethodShip, replay)
	if !errors.Is(err, rpc.ErrFenced) {
		t.Fatalf("stale-epoch shipment err = %v, want ErrFenced", err)
	}

	// A shipment the backup takes is acked with nothing; the shipment it
	// then holds past, replayed, is answered with the sequence held.
	next, _, _ := appendShipment(nil, other, 5, 2, 0, 0)
	if ack, err := callAt(env, "inproc:b1", MethodShip, next); err != nil || ack != (ShipAck{Took: true}) {
		t.Fatalf("fresh shipment answered %+v, %v; want it taken", ack, err)
	}
	older, _, _ := appendShipment(nil, other, 5, 1, 0, 0)
	if ack, err := callAt(env, "inproc:b1", MethodShip, older); err != nil || ack != (ShipAck{Held: 2}) {
		t.Fatalf("older shipment answered %+v, %v; want held=2", ack, err)
	}

	// The retired full-snapshot method is gone, not aliased: a binary that
	// still sends it is told so instead of having its image misread.
	if _, err := env.call("inproc:b1", ReplPrefix+"apply", replay); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("repl.apply err = %v, want ErrNoSuchFunction", err)
	}
}

func TestDeposedPrimarySelfDemotes(t *testing.T) {
	env := newReplicaEnv(t)

	// A new era starts without the old primary noticing: b1 is promoted at
	// epoch 2 and b2 learns the new epoch.
	if _, err := callAt(env, "inproc:b1", MethodPromote, PromoteArgs{Epoch: 2, Backups: []string{"inproc:b2"}}); err != nil {
		t.Fatalf("promote b1: %v", err)
	}
	if _, err := callAt(env, "inproc:b2", MethodDemote, 2); err != nil {
		t.Fatalf("demote b2 into era 2: %v", err)
	}

	// The old primary executes a mutation; its shipment is fenced, so the
	// caller sees ErrNotPrimary (the state never committed to the group) and
	// the replica demotes itself.
	_, err := env.call("inproc:p", "set", setArgs("k", "stale"))
	if !errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("deposed primary err = %v, want ErrNotPrimary", err)
	}
	if role := env.members["p"].CurrentRole(); role != RoleBackup {
		t.Fatalf("deposed primary role = %s, want backup", role)
	}
	// The stale value never reached the new era's members.
	if got := getValue(t, env.inners["b2"], "k"); got != "" {
		t.Fatalf("stale write leaked to new era: %q", got)
	}
}

// A primary fenced by its second backup after its first took the
// shipment cannot say the call never committed: the first backup may lead
// the new era with the change applied, and a caller told ErrNotPrimary
// would run a write twice. It answers ErrUnavailable, which a
// non-idempotent call surfaces as ambiguous, and still demotes itself.
func TestFencedAfterAnotherBackupTookIsAmbiguous(t *testing.T) {
	env := newReplicaEnv(t)
	if _, err := callAt(env, "inproc:b2", MethodDemote, 2); err != nil {
		t.Fatalf("demote b2 into era 2: %v", err)
	}

	_, err := env.call("inproc:p", "set", setArgs("k", "v1"))
	if !errors.Is(err, rpc.ErrUnavailable) || errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("err = %v, want ErrUnavailable, not ErrNotPrimary", err)
	}
	if got := getValue(t, env.inners["b1"], "k"); got != "v1" {
		t.Fatalf("b1 holds k = %q, want the shipped v1", got)
	}
	if role := env.members["p"].CurrentRole(); role != RoleBackup {
		t.Fatalf("fenced primary role = %s, want backup", role)
	}
}

func TestGroupPromoteHandoff(t *testing.T) {
	env := newReplicaEnv(t)
	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)

	set, err := g.Promote(context.Background(), "inproc:b1", true)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if set.Primary != "inproc:b1" || len(set.Backups) != 2 || set.Backups[0] != "inproc:p" {
		t.Fatalf("new set = %+v", set)
	}
	if set.Generation != 2 {
		t.Fatalf("generation = %d, want 2", set.Generation)
	}
	if g.Epoch() != 2 {
		t.Fatalf("group epoch = %d, want 2", g.Epoch())
	}
	if env.members["b1"].CurrentRole() != RolePrimary || env.members["p"].CurrentRole() != RoleBackup {
		t.Fatal("roles did not flip on hand-off")
	}

	// The new primary serves and ships; the old one refuses.
	if _, err := env.call("inproc:b1", "set", setArgs("k", "after")); err != nil {
		t.Fatalf("set on new primary: %v", err)
	}
	if got := getValue(t, env.inners["p"], "k"); got != "after" {
		t.Fatalf("old primary (now backup) state = %q, want after", got)
	}
	if _, err := env.call("inproc:p", "set", setArgs("k", "x")); !errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("old primary err = %v, want ErrNotPrimary", err)
	}
}

func TestGroupFailoverSkipsDeadPrimary(t *testing.T) {
	env := newReplicaEnv(t)
	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)

	if err := env.servers["p"].Close(); err != nil {
		t.Fatal(err)
	}
	newPrimary, err := g.Failover(context.Background())
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if newPrimary != "inproc:b1" {
		t.Fatalf("failover chose %s, want inproc:b1", newPrimary)
	}
	set := g.Set()
	if set.Primary != "inproc:b1" || set.Contains("inproc:p") {
		t.Fatalf("post-failover set = %+v (dead primary must be dropped)", set)
	}
	// The published set reflects the failover.
	published := env.agent.Set(env.loid)
	if published.Primary != "inproc:b1" || published.Generation != 2 {
		t.Fatalf("published set = %+v", published)
	}
}

// TestClientFailsOverTransparently drives the full client path: a cached
// multi-endpoint binding, primary death, failover, and an idempotent retry
// that lands on the new primary without surfacing an error.
func TestClientFailsOverTransparently(t *testing.T) {
	env := newReplicaEnv(t)
	cache := naming.NewCache(env.agent, vclock.Real{}, 0)
	client := rpc.NewClient(cache, env.net.Dialer())
	client.Retry.BaseBackoff = time.Millisecond
	client.Retry.MaxBackoff = 4 * time.Millisecond

	ctx := context.Background()
	if _, err := client.Invoke(ctx, env.loid, "set", setArgs("k", "v1")); err != nil {
		t.Fatalf("warm-up invoke: %v", err)
	}

	// Kill the primary and fail the group over (the manager or a failover
	// controller would do this; the client only needs the agent updated —
	// or, before it is, the cached backup list).
	if err := env.servers["p"].Close(); err != nil {
		t.Fatal(err)
	}
	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)
	if _, err := g.Failover(ctx); err != nil {
		t.Fatalf("Failover: %v", err)
	}

	out, err := client.Invoke(ctx, env.loid, "get", wireString("k"))
	if err != nil {
		t.Fatalf("invoke after failover: %v", err)
	}
	v, _ := wire.NewDecoder(out).Bytes()
	if string(v) != "v1" {
		t.Fatalf("value after failover = %q, want v1 (replicated before the crash)", v)
	}
	if st := client.Stats(); st.Errors != 0 {
		t.Fatalf("client surfaced errors during failover: %+v", st)
	}
}

func wireString(s string) []byte {
	e := wire.NewEncoder(len(s) + 4)
	e.PutString(s)
	return e.Bytes()
}

// addHostNode starts a fourth node ("n") carrying a HostService but no
// member of the group — the reconciler's raw material for Expand. It
// returns the node's endpoint and a function to fetch the hosted replica's
// inner once one exists.
func (e *replicaEnv) addHostNode(t *testing.T) (string, *HostService) {
	t.Helper()
	disp := rpc.NewDispatcher()
	hs := &HostService{
		Factory: func(naming.LOID) (Inner, error) { return newFakeInner(1), nil },
		Dialer:  e.net.Dialer(),
		Host:    disp.Host,
	}
	disp.Host(rpc.ReplicaHostLOID, hs)
	srv, err := e.net.Listen("n", disp)
	if err != nil {
		t.Fatal(err)
	}
	e.servers["n"] = srv
	return "inproc:n", hs
}

func TestGroupExpandHostsSeedsPublishes(t *testing.T) {
	env := newReplicaEnv(t)
	ep, hs := env.addHostNode(t)
	if _, err := env.call("inproc:p", "set", setArgs("k", "pre")); err != nil {
		t.Fatal(err)
	}

	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)
	set, err := g.Expand(context.Background(), ep)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if set.Primary != "inproc:p" || len(set.Backups) != 3 || set.Backups[2] != ep {
		t.Fatalf("expanded set = %+v", set)
	}
	if set.Generation != 2 {
		t.Fatalf("expanded generation = %d, want 2", set.Generation)
	}
	if g.Epoch() != 2 {
		t.Fatalf("group epoch = %d, want 2", g.Epoch())
	}
	published := env.agent.Set(env.loid)
	if !published.Contains(ep) || published.Generation != 2 {
		t.Fatalf("published set = %+v", published)
	}

	// The new member was seeded with the pre-expansion state…
	rep, ok := hs.Hosted(env.loid)
	if !ok {
		t.Fatal("host service did not build a member")
	}
	if v, _ := rep.inner.State().Get("k"); string(v) != "pre" {
		t.Fatalf("seeded state = %q, want pre", v)
	}
	// …and receives subsequent shipments like any backup.
	if _, err := env.call("inproc:p", "set", setArgs("k", "post")); err != nil {
		t.Fatal(err)
	}
	if v, _ := rep.inner.State().Get("k"); string(v) != "post" {
		t.Fatalf("post-expansion shipment = %q, want post", v)
	}

	// Expanding onto an existing member is a no-op.
	again, err := g.Expand(context.Background(), ep)
	if err != nil {
		t.Fatalf("idempotent Expand: %v", err)
	}
	if again.Generation != set.Generation || len(again.Backups) != 3 {
		t.Fatalf("idempotent Expand changed the set: %+v", again)
	}
}

func TestGroupExpandRequiresReachablePrimary(t *testing.T) {
	env := newReplicaEnv(t)
	ep, _ := env.addHostNode(t)
	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)
	if err := env.servers["p"].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Expand(context.Background(), ep); err == nil {
		t.Fatal("Expand succeeded with a dead primary")
	}
}

func TestGroupShrinkRemovesBackup(t *testing.T) {
	env := newReplicaEnv(t)
	g := Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)

	set, err := g.Shrink(context.Background(), "inproc:b2")
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if set.Primary != "inproc:p" || len(set.Backups) != 1 || set.Backups[0] != "inproc:b1" {
		t.Fatalf("shrunk set = %+v", set)
	}
	if published := env.agent.Set(env.loid); published.Contains("inproc:b2") {
		t.Fatalf("published set still contains the removed member: %+v", published)
	}

	// Writes after the shrink reach the survivor, not the removed member.
	if _, err := env.call("inproc:p", "set", setArgs("k", "v")); err != nil {
		t.Fatal(err)
	}
	if got := getValue(t, env.inners["b1"], "k"); got != "v" {
		t.Fatalf("survivor state = %q, want v", got)
	}
	if got := getValue(t, env.inners["b2"], "k"); got != "" {
		t.Fatalf("removed member still receives shipments: %q", got)
	}

	// The primary cannot be shrunk away; a non-member shrink is a no-op.
	if _, err := g.Shrink(context.Background(), "inproc:p"); err == nil {
		t.Fatal("Shrink removed the primary")
	}
	if again, err := g.Shrink(context.Background(), "inproc:zzz"); err != nil || len(again.Backups) != 1 {
		t.Fatalf("non-member Shrink = %+v, %v", again, err)
	}
}

func TestHostServiceIdempotentAdd(t *testing.T) {
	env := newReplicaEnv(t)
	ep, hs := env.addHostNode(t)
	ctx := context.Background()
	args := HostAddArgs{LOID: env.loid, Epoch: 5}
	for i := 0; i < 2; i++ {
		if _, err := MethodHostAdd.CallAt(ctx, env.net.Dialer(), ep, rpc.ReplicaHostLOID, time.Second, args); err != nil {
			t.Fatalf("add #%d: %v", i+1, err)
		}
	}
	rep, ok := hs.Hosted(env.loid)
	if !ok {
		t.Fatal("nothing hosted after add")
	}
	if rep.CurrentRole() != RoleBackup || rep.Epoch() != 5 {
		t.Fatalf("hosted member role=%v epoch=%d, want backup at epoch 5", rep.CurrentRole(), rep.Epoch())
	}

	// A node without a factory refuses politely.
	bare := &HostService{}
	if _, err := bare.InvokeMethod(MethodHostAdd.Name, MethodHostAdd.Args.Encode(args)); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("factory-less add err = %v, want ErrNoSuchFunction", err)
	}
}

func TestReplReadServedOnAnyRole(t *testing.T) {
	env := newReplicaEnv(t)
	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); err != nil {
		t.Fatal(err)
	}

	// A wrapped read is served by primary and backups alike.
	for _, ep := range []string{"inproc:p", "inproc:b1", "inproc:b2"} {
		out, err := callAt(env, ep, MethodRead, rpc.ReadArgs{Method: "get", Args: wireString("k")})
		if err != nil {
			t.Fatalf("repl.read on %s: %v", ep, err)
		}
		v, _ := wire.NewDecoder(out).Bytes()
		if string(v) != "v1" {
			t.Fatalf("repl.read on %s = %q, want v1", ep, v)
		}
	}

	// A wrapped mutation trips the generation guard — loudly, not silently.
	if _, err := callAt(env, "inproc:b1", MethodRead, rpc.ReadArgs{Method: "set", Args: setArgs("k", "x")}); err == nil {
		t.Fatal("repl.read let a mutation through on a backup")
	}

	// On the primary the same wrapped mutation is a dynamic call: it is not
	// refused, it commits to the group like any write, so nothing diverges.
	if _, err := callAt(env, "inproc:p", MethodRead, rpc.ReadArgs{Method: "set", Args: setArgs("k", "v2")}); err != nil {
		t.Fatalf("repl.read carrying a write on the primary: %v", err)
	}
	env.converged(t, "p", "b1", "b2")
	if v := getValue(t, env.inners["b1"], "k"); v != "v2" {
		t.Fatalf("b1 holds k = %q after the primary committed v2", v)
	}

	// Replication-plane and control methods may not ride the wrapper.
	for _, inner := range []string{MethodShip.Name, "dcdo.version"} {
		if _, err := callAt(env, "inproc:b1", MethodRead, rpc.ReadArgs{Method: inner}); !errors.Is(err, rpc.ErrBadRequest) {
			t.Fatalf("repl.read(%s) err = %v, want ErrBadRequest", inner, err)
		}
	}
}

// Idempotent batch sub-calls route like InvokeIdempotent: under a
// backup-ok policy a 16-read batch spreads over the primary and both
// backups, each member's share in its own frame, and every read answers.
func TestIdempotentBatchReadsOffBackups(t *testing.T) {
	env := newReplicaEnv(t)
	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); err != nil {
		t.Fatal(err)
	}
	env.converged(t, "p", "b1", "b2")
	env.agent.RegisterPolicy(env.loid, policy.DistributionPolicy{Degree: 3,
		ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual})
	client := rpc.NewClient(naming.NewCache(env.agent, vclock.Real{}, 0), env.net.Dialer())

	b := client.NewBatch()
	for i := 0; i < 16; i++ {
		b.AddIdempotent(env.loid, "get", wireString("k"))
	}
	for i, r := range b.Invoke(context.Background()) {
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if v, _ := wire.NewDecoder(r.Payload).Bytes(); string(v) != "v1" {
			t.Fatalf("read %d = %q, want v1", i, v)
		}
	}
	st := client.Stats()
	if st.BackupReads == 0 || st.BackupReads == 16 {
		t.Fatalf("backups served %d of 16 reads, want them spread over the group", st.BackupReads)
	}
	if st.Batches != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want one frame per member and no errors", st)
	}
}

func TestSyncToPrimaryOnly(t *testing.T) {
	env := newReplicaEnv(t)
	if _, err := callAt(env, "inproc:b1", MethodSyncTo, "inproc:b2"); !errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("syncTo on a backup err = %v, want ErrNotPrimary", err)
	}
}
