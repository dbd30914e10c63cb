package replica

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// Delta-shipping tests. Each drives a group through one disturbance of the
// shipment stream and ends on the property the protocol exists for: every
// member's State().Encode() is byte-identical to the primary's.

func (e *replicaEnv) status(t *testing.T, name string) Status {
	t.Helper()
	st, err := callAt(e, "inproc:"+name, MethodStatus, rpc.None{})
	if err != nil {
		t.Fatalf("status of %s: %v", name, err)
	}
	return st
}

func (e *replicaEnv) mustSet(t *testing.T, primary, k, v string) {
	t.Helper()
	if _, err := e.call("inproc:"+primary, "set", setArgs(k, v)); err != nil {
		t.Fatalf("set %s=%s on %s: %v", k, v, primary, err)
	}
}

// shipped runs write and returns how the named primary's shipment counters
// moved across it.
func (e *replicaEnv) shipped(primary string, write func()) Stats {
	before := e.members[primary].Stats()
	write()
	after := e.members[primary].Stats()
	return Stats{
		ShipsDelta:    after.ShipsDelta - before.ShipsDelta,
		ShipsFull:     after.ShipsFull - before.ShipsFull,
		ShipFallbacks: after.ShipFallbacks - before.ShipFallbacks,
		ShipBytes:     after.ShipBytes - before.ShipBytes,
	}
}

// converged asserts the named members hold byte-identical state.
func (e *replicaEnv) converged(t *testing.T, names ...string) {
	t.Helper()
	want := e.inners[names[0]].st.Encode()
	for _, name := range names[1:] {
		if got := e.inners[name].st.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s diverged from %s:\n got %q\nwant %q", name, names[0], got, want)
		}
	}
}

// seedResident puts a 4 KiB value beside the keys the tests write, so a full
// image and a delta are told apart by size as well as by counter.
func (e *replicaEnv) seedResident(t *testing.T, primary string) {
	t.Helper()
	e.mustSet(t, primary, "resident", strings.Repeat("r", 4096))
}

func TestShipsDeltaOnceAcknowledged(t *testing.T) {
	env := newReplicaEnv(t)

	// The first shipment has no acknowledged base: a full image to each.
	if got := env.shipped("p", func() { env.seedResident(t, "p") }); got.ShipsFull != 2 || got.ShipsDelta != 0 {
		t.Fatalf("first shipment = %+v, want 2 full", got)
	}
	// From then on a write ships the key it changed, not the resident 4 KiB.
	got := env.shipped("p", func() { env.mustSet(t, "p", "k", "v1") })
	if got.ShipsDelta != 2 || got.ShipsFull != 0 || got.ShipFallbacks != 0 {
		t.Fatalf("second shipment = %+v, want 2 deltas", got)
	}
	if got.ShipBytes > 100 {
		t.Fatalf("two deltas of one small key weigh %d B", got.ShipBytes)
	}
	if st := env.status(t, "p"); st.AckSeq != 2 || st.Seq != 2 {
		t.Fatalf("primary status = %+v, want seq 2 acknowledged", st)
	}
	env.converged(t, "p", "b1", "b2")

	// A deletion travels as a tombstone.
	env.inners["p"].st.Delete("resident")
	env.mustSet(t, "p", "k", "v2")
	if _, ok := env.inners["b1"].st.Get("resident"); ok {
		t.Fatal("backup kept a key the primary deleted")
	}
	env.converged(t, "p", "b1", "b2")
}

func TestDroppedShipmentSpannedByNextDelta(t *testing.T) {
	env := newReplicaEnv(t)
	env.seedResident(t, "p")

	// b1 never receives the next shipment; b2 does. The write is not acked.
	env.faults.SetEndpoint("inproc:b1", transport.FaultConfig{DropRequest: 1, Budget: 1})
	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("write with a dropped shipment err = %v, want ErrUnavailable", err)
	}
	if st := env.status(t, "p"); st.AckSeq != 1 {
		t.Fatalf("ackSeq = %d after a failed shipment, want 1 (unchanged)", st.AckSeq)
	}

	// The next delta still builds on shipment 1, which both hold (b2 holds
	// more), so neither needs a full image.
	got := env.shipped("p", func() { env.mustSet(t, "p", "k2", "v2") })
	if got.ShipsDelta != 2 || got.ShipFallbacks != 0 {
		t.Fatalf("shipment after a drop = %+v, want 2 deltas, no fallback", got)
	}
	env.converged(t, "p", "b1", "b2")
}

func TestLostAckLeavesBackupAheadOfBase(t *testing.T) {
	env := newReplicaEnv(t)
	env.seedResident(t, "p")

	// b1 applies the shipment but its acknowledgement is lost.
	env.faults.SetEndpoint("inproc:b1", transport.FaultConfig{DropResponse: 1, Budget: 1})
	if _, err := env.call("inproc:p", "set", setArgs("k", "v1")); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("write with a lost ack err = %v, want ErrUnavailable", err)
	}
	if p, b := env.status(t, "p"), env.status(t, "b1"); p.AckSeq != 1 || b.Seq != 2 {
		t.Fatalf("primary ackSeq=%d backup seq=%d, want backup ahead (1, 2)", p.AckSeq, b.Seq)
	}

	got := env.shipped("p", func() { env.mustSet(t, "p", "k", "v2") })
	if got.ShipsDelta != 2 || got.ShipFallbacks != 0 {
		t.Fatalf("shipment after a lost ack = %+v, want 2 deltas, no fallback", got)
	}
	env.converged(t, "p", "b1", "b2")
}

func TestBackupBehindBaseGetsFullImage(t *testing.T) {
	env := newReplicaEnv(t)
	o := obs.New()
	env.members["p"].SetObs(o)
	env.seedResident(t, "p")
	env.mustSet(t, "p", "k", "v1")

	// A "read" that writes is refused, and leaves b1 holding state no
	// shipment produced — it stops vouching for any base.
	if _, err := callAt(env, "inproc:b1", MethodRead, rpc.ReadArgs{Method: "set", Args: setArgs("rogue", "x")}); err == nil {
		t.Fatal("mutating repl.read accepted")
	}
	if st := env.status(t, "b1"); st.Seq != 0 {
		t.Fatalf("b1 still vouches for seq %d after a rogue mutation", st.Seq)
	}

	// The next delta is refused by b1 alone, which gets the whole state in
	// the same call; the write succeeds and the rogue key is gone.
	got := env.shipped("p", func() { env.mustSet(t, "p", "k", "v2") })
	if got.ShipsDelta != 2 || got.ShipsFull != 1 || got.ShipFallbacks != 1 {
		t.Fatalf("shipment to a backup behind base = %+v, want 2 deltas + 1 full fallback", got)
	}
	env.converged(t, "p", "b1", "b2")

	var fallbacks []obs.Event
	for _, ev := range o.Events.Recent(0) {
		if ev.Kind == "ship-fallback" {
			fallbacks = append(fallbacks, ev)
		}
	}
	if len(fallbacks) != 1 || fallbacks[0].Detail != "backup=inproc:b1 base=2 held=0" {
		t.Fatalf("ship-fallback events = %+v", fallbacks)
	}

	// Both are back on deltas.
	if got := env.shipped("p", func() { env.mustSet(t, "p", "k", "v3") }); got.ShipsDelta != 2 || got.ShipsFull != 0 {
		t.Fatalf("shipment after the fallback = %+v, want 2 deltas", got)
	}
	env.converged(t, "p", "b1", "b2")
}

// TestDemotedMidCallDoesNotAck: a primary demoted between executing a write
// and shipping it has committed nothing, so it must not answer success —
// the write would be acknowledged and then overwritten by the new era.
func TestDemotedMidCallDoesNotAck(t *testing.T) {
	env := newReplicaEnv(t)
	env.seedResident(t, "p")
	env.inners["p"].duringSet = func() {
		if _, err := callAt(env, "inproc:p", MethodDemote, 2); err != nil {
			t.Errorf("demote mid-call: %v", err)
		}
	}
	if _, err := env.call("inproc:p", "set", setArgs("k", "lost")); !errors.Is(err, rpc.ErrNotPrimary) {
		t.Fatalf("write on a primary demoted mid-call err = %v, want ErrNotPrimary", err)
	}
	env.inners["p"].duringSet = nil

	// The new era's first shipment replaces the uncommitted write.
	if _, err := callAt(env, "inproc:b1", MethodPromote, PromoteArgs{Epoch: 2, Backups: []string{"inproc:b2", "inproc:p"}}); err != nil {
		t.Fatal(err)
	}
	env.mustSet(t, "b1", "k2", "v")
	if got := getValue(t, env.inners["p"], "k"); got != "" {
		t.Fatalf("uncommitted write survived on the demoted primary: %q", got)
	}
	env.converged(t, "b1", "b2", "p")
}

// TestDemotedMidReadStillAnswers: the same demotion across a call that
// changed nothing loses nothing, so the read it served stands.
func TestDemotedMidReadStillAnswers(t *testing.T) {
	env := newReplicaEnv(t)
	env.mustSet(t, "p", "k", "v")
	env.inners["p"].duringGet = func() {
		if _, err := callAt(env, "inproc:p", MethodDemote, 2); err != nil {
			t.Errorf("demote mid-call: %v", err)
		}
	}
	out, err := env.call("inproc:p", "get", wireString("k"))
	if err != nil {
		t.Fatalf("read on a primary demoted mid-call: %v", err)
	}
	if v, _ := wire.NewDecoder(out).Bytes(); string(v) != "v" {
		t.Fatalf("read = %q, want v", v)
	}
	env.converged(t, "p", "b1", "b2")
}

func TestReadDuringShipmentNotRefused(t *testing.T) {
	env := newReplicaEnv(t)
	env.seedResident(t, "p")

	// Writers keep shipments landing on b1 while readers read through it:
	// the guard must charge those generation bumps to the shipments.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			if _, err := env.call("inproc:p", "set", setArgs("k", "v")); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := callAt(env, "inproc:b1", MethodRead, rpc.ReadArgs{Method: "get", Args: wireString("k")}); err != nil {
			t.Errorf("read %d refused mid-shipment: %v", i, err)
			break
		}
	}
	cancel()
	wg.Wait()
	if got := env.members["p"].Stats().ShipFallbacks; got != 0 {
		t.Fatalf("%d fallbacks: a clean read made b1 disown its state", got)
	}
	env.converged(t, "p", "b1", "b2")
}

func TestFirstShipmentAfterReconfigurationIsFull(t *testing.T) {
	ctx := context.Background()
	attach := func(env *replicaEnv) *Group {
		return Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)
	}
	// Each case disturbs a group that is mid-stream on deltas, and names
	// the primary afterwards and the members that must then converge.
	cases := []struct {
		name    string
		disturb func(t *testing.T, env *replicaEnv) (primary string, members []string)
	}{
		{"promote", func(t *testing.T, env *replicaEnv) (string, []string) {
			if _, err := attach(env).Promote(ctx, "inproc:b1", true); err != nil {
				t.Fatal(err)
			}
			return "b1", []string{"b1", "p", "b2"}
		}},
		{"failover", func(t *testing.T, env *replicaEnv) (string, []string) {
			if err := env.servers["p"].Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := attach(env).Failover(ctx); err != nil {
				t.Fatal(err)
			}
			return "b1", []string{"b1", "b2"}
		}},
		{"expand", func(t *testing.T, env *replicaEnv) (string, []string) {
			ep, hs := env.addHostNode(t)
			if _, err := attach(env).Expand(ctx, ep); err != nil {
				t.Fatal(err)
			}
			rep, _ := hs.Hosted(env.loid)
			env.members["n"], env.inners["n"] = rep, rep.inner.(*fakeInner)
			env.converged(t, "p", "n") // seeded by syncTo before any write
			return "p", []string{"p", "b1", "b2", "n"}
		}},
		{"shrink", func(t *testing.T, env *replicaEnv) (string, []string) {
			if _, err := attach(env).Shrink(ctx, "inproc:b2"); err != nil {
				t.Fatal(err)
			}
			return "p", []string{"p", "b1"}
		}},
		{"fenced", func(t *testing.T, env *replicaEnv) (string, []string) {
			// b1 takes over at epoch 2 keeping p as a backup, but p is not
			// told. Its next write is fenced by b2 and stays local.
			if _, err := callAt(env, "inproc:b1", MethodPromote, PromoteArgs{Epoch: 2, Backups: []string{"inproc:b2", "inproc:p"}}); err != nil {
				t.Fatal(err)
			}
			if _, err := callAt(env, "inproc:b2", MethodDemote, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := env.call("inproc:p", "set", setArgs("uncommitted", "x")); !errors.Is(err, rpc.ErrNotPrimary) {
				t.Fatalf("deposed primary err = %v, want ErrNotPrimary", err)
			}
			return "b1", []string{"b1", "b2", "p"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newReplicaEnv(t)
			env.seedResident(t, "p")
			if got := env.shipped("p", func() { env.mustSet(t, "p", "k", "v1") }); got.ShipsDelta != 2 {
				t.Fatalf("not on deltas before the disturbance: %+v", got)
			}

			primary, members := tc.disturb(t, env)
			backups := uint64(len(members) - 1)
			got := env.shipped(primary, func() { env.mustSet(t, primary, "k", "v2") })
			if got.ShipsFull != backups || got.ShipsDelta != 0 {
				t.Fatalf("first shipment after %s = %+v, want %d full", tc.name, got, backups)
			}
			env.converged(t, members...)

			got = env.shipped(primary, func() { env.mustSet(t, primary, "k", "v3") })
			if got.ShipsDelta != backups || got.ShipsFull != 0 {
				t.Fatalf("second shipment after %s = %+v, want %d deltas", tc.name, got, backups)
			}
			env.converged(t, members...)
		})
	}
}

// TestRestoreOnPrimaryUnderWrites restores a captured image into a real
// core.DCDO that is the primary of a group while writers keep calling it.
// The restore replaces the state in place, so the replica keeps shipping
// from the container it knows, and every delta base before the restore is
// void, so the backups get a full image rather than a delta that cannot
// say which keys the restore dropped.
func TestRestoreOnPrimaryUnderWrites(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Register("kv:1", registry.NativeImplType, map[string]registry.Func{
		"set": func(c registry.Caller, args []byte) ([]byte, error) {
			dec := wire.NewDecoder(args)
			k, _ := dec.String()
			v, _ := dec.Bytes()
			c.State().Set(k, v)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: "kv", Revision: 1, CodeRef: "kv:1", Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{{Name: "set", Exported: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ico := naming.LOID{Domain: 3, Class: 9, Instance: 1}
	fetcher := component.FetcherFunc(func(naming.LOID) (*component.Component, error) { return comp, nil })
	desc := dfm.NewDescriptor()
	desc.Components["kv"] = dfm.ComponentRef{ICO: ico, CodeRef: "kv:1", Impl: registry.NativeImplType, CodeSize: 64, Revision: 1}
	desc.Entries = []dfm.EntryDesc{{Function: "set", Component: "kv", Exported: true, Enabled: true}}

	loid := naming.LOID{Domain: 3, Class: 1, Instance: 2}
	net := transport.NewInprocNetwork()
	endpoints := []string{"inproc:r0", "inproc:r1", "inproc:r2"}
	objs := make([]*core.DCDO, len(endpoints))
	for i, ep := range endpoints {
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
			t.Fatal(err)
		}
		role, backups := RoleBackup, []string(nil)
		if i == 0 {
			role, backups = RolePrimary, endpoints[1:]
		}
		disp := rpc.NewDispatcher()
		disp.Host(loid, New(loid, obj, net.Dialer(), role, 1, backups))
		if _, err := net.Listen(strings.TrimPrefix(ep, "inproc:"), disp); err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}
	set := func(k, v string) error {
		_, err := rpc.DirectCall(context.Background(), net.Dialer(), endpoints[0], loid, "set", setArgs(k, v), 0)
		return err
	}

	// The image to restore holds one key; the live state grows others that
	// the restore must make disappear from the backups too.
	if err := set("kept", "v"); err != nil {
		t.Fatal(err)
	}
	image, err := objs[0].CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := set("dropped", "v"); err != nil {
		t.Fatal(err)
	}
	state := objs[0].State()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 50; i++ {
				if err := set(key, strings.Repeat("x", i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := objs[0].RestoreState(image); err != nil {
			t.Errorf("restore %d: %v", i, err)
		}
	}
	wg.Wait()
	if objs[0].State() != state {
		t.Fatal("RestoreState swapped the state container instead of restoring in place")
	}

	gen := state.Generation()
	if err := objs[0].RestoreState(image); err != nil {
		t.Fatal(err)
	}
	if state.Generation() <= gen {
		t.Fatal("RestoreState restarted the generation counter")
	}
	if err := set("after", "v"); err != nil {
		t.Fatal(err)
	}
	want := state.Encode()
	if keys := state.Keys(); len(keys) != 2 || keys[0] != "after" || keys[1] != "kept" {
		t.Fatalf("primary keys after restore = %v, want [after kept]", keys)
	}
	for i, obj := range objs[1:] {
		if got := obj.State().Encode(); !bytes.Equal(got, want) {
			t.Fatalf("backup %d diverged after restore:\n got %q\nwant %q", i+1, got, want)
		}
	}
}

// lateDialer stands for a dialer that breaks the Dialer contract on a
// failure path: the one call it is armed for fails as a timeout but keeps
// the request's payload by reference, to deliver it after the caller has
// moved on, as if the network still held the frame.
type lateDialer struct {
	transport.Dialer

	mu       sync.Mutex
	armed    string // endpoint whose next call is held back
	heldAt   string
	held     []byte // the payload, by reference
	snapshot []byte // a copy taken when it was held
}

func (d *lateDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	d.mu.Lock()
	if endpoint == d.armed {
		d.armed = ""
		d.heldAt, d.held, d.snapshot = endpoint, req.Payload, bytes.Clone(req.Payload)
		d.mu.Unlock()
		return nil, &transport.CallError{Class: transport.RetryAmbiguous, Err: transport.ErrTimeout}
	}
	d.mu.Unlock()
	return d.Dialer.Call(ctx, endpoint, req, timeout)
}

// deliver hands the held payload to its endpoint and reports whether it
// still reads as it did when it was held.
func (d *lateDialer) deliver(loid naming.LOID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _ = MethodShip.CallAt(context.Background(), d.Dialer, d.heldAt, loid, time.Second, d.held)
	return bytes.Equal(d.held, d.snapshot)
}

// TestDroppedShipmentFrameNotReused drops a shipment and then sends a good
// one. The primary reuses one frame buffer across shipments, but never
// after a failed one: a dialer may still hold the failed frame (here one
// that delivers it late), and rewriting it would turn that stale shipment
// into a different one. The stale frame must arrive as it was sent. Every
// member must end byte-converged.
func TestDroppedShipmentFrameNotReused(t *testing.T) {
	env := newReplicaEnv(t)
	env.seedResident(t, "p")
	p := env.members["p"]
	late := &lateDialer{Dialer: p.dialer, armed: "inproc:b1"}
	p.dialer = late

	// A long value, so the next shipment's frame fits in this one's buffer.
	if _, err := env.call("inproc:p", "set", setArgs("k", strings.Repeat("v", 64))); !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("write with a dropped shipment err = %v, want ErrUnavailable", err)
	}
	env.mustSet(t, "p", "k", "short")
	if !late.deliver(env.loid) {
		t.Fatal("the dropped shipment's frame was rewritten after its shipment failed")
	}
	if st := env.status(t, "b1"); st.Seq != 3 {
		t.Fatalf("b1 holds seq %d after the late delivery, want 3", st.Seq)
	}
	env.converged(t, "p", "b1", "b2")
}
