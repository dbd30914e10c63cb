package core

import (
	"context"

	"errors"
	"reflect"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// snapshotWith returns d's snapshot mutated by fn — a convenient way to
// build evolution targets.
func snapshotWith(d *DCDO, fn func(*dfm.Descriptor)) *dfm.Descriptor {
	snap := d.Snapshot()
	fn(snap)
	return snap
}

func TestApplyDescriptorRetuneSwapsImplementation(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)
	f.incorporate(t, d, "revlib", false)
	d.SetVersion(version.ID{1})

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		desc.Entry(key("compare", "mathlib")).Enabled = false
		desc.Entry(key("compare", "revlib")).Enabled = true
	})
	report, err := d.ApplyDescriptor(context.Background(), target, version.ID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.ComponentsAdded != 0 || report.ComponentsRemoved != 0 || report.ComponentsReplaced != 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.EntriesRetuned != 2 || report.BytesFetched != 0 {
		t.Fatalf("report = %+v", report)
	}
	if !d.Version().Equal(version.ID{1, 1}) {
		t.Fatalf("version = %v", d.Version())
	}
	out, err := d.InvokeMethod("sort", encodeInts([]int64{1, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := decodeInts(out)
	if !reflect.DeepEqual(got, []int64{3, 2, 1}) {
		t.Fatalf("sorted = %v, want descending after evolution", got)
	}
}

func TestApplyDescriptorAddsComponent(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		util := f.comps["utillib"].Desc
		desc.Components["utillib"] = dfm.ComponentRef{
			ICO: f.icos["utillib"], CodeRef: util.CodeRef,
			Impl: util.Impl, CodeSize: util.CodeSize, Revision: util.Revision,
		}
		desc.Entries = append(desc.Entries, dfm.EntryDesc{
			Function: "hash", Component: "utillib", Exported: true, Enabled: true,
		})
	})
	report, err := d.ApplyDescriptor(context.Background(), target, version.ID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.ComponentsAdded != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.BytesFetched != f.comps["utillib"].Desc.CodeSize {
		t.Fatalf("BytesFetched = %d, want %d", report.BytesFetched, f.comps["utillib"].Desc.CodeSize)
	}
	if _, err := d.InvokeMethod("hash", []byte("abc")); err != nil {
		t.Fatalf("hash after evolution: %v", err)
	}
	if got := d.ComponentIDs(); !reflect.DeepEqual(got, []string{"mathlib", "utillib"}) {
		t.Fatalf("components = %v", got)
	}
}

func TestApplyDescriptorRemovesComponent(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)
	f.incorporate(t, d, "utillib", true)

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		delete(desc.Components, "utillib")
		kept := desc.Entries[:0]
		for _, e := range desc.Entries {
			if e.Component != "utillib" {
				kept = append(kept, e)
			}
		}
		desc.Entries = kept
	})
	report, err := d.ApplyDescriptor(context.Background(), target, version.ID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.ComponentsRemoved != 1 || report.ComponentsAdded != 0 {
		t.Fatalf("report = %+v", report)
	}
	if _, err := d.InvokeMethod("hash", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("hash after removal err = %v", err)
	}
}

func TestApplyDescriptorReplacesRevision(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "utillib", true)

	// Publish revision 2 of utillib at a new ICO.
	rev2 := f.comps["utillib"].Desc
	rev2.Revision = 2
	rev2.CodeRef = "utillib:2"
	f.addComponent(t, rev2, naming.LOID{Domain: 1, Class: 9, Instance: 99})
	// addComponent keyed by ID overwrote the fixture maps; that is fine —
	// the target references the new ICO explicitly.

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		ref := desc.Components["utillib"]
		ref.Revision = 2
		ref.CodeRef = "utillib:2"
		ref.ICO = naming.LOID{Domain: 1, Class: 9, Instance: 99}
		desc.Components["utillib"] = ref
	})
	report, err := d.ApplyDescriptor(context.Background(), target, version.ID{2})
	if err != nil {
		t.Fatal(err)
	}
	if report.ComponentsReplaced != 1 || report.ComponentsRemoved != 0 || report.ComponentsAdded != 0 {
		t.Fatalf("report = %+v", report)
	}
	snap := d.Snapshot()
	if snap.Components["utillib"].Revision != 2 {
		t.Fatalf("revision = %d, want 2", snap.Components["utillib"].Revision)
	}
	if _, err := d.InvokeMethod("hash", []byte("x")); err != nil {
		t.Fatalf("hash after replace: %v", err)
	}
}

func TestApplyDescriptorIdempotentOnEquivalentTarget(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)
	d.SetVersion(version.ID{1})

	report, err := d.ApplyDescriptor(context.Background(), d.Snapshot(), version.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	if report != (ApplyReport{}) {
		t.Fatalf("report = %+v, want zero", report)
	}
}

func TestApplyDescriptorFetchFailureLeavesObjectServing(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		desc.Components["ghost"] = dfm.ComponentRef{
			ICO: naming.LOID{Instance: 12345}, CodeRef: "ghost:1",
			Impl: registry.NativeImplType,
		}
		desc.Entries = append(desc.Entries, dfm.EntryDesc{
			Function: "spook", Component: "ghost", Exported: true, Enabled: true,
		})
	})
	if _, err := d.ApplyDescriptor(context.Background(), target, version.ID{9}); err == nil {
		t.Fatal("expected fetch failure")
	}
	// The object keeps serving its previous implementation.
	if _, err := d.InvokeMethod("sort", encodeInts([]int64{2, 1})); err != nil {
		t.Fatalf("object broken after failed evolution: %v", err)
	}
	if d.Version().Equal(version.ID{9}) {
		t.Fatal("version advanced despite failed evolution")
	}
}

// flakyFetcher fails the first n fetches, then delegates.
type flakyFetcher struct {
	failures int
	backing  component.Fetcher
}

func (f *flakyFetcher) Fetch(ctx context.Context, ico naming.LOID) (*component.Component, error) {
	if f.failures > 0 {
		f.failures--
		return nil, errors.New("transient fetch failure")
	}
	return f.backing.Fetch(ctx, ico)
}

func TestApplyDescriptorConvergesAfterTransientFetchFailures(t *testing.T) {
	f := newFixture(t)
	flaky := &flakyFetcher{failures: 2, backing: f.fetcher()}
	d := New(Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: 1},
		Registry: f.reg,
		Fetcher:  flaky,
	})

	// Target: mathlib + utillib, everything enabled.
	target := dfm.NewDescriptor()
	for _, id := range []string{"mathlib", "utillib"} {
		desc := f.comps[id].Desc
		target.Components[id] = dfm.ComponentRef{
			ICO: f.icos[id], CodeRef: desc.CodeRef,
			Impl: desc.Impl, CodeSize: desc.CodeSize, Revision: desc.Revision,
		}
		for _, fn := range desc.Functions {
			target.Entries = append(target.Entries, dfm.EntryDesc{
				Function: fn.Name, Component: id, Exported: fn.Exported, Enabled: true,
			})
		}
	}

	// The evolution fails while the fetcher is flaky; retrying the same
	// apply (the manager's natural recovery) converges once fetches
	// succeed, despite any partial progress earlier attempts made.
	attempts := 0
	for {
		attempts++
		if attempts > 5 {
			t.Fatal("apply never converged")
		}
		if _, err := d.ApplyDescriptor(context.Background(), target, version.ID{2}); err != nil {
			continue
		}
		break
	}
	if attempts < 2 {
		t.Fatalf("flaky fetcher never fired (attempts=%d)", attempts)
	}
	if !d.Snapshot().Equivalent(target) {
		t.Fatal("converged state not equivalent to target")
	}
	if _, err := d.InvokeMethod("sort", encodeInts([]int64{2, 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InvokeMethod("hash", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// --- Remote control plane ---------------------------------------------------

// control calls a control method through d.InvokeMethod, the way the
// dispatcher does: encoded args in, encoded result out.
func control[A, R any](d *DCDO, m rpc.Method[A, R], a A) (R, error) {
	out, err := d.InvokeMethod(m.Name, m.Args.Encode(a))
	if err != nil {
		var zero R
		return zero, err
	}
	return m.Result.Decode(out)
}

func TestControlInterfaceAndVersion(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)
	d.SetVersion(version.ID{2, 1})

	names, err := control(d, MethodInterface, rpc.None{})
	if err != nil || !reflect.DeepEqual(names, []string{"sort"}) {
		t.Fatalf("interface = %v, %v", names, err)
	}
	ver, err := control(d, MethodVersion, rpc.None{})
	if err != nil || !ver.Equal(version.ID{2, 1}) {
		t.Fatalf("version = %v, %v", ver, err)
	}
}

func TestControlSnapshotRoundTrip(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)

	snap, err := control(d, MethodSnapshot, rpc.None{})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equivalent(d.Snapshot()) {
		t.Fatal("remote snapshot not equivalent to local")
	}
}

func TestControlEnableDisable(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)

	if _, err := control(d, MethodDisable, key("sort", "mathlib")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InvokeMethod("sort", nil); !errors.Is(err, rpc.ErrFunctionDisabled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := control(d, MethodEnable, key("sort", "mathlib")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InvokeMethod("sort", encodeInts([]int64{1})); err != nil {
		t.Fatal(err)
	}
}

func TestControlIncorporateAndRemove(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})

	if _, err := control(d, MethodIncorporate, IncorporateArgs{ICO: f.icos["utillib"], Enable: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InvokeMethod("hash", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := control(d, MethodDisable, key("hash", "utillib")); err != nil {
		t.Fatal(err)
	}
	if _, err := control(d, MethodRemoveComponent, "utillib"); err != nil {
		t.Fatal(err)
	}
	if len(d.ComponentIDs()) != 0 {
		t.Fatalf("components = %v", d.ComponentIDs())
	}
}

func TestControlApplyDescriptorRemotely(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	f.incorporate(t, d, "mathlib", true)
	f.incorporate(t, d, "revlib", false)

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		desc.Entry(key("compare", "mathlib")).Enabled = false
		desc.Entry(key("compare", "revlib")).Enabled = true
	})
	report, err := control(d, MethodApplyDescriptor, ApplyArgs{Target: target, Version: version.ID{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if report.EntriesRetuned != 2 {
		t.Fatalf("report = %+v", report)
	}
	if !d.Version().Equal(version.ID{1, 1}) {
		t.Fatalf("version = %v", d.Version())
	}
}

func TestControlBadArgs(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	for _, method := range []string{
		MethodApplyDescriptor.Name, MethodEnable.Name, MethodDisable.Name,
		MethodIncorporate.Name, MethodRemoveComponent.Name,
	} {
		if _, err := d.InvokeMethod(method, nil); !errors.Is(err, rpc.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", method, err)
		}
	}
	if _, err := d.InvokeMethod(ControlPrefix+"bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("unknown control err = %v", err)
	}
}

func TestApplyReportCodecRoundTrip(t *testing.T) {
	in := ApplyReport{ComponentsAdded: 1, ComponentsRemoved: 2, ComponentsReplaced: 3, EntriesRetuned: 4, BytesFetched: 5120}
	e := wire.NewEncoder(32)
	e.PutUvarint(uint64(in.ComponentsAdded))
	e.PutUvarint(uint64(in.ComponentsRemoved))
	e.PutUvarint(uint64(in.ComponentsReplaced))
	e.PutUvarint(uint64(in.EntriesRetuned))
	e.PutVarint(in.BytesFetched)
	if got := MethodApplyDescriptor.Result.Encode(in); !reflect.DeepEqual(got, e.Bytes()) {
		t.Fatalf("encoding = %x, want %x", got, e.Bytes())
	}
	out, err := MethodApplyDescriptor.Result.Decode(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if _, err := MethodApplyDescriptor.Result.Decode([]byte{1}); err == nil {
		t.Fatal("truncated report accepted")
	}
}

// Ensure evolution over the real RPC stack works end to end: a remote
// manager-side caller applies a descriptor to a DCDO hosted behind a
// dispatcher.
func TestApplyDescriptorOverRPC(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{LOID: naming.LOID{Domain: 1, Class: 1, Instance: 77}})
	f.incorporate(t, d, "mathlib", true)
	f.incorporate(t, d, "revlib", false)

	env := newRPCEnv(t)
	env.host(d.LOID(), d)

	target := snapshotWith(d, func(desc *dfm.Descriptor) {
		desc.Entry(key("compare", "mathlib")).Enabled = false
		desc.Entry(key("compare", "revlib")).Enabled = true
	})
	report, err := MethodApplyDescriptor.Call(context.Background(), env.client, d.LOID(), ApplyArgs{Target: target, Version: version.ID{1, 2}})
	if err != nil || report.EntriesRetuned != 2 {
		t.Fatalf("report = %+v, %v", report, err)
	}

	// And a user call over RPC sees the new behaviour.
	res, err := env.client.Invoke(context.Background(), d.LOID(), "sort", encodeInts([]int64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := decodeInts(res)
	if !reflect.DeepEqual(got, []int64{3, 2, 1}) {
		t.Fatalf("sorted over RPC = %v", got)
	}
}
