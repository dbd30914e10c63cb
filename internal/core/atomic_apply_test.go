package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// shapedType is the benchmark's object type (benchmark/cluster.go): ten
// components of ten echo functions in version 1; version 1.1 disables one
// leaf per component and adds five components of two functions. On top of
// that shape it carries the two reconfigurations a per-mutation publish
// exposes: "pick", a mandatory function implemented in c0 and c1 whose
// enabled implementation moves from one to the other, and c9, which version
// 1.1 replaces by a new revision (removed and re-incorporated by the apply).
type shapedType struct {
	reg        *registry.Registry
	fetcher    component.Fetcher
	base, next *dfm.Descriptor
	stable     []string // enabled and exported in both versions
}

func newShapedType(t *testing.T) *shapedType {
	t.Helper()
	st := &shapedType{reg: registry.New(), base: dfm.NewDescriptor()}
	echo := func(_ registry.Caller, args []byte) ([]byte, error) { return args, nil }
	comps := make(map[naming.LOID]*component.Component)
	icos := naming.NewAllocator(9, 1)
	add := func(desc *dfm.Descriptor, id string, revision uint64, names []string) {
		t.Helper()
		codeRef := fmt.Sprintf("%s:%d", id, revision)
		funcs := make(map[string]registry.Func, len(names))
		decls := make([]component.FunctionDecl, len(names))
		for i, name := range names {
			funcs[name] = echo
			decls[i] = component.FunctionDecl{Name: name, Exported: true}
		}
		if _, err := st.reg.Register(codeRef, registry.NativeImplType, funcs); err != nil {
			t.Fatal(err)
		}
		comp, err := component.NewSynthetic(component.Descriptor{
			ID: id, Revision: revision, CodeRef: codeRef, Impl: registry.NativeImplType,
			CodeSize: int64(len(names)) << 10, Functions: decls,
		})
		if err != nil {
			t.Fatal(err)
		}
		ico := icos.Next()
		comps[ico] = comp
		desc.Components[id] = dfm.ComponentRef{
			ICO: ico, CodeRef: codeRef, Impl: registry.NativeImplType,
			CodeSize: comp.Desc.CodeSize, Revision: revision,
		}
		for _, name := range names {
			desc.Entries = append(desc.Entries, dfm.EntryDesc{
				Function: name, Component: id, Exported: true, Enabled: true,
			})
		}
	}
	leaves := func(c int) []string {
		names := make([]string, 10)
		for j := range names {
			names[j] = fmt.Sprintf("c%d_f%d", c, j)
		}
		return names
	}
	for c := 0; c < 10; c++ {
		names := leaves(c)
		st.stable = append(st.stable, names[:9]...)
		if c < 2 {
			names = append(names, "pick")
		}
		add(st.base, fmt.Sprintf("c%d", c), 1, names)
	}
	st.stable = append(st.stable, "pick")
	pick0 := st.base.Entry(dfm.EntryKey{Function: "pick", Component: "c0"})
	pick1 := st.base.Entry(dfm.EntryKey{Function: "pick", Component: "c1"})
	pick0.Mandatory, pick1.Mandatory = true, true
	pick1.Enabled = false

	st.next = st.base.Clone()
	st.next.Entry(pick0.Key()).Enabled = false
	st.next.Entry(pick1.Key()).Enabled = true
	for c := 0; c < 10; c++ {
		st.next.Entry(dfm.EntryKey{Function: fmt.Sprintf("c%d_f9", c), Component: fmt.Sprintf("c%d", c)}).Enabled = false
	}
	for x := 0; x < 5; x++ {
		add(st.next, fmt.Sprintf("x%d", x), 1, []string{fmt.Sprintf("x%d_f0", x), fmt.Sprintf("x%d_f1", x)})
	}
	// c9 at revision 2: same functions, new code.
	kept := st.next.Entries[:0]
	for _, e := range st.next.Entries {
		if e.Component != "c9" {
			kept = append(kept, e)
		}
	}
	st.next.Entries = kept
	add(st.next, "c9", 2, leaves(9))
	st.next.Entry(dfm.EntryKey{Function: "c9_f9", Component: "c9"}).Enabled = false

	st.fetcher = component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		c, ok := comps[ico]
		if !ok {
			return nil, fmt.Errorf("shaped type: no component at %s", ico)
		}
		return c, nil
	})
	for _, d := range []*dfm.Descriptor{st.base, st.next} {
		if err := d.ValidateInstantiable(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func (st *shapedType) instantiate(t *testing.T) *DCDO {
	t.Helper()
	// RemoveDelay: replacing c9 waits out a caller that happens to be inside
	// it instead of refusing the apply, as the default policy would.
	d := New(Config{
		LOID: naming.LOID{Domain: 1, Class: 1, Instance: 1}, Registry: st.reg, Fetcher: st.fetcher,
		RemovalPolicy: RemoveDelay,
	})
	if _, err := d.ApplyDescriptor(context.Background(), st.base, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestApplyNeverExposesAnIntermediateTable pins ApplyDescriptor's contract:
// through 200 alternating base ⇄ next applies, callers hammering every
// function enabled in both versions — the mandatory one whose implementation
// moves and the nine whose component is replaced included — never find one
// disabled or unknown, and Interface() is always exactly one version's set.
// Run under -race (make race).
func TestApplyNeverExposesAnIntermediateTable(t *testing.T) {
	st := newShapedType(t)
	targets := []*dfm.Descriptor{st.next, st.base}
	hammerApplies(t, st, func(d *DCDO, i int) error {
		_, err := d.ApplyDescriptor(context.Background(), targets[i%2], shapedVersions[i%2])
		return err
	})
}

// TestPlannedApplyNeverExposesAnIntermediateTable is the same contract on
// the plan route: 200 alternating ApplyPlan calls, each a change planned once
// for its version pair.
func TestPlannedApplyNeverExposesAnIntermediateTable(t *testing.T) {
	st := newShapedType(t)
	changes := []*dfm.Change{
		dfm.NewChange(st.base, st.next),
		dfm.NewChange(st.next, st.base),
	}
	hammerApplies(t, st, func(d *DCDO, i int) error {
		_, err := d.ApplyPlan(context.Background(), PlanArgs{From: shapedVersions[(i+1)%2], To: shapedVersions[i%2], Change: changes[i%2]})
		return err
	})
}

// shapedVersions are the versions apply i alternates between: 1.1, then 1.
var shapedVersions = []version.ID{{1, 1}, {1}}

// hammerApplies runs apply(d, i) for i in [0, 200) on a fresh version-1
// object while callers hammer it, and holds each apply to one publish and
// every caller to one version's table or the other's.
func hammerApplies(t *testing.T, st *shapedType, apply func(d *DCDO, i int) error) {
	d := st.instantiate(t)
	ifaces := [][]string{st.base.Interface(), st.next.Interface()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := st.stable[i%len(st.stable)]
				if _, err := d.InvokeMethod(name, nil); err != nil {
					t.Errorf("%s during an apply: %v", name, err)
					if errors.Is(err, rpc.ErrFunctionDisabled) || errors.Is(err, rpc.ErrNoSuchFunction) {
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := d.Interface()
			if !reflect.DeepEqual(got, ifaces[0]) && !reflect.DeepEqual(got, ifaces[1]) {
				t.Errorf("Interface() returned %d functions: neither version 1 (%d) nor 1.1 (%d)",
					len(got), len(ifaces[0]), len(ifaces[1]))
				return
			}
		}
	}()

	for i := 0; i < 200; i++ {
		before := d.DFM().Publishes()
		if err := apply(d, i); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if got := d.DFM().Publishes() - before; got != 1 {
			t.Fatalf("apply %d published %d snapshots, want 1", i, got)
		}
	}
	close(stop)
	wg.Wait()
	if !d.Snapshot().Equivalent(st.base) {
		t.Fatal("object not back at version 1 after an even number of applies")
	}
}

// TestApplyFailureInsideTransactionPublishesOnce: a target that only turns
// out to be wrong while the transaction runs (it flags an entry its own
// component does not declare) leaves what was staged — published once, the
// version unchanged, every function the failed step had not reached still
// serving.
func TestApplyFailureInsideTransactionPublishesOnce(t *testing.T) {
	st := newShapedType(t)
	d := st.instantiate(t)
	bad := st.next.Clone()
	bad.Entries = append(bad.Entries, dfm.EntryDesc{Function: "undeclared", Component: "x4", Exported: true})
	before := d.DFM().Publishes()
	_, err := d.ApplyDescriptor(context.Background(), bad, version.ID{1, 1})
	if !errors.Is(err, dfm.ErrUnknownEntry) {
		t.Fatalf("err = %v, want ErrUnknownEntry", err)
	}
	if got := d.DFM().Publishes() - before; got != 1 {
		t.Fatalf("failed apply published %d snapshots, want 1", got)
	}
	if !d.Version().Equal(version.ID{1}) {
		t.Fatalf("version = %s after a failed apply, want 1", d.Version())
	}
	if err := d.Snapshot().Validate(); err != nil {
		t.Fatalf("intermediate configuration is not a valid descriptor: %v", err)
	}
	if _, err := d.InvokeMethod("c3_f0", nil); err != nil {
		t.Fatalf("untouched function after a failed apply: %v", err)
	}
	// Retrying with the right target converges from the intermediate state.
	if _, err := d.ApplyDescriptor(context.Background(), st.next, version.ID{1, 1}); err != nil {
		t.Fatal(err)
	}
	if !d.Snapshot().Equivalent(st.next) {
		t.Fatal("retry did not converge on version 1.1")
	}
}

// TestApplyPreflightFailureTouchesNothing: what can be checked before the
// table is locked is — a component that cannot be fetched fails the apply
// with no snapshot published and the configuration byte-identical.
func TestApplyPreflightFailureTouchesNothing(t *testing.T) {
	st := newShapedType(t)
	d := st.instantiate(t)
	bad := st.next.Clone()
	ref := bad.Components["x4"]
	ref.ICO = naming.LOID{Domain: 9, Class: 9, Instance: 9999}
	bad.Components["x4"] = ref
	image, before := d.Snapshot().Encode(), d.DFM().Publishes()
	if _, err := d.ApplyDescriptor(context.Background(), bad, version.ID{1, 1}); err == nil {
		t.Fatal("apply with an unfetchable component succeeded")
	}
	if got := d.DFM().Publishes() - before; got != 0 {
		t.Fatalf("pre-flight failure published %d snapshots, want 0", got)
	}
	if !reflect.DeepEqual(d.Snapshot().Encode(), image) {
		t.Fatal("pre-flight failure changed the configuration")
	}
}

// TestIncorporatePublishesOncePerComponent: a component enters the table in
// one transaction, and "enable unless another implementation is enabled" is
// answered from that transaction.
func TestIncorporatePublishesOncePerComponent(t *testing.T) {
	f := newFixture(t)
	d := f.newDCDO(t, Config{})
	for _, step := range []struct {
		id          string
		wantEnabled map[string]bool
	}{
		{"mathlib", map[string]bool{"sort": true, "compare": true}},
		{"revlib", map[string]bool{"compare": false}}, // mathlib's compare already serves
	} {
		before := d.DFM().Publishes()
		f.incorporate(t, d, step.id, true)
		if got := d.DFM().Publishes() - before; got != 1 {
			t.Fatalf("incorporating %s published %d snapshots, want 1", step.id, got)
		}
		for fn, want := range step.wantEnabled {
			e, ok := d.DFM().Entry(dfm.EntryKey{Function: fn, Component: step.id})
			if !ok || e.Enabled != want {
				t.Fatalf("%s@%s enabled = %v (present %v), want %v", fn, step.id, e.Enabled, ok, want)
			}
		}
	}
}

// TestIncorporateRefusedByAutoDependencyLeavesNothing: the one refusal that
// can only be decided against the table holding the new entries — an
// auto-installed structural dependency whose callee no enabled function
// provides — takes the entries and the dependencies back out.
func TestIncorporateRefusedByAutoDependencyLeavesNothing(t *testing.T) {
	f := newFixture(t)
	if _, err := f.reg.Register("needy:1", registry.NativeImplType, map[string]registry.Func{
		"ok": hashFunc, "lonely": hashFunc,
	}); err != nil {
		t.Fatal(err)
	}
	f.addComponent(t, component.Descriptor{
		ID: "needy", Revision: 1, CodeRef: "needy:1", Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{
			{Name: "ok", Exported: true, Calls: []string{"hash"}},
			{Name: "lonely", Exported: true, Calls: []string{"absent"}},
		},
	}, naming.LOID{Domain: 1, Class: 9, Instance: 7})
	d := f.newDCDO(t, Config{AutoStructuralDeps: true})
	f.incorporate(t, d, "utillib", true)
	image := d.Snapshot().Encode()

	err := d.Incorporate(context.Background(), f.icos["needy"], true)
	if !errors.Is(err, dfm.ErrDependency) {
		t.Fatalf("err = %v, want ErrDependency", err)
	}
	if !reflect.DeepEqual(d.Snapshot().Encode(), image) {
		t.Fatalf("refused incorporation left entries or dependencies behind:\n%+v", d.Snapshot())
	}
	if got := d.ComponentIDs(); !reflect.DeepEqual(got, []string{"utillib"}) {
		t.Fatalf("components = %v", got)
	}
	// Disabled, the same component is admissible: nothing triggers the premise.
	if err := d.Incorporate(context.Background(), f.icos["needy"], false); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPlanOnlyAtItsSource: a plan is applied only to an object at its
// source version whose table is as that version's stamp left it. Every other
// object refuses it with ErrPlanRefused, untouched — also through the control
// table, where the refusal is a result, not an error — and the full
// descriptor restamps it.
func TestApplyPlanOnlyAtItsSource(t *testing.T) {
	ctx := context.Background()
	st := newShapedType(t)
	d := st.instantiate(t)
	forward := PlanArgs{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(st.base, st.next)}
	back := PlanArgs{From: version.ID{1, 1}, To: version.ID{1}, Change: dfm.NewChange(st.next, st.base)}
	refused := func(what string, a PlanArgs) {
		t.Helper()
		image, before, ver := d.Snapshot().Encode(), d.DFM().Publishes(), d.Version()
		if _, err := d.ApplyPlan(ctx, a); !errors.Is(err, ErrPlanRefused) {
			t.Fatalf("%s: err = %v, want ErrPlanRefused", what, err)
		}
		if res, err := control(d, MethodApplyPlan, a); err != nil || !res.Refused {
			t.Fatalf("%s through the control table = %+v, %v; want refused", what, res, err)
		}
		if d.DFM().Publishes() != before || !d.Version().Equal(ver) || !reflect.DeepEqual(d.Snapshot().Encode(), image) {
			t.Fatalf("%s: a refused plan touched the object", what)
		}
	}

	refused("plan from another version", back)
	if err := d.DisableFunction(dfm.EntryKey{Function: st.stable[0], Component: "c0"}); err != nil {
		t.Fatal(err)
	}
	refused("plan after a direct disable", forward)
	if _, err := d.ApplyDescriptor(ctx, st.base, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyPlan(ctx, forward); err != nil || !d.Snapshot().Equivalent(st.next) {
		t.Fatalf("plan after the full descriptor restamped the object: %v", err)
	}

	bad := st.base.Clone()
	bad.Entries = append(bad.Entries, dfm.EntryDesc{Function: "undeclared", Component: "c9", Exported: true})
	bad.Components["c9"] = dfm.ComponentRef{ICO: st.next.Components["c9"].ICO, CodeRef: "c9:1", Impl: registry.NativeImplType, Revision: 1}
	if _, err := d.ApplyDescriptor(ctx, bad, version.ID{1}); err == nil {
		t.Fatal("apply of a target flagging an undeclared entry succeeded")
	}
	refused("plan after a failed apply", back)

	// A reconfiguration that lands while the plan's arrivals are fetched is
	// caught by the transaction's own check.
	var racer *DCDO
	armed := false
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		if armed {
			if err := racer.DisableFunction(dfm.EntryKey{Function: st.stable[0], Component: "c0"}); err != nil {
				return nil, err
			}
		}
		return st.fetcher.Fetch(ctx, ico)
	})
	racer = New(Config{LOID: naming.LOID{Domain: 1, Class: 1, Instance: 2}, Registry: st.reg, Fetcher: fetcher})
	if _, err := racer.ApplyDescriptor(ctx, st.base, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	armed = true
	before := racer.DFM().Publishes()
	if _, err := racer.ApplyPlan(ctx, forward); !errors.Is(err, ErrPlanRefused) {
		t.Fatalf("plan with a disable during its fetch: err = %v, want ErrPlanRefused", err)
	}
	if got := racer.DFM().Publishes() - before; got != 1 || !racer.Version().Equal(version.ID{1}) {
		t.Fatalf("plan refused mid-flight: %d publishes (want the disable's 1), version %s", got, racer.Version())
	}
}

// TestSetObsKeepsThePlanStamp: wiring a configured object into obs, as a
// node does when it hosts it, changes no entry, so the object's stamp holds
// and a plan from its version still applies instead of being refused.
func TestSetObsKeepsThePlanStamp(t *testing.T) {
	st := newShapedType(t)
	d := st.instantiate(t)
	d.SetObs(obs.New())
	d.SetObs(nil)
	d.SetObs(obs.NewMetricsOnly())
	forward := PlanArgs{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(st.base, st.next)}
	if _, err := d.ApplyPlan(context.Background(), forward); err != nil || !d.Snapshot().Equivalent(st.next) {
		t.Fatalf("plan after SetObs: %v", err)
	}
}

// TestPlanArgsCodecRoundTrip: a decoded plan re-encodes to the same bytes
// and applies like the one encoded; one whose arriving component carries
// another component's entry is refused.
func TestPlanArgsCodecRoundTrip(t *testing.T) {
	st := newShapedType(t)
	in := PlanArgs{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(st.base, st.next)}
	raw := MethodApplyPlan.Args.Encode(in)
	out, err := MethodApplyPlan.Args.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if again := MethodApplyPlan.Args.Encode(out); !reflect.DeepEqual(again, raw) {
		t.Fatalf("re-encoded plan = %x, want %x", again, raw)
	}
	d := st.instantiate(t)
	if _, err := d.ApplyPlan(context.Background(), out); err != nil || !d.Snapshot().Equivalent(st.next) {
		t.Fatalf("decoded plan did not reach 1.1: %v", err)
	}
	c := *in.Change
	c.Arriving = append([]dfm.Arrival(nil), c.Arriving...)
	c.Arriving[0].Entries = []dfm.EntryDesc{{Function: "f", Component: "elsewhere"}}
	if _, err := MethodApplyPlan.Args.Decode(MethodApplyPlan.Args.Encode(PlanArgs{From: in.From, To: in.To, Change: &c})); !errors.Is(err, dfm.ErrCorruptDescriptor) {
		t.Fatalf("misfiled arriving entry: err = %v, want ErrCorruptDescriptor", err)
	}
}

// TestRestoredObjectRefusesPlans: a capture carries the table as it stood,
// which a direct reconfiguration may have taken away from its version's
// configuration. The restored object therefore refuses plans, and the full
// descriptor takes it to the target — re-enabling the entry disabled by
// hand, which a plan from version 1 would not retune.
func TestRestoredObjectRefusesPlans(t *testing.T) {
	ctx := context.Background()
	st := newShapedType(t)
	d := st.instantiate(t)
	if err := d.DisableFunction(dfm.EntryKey{Function: st.stable[0], Component: "c0"}); err != nil {
		t.Fatal(err)
	}
	capture, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{LOID: naming.LOID{Domain: 1, Class: 1, Instance: 2}, Registry: st.reg, Fetcher: st.fetcher})
	if err := restored.RestoreState(capture); err != nil {
		t.Fatal(err)
	}
	forward := PlanArgs{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(st.base, st.next)}
	if _, err := restored.ApplyPlan(ctx, forward); !errors.Is(err, ErrPlanRefused) {
		t.Fatalf("plan on a restored object: err = %v, want ErrPlanRefused", err)
	}
	if _, err := restored.ApplyDescriptor(ctx, st.next, version.ID{1, 1}); err != nil || !restored.Snapshot().Equivalent(st.next) {
		t.Fatalf("full descriptor after the refusal did not reach 1.1: %v", err)
	}
}
