package godcdo_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/supervisor"
	"godcdo/internal/testbed"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// The counts below carry the evolution-cost claim (EXPERIMENTS.md E5): an
// evolution's price follows the change because the DFM publishes one snapshot
// per reconfiguration and the journal fsyncs twice per single-instance pass,
// and once per move plus once for done per fleet pass.
// They are exact, so a regression to per-mutation publishing or per-record
// fsyncs fails tier-1 rather than waiting for a benchmark to notice.

func TestOnePublishPerReconfiguration(t *testing.T) {
	obj, base, next := evolvePair(t, "cnt", 100, 10)
	table := obj.DFM()
	publishes := func(what string, want uint64, fn func() error) {
		t.Helper()
		before := table.Publishes()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := table.Publishes() - before; got != want {
			t.Fatalf("%s published %d snapshots, want %d", what, got, want)
		}
	}
	ctx := context.Background()
	publishes("ApplyDescriptor forward", 1, func() error {
		_, err := obj.ApplyDescriptor(ctx, next, version.ID{1, 1})
		return err
	})
	publishes("ApplyDescriptor back", 1, func() error {
		_, err := obj.ApplyDescriptor(ctx, base, version.ID{1})
		return err
	})
	publishes("ApplyDescriptor to the configuration it already has", 0, func() error {
		_, err := obj.ApplyDescriptor(ctx, base, version.ID{1})
		return err
	})

	// A whole object built from nothing is one apply, hence one publish.
	fresh, _, _ := evolvePair(t, "cnt2", 100, 10)
	if got := fresh.DFM().Publishes(); got != 1 {
		t.Fatalf("building a 100-function object published %d snapshots, want 1", got)
	}

	key := dfm.EntryKey{Function: "cnt_f0_0", Component: "cnt_c0"}
	publishes("DisableFunction", 1, func() error { return obj.DisableFunction(key) })
	publishes("EnableFunction", 1, func() error { return obj.EnableFunction(key) })
	publishes("SetFunctionFlags", 1, func() error { return obj.SetFunctionFlags(key, false, false, false) })
	extra := dfm.EntryKey{Function: "cnt_f0_0", Component: "spare"}
	noop := func(registry.Caller, []byte) ([]byte, error) { return nil, nil }
	publishes("DFM.Add", 1, func() error {
		return table.Add(dfm.EntryDesc{Function: extra.Function, Component: extra.Component}, noop)
	})
	publishes("DFM.Remove", 1, func() error { return table.Remove(extra) })
	publishes("DFM.Add", 1, func() error {
		return table.Add(dfm.EntryDesc{Function: extra.Function, Component: extra.Component}, noop)
	})
	publishes("DFM.RemoveComponent", 1, func() error { return table.RemoveComponent(extra.Component) })
}

// TestPublishCostsWhatItTouches: a publish reuses the fast-path row of every
// entry its transaction did not touch, so a one-entry planned apply allocates
// the same on a 1,000-function object as on a 100-function one. The snapshot
// map is still rebuilt per publish, but it is one allocation of any size.
func TestPublishCostsWhatItTouches(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := func(objFuncs int) float64 {
		obj, base, next := evolvePair(t, fmt.Sprintf("pc%d", objFuncs), objFuncs, 1)
		plans := []core.PlanArgs{
			{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(base, next)},
			{From: version.ID{1, 1}, To: version.ID{1}, Change: dfm.NewChange(next, base)},
		}
		i := 0
		return testing.AllocsPerRun(200, func() {
			if _, err := obj.ApplyPlan(context.Background(), plans[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := allocs(100), allocs(1000)
	if large > small+2 || small > large+2 {
		t.Fatalf("a diff = 1 ApplyPlan allocates %.0f at obj = 100 and %.0f at obj = 1000, want the same within 2", small, large)
	}
	if large > 12 {
		t.Fatalf("a diff = 1 ApplyPlan at obj = 1000 allocates %.0f, want at most 12", large)
	}
}

func TestOnePublishPerIncorporatedComponent(t *testing.T) {
	obj, _, next := evolvePair(t, "inc", 100, 10)
	id := "incx_c0"
	ref, ok := next.Components[id]
	if !ok {
		t.Fatalf("next version has no component %q", id)
	}
	before := obj.DFM().Publishes()
	if err := obj.Incorporate(context.Background(), ref.ICO, true); err != nil {
		t.Fatal(err)
	}
	if got := obj.DFM().Publishes() - before; got != 1 {
		t.Fatalf("incorporating a component published %d snapshots, want 1", got)
	}
}

func TestTwoSyncsPerSingleInstancePass(t *testing.T) {
	obj, base, next := evolvePair(t, "jc", 100, 10)
	mgr := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	store := mgr.Store()
	root, err := store.CreateRoot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	child, err := store.Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Configure(child, func(d *dfm.Descriptor) error { *d = *next.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}
	journal, err := manager.OpenJournal(filepath.Join(t.TempDir(), "evolve.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	mgr.SetJournal(journal)
	ctx := context.Background()
	if err := mgr.Adopt(ctx, manager.LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	for _, move := range []struct {
		name string
		run  func() error
	}{
		{"EvolveInstance", func() error { return mgr.EvolveInstance(ctx, obj.LOID(), child) }},
		{"RollbackInstance", func() error { return mgr.RollbackInstance(ctx, obj.LOID(), root) }},
	} {
		before, published := journal.Stats(), obj.DFM().Publishes()
		if err := move.run(); err != nil {
			t.Fatalf("%s: %v", move.name, err)
		}
		after := journal.Stats()
		if after.Records-before.Records != 4 || after.Syncs-before.Syncs != 2 {
			t.Fatalf("%s wrote %d records in %d syncs, want 4 in 2",
				move.name, after.Records-before.Records, after.Syncs-before.Syncs)
		}
		if got := obj.DFM().Publishes() - published; got != 1 {
			t.Fatalf("%s published %d snapshots, want 1", move.name, got)
		}
	}
}

// TestReplicatedMoveSyncsLikeAPlainOne: moving a degree-3 replica group
// (every backup, a promotion, then the deposed primary) journals what moving
// one plain DCDO does, begin, intent, applied and done in two syncs. The
// promotion writes no record: recovery learns the new primary from the
// published set.
func TestReplicatedMoveSyncsLikeAPlainOne(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Name:      "counts-repl",
		Greetings: []testbed.Greeting{{ID: "en", Text: "hello"}, {ID: "fr", Text: "bonjour"}},
		Fleet:     1,
		Groups:    []int{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tb.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx, journal, target := context.Background(), tb.Mgr.Journal(), tb.Versions[1]
	group := tb.Groups[0]
	for _, move := range []struct {
		name string
		loid naming.LOID
	}{{"plain", tb.Fleet[0]}, {"replicated", group.LOID}} {
		before := journal.Stats()
		if err := tb.Mgr.EvolveInstance(ctx, move.loid, target); err != nil {
			t.Fatalf("%s move: %v", move.name, err)
		}
		after := journal.Stats()
		if after.Records-before.Records != 4 || after.Syncs-before.Syncs != 2 {
			t.Fatalf("%s move wrote %d records in %d syncs, want 4 in 2",
				move.name, after.Records-before.Records, after.Syncs-before.Syncs)
		}
	}
	if set := group.Set(); set.Generation != 2 {
		t.Fatalf("replicated move published %+v, want one promotion (generation 2)", set)
	}
}

// versionOnly is a managed instance that holds nothing but its version: the
// fleet row counts journal records, so no DCDO need stand behind it.
type versionOnly struct {
	loid naming.LOID
	mu   sync.Mutex
	ver  version.ID
}

func (i *versionOnly) LOID() naming.LOID { return i.loid }

func (i *versionOnly) Version(context.Context) (version.ID, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ver.Clone(), nil
}

func (i *versionOnly) Apply(_ context.Context, _ *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ver = v.Clone()
	return core.ApplyReport{}, nil
}

func (i *versionOnly) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	return i.Apply(ctx, nil, a.To)
}

func (i *versionOnly) Interface(context.Context) ([]string, error) { return nil, nil }

// TestFleetPassSyncsOncePerMove: a fleet pass over four instances that all
// move writes begin, intent and applied per instance, and done — ten records,
// in that order — in five syncs: each intent's batch carries the records held
// since the last one, and done carries the last applied. Cut after each of
// those batches, the journal still recovers: Recover brings every instance to
// the target, and a second Recover finds nothing to do.
func TestFleetPassSyncsOncePerMove(t *testing.T) {
	_, base, next := evolvePair(t, "fl", 20, 2)
	store := manager.NewStore()
	root, err := store.CreateRoot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	child, err := store.Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Configure(child, func(d *dfm.Descriptor) error { *d = *next.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 4
	loids := make([]naming.LOID, n)
	for k := range loids {
		loids[k] = naming.LOID{Domain: 1, Class: 1, Instance: uint64(k + 1)}
	}
	// fleet adopts the four instances under a fresh manager over the journal at
	// path, with the first at of them already on child.
	fleet := func(t *testing.T, path string, at int) (*manager.Manager, *manager.Journal, []*versionOnly) {
		t.Helper()
		mgr := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
		journal, err := manager.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = journal.Close() })
		mgr.SetJournal(journal)
		insts := make([]*versionOnly, n)
		for k, loid := range loids {
			insts[k] = &versionOnly{loid: loid, ver: root}
			if k < at {
				insts[k].ver = child
			}
			if err := mgr.Adopt(ctx, insts[k], registry.NativeImplType); err != nil {
				t.Fatal(err)
			}
		}
		return mgr, journal, insts
	}

	path := filepath.Join(t.TempDir(), "fleet.journal")
	mgr, journal, _ := fleet(t, path, 0)
	var ends []uint64 // the journal's length after each batch
	journal.SetSink(func(manager.JournalRecord) error {
		if b := journal.Stats().Bytes; len(ends) == 0 || ends[len(ends)-1] != b {
			ends = append(ends, b)
		}
		return nil
	})
	rep, err := mgr.EvolveFleet(ctx, child, nil)
	if err != nil || len(rep.Evolved) != n || rep.Halted {
		t.Fatalf("EvolveFleet = %+v, %v", rep, err)
	}
	if st := journal.Stats(); st.Records != 2*n+2 || st.Syncs != n+1 {
		t.Fatalf("fleet pass of %d moves wrote %d records in %d syncs, want %d in %d", n, st.Records, st.Syncs, 2*n+2, n+1)
	}
	want := []manager.JournalRecord{{Op: manager.OpBegin, Pass: 1, Target: child, Planned: loids}}
	for _, loid := range loids {
		want = append(want,
			manager.JournalRecord{Op: manager.OpIntent, Pass: 1, LOID: loid, From: root, To: child},
			manager.JournalRecord{Op: manager.OpApplied, Pass: 1, LOID: loid, To: child})
	}
	want = append(want, manager.JournalRecord{Op: manager.OpDone, Pass: 1})
	recs, err := manager.ReadJournal(path)
	if err != nil || !reflect.DeepEqual(recs, want) {
		t.Fatalf("fleet pass journal = %+v (%v), want %+v", recs, err, want)
	}
	if len(ends) != n+1 {
		t.Fatalf("sink saw %d batches, want %d", len(ends), n+1)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The crash after batch k (intent k+1's, or done's) comes before that
	// instance's apply: the first k instances are on child.
	for k, end := range ends {
		cut := filepath.Join(t.TempDir(), "cut.journal")
		if err := os.WriteFile(cut, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		mgr2, _, insts := fleet(t, cut, k)
		report, err := mgr2.Recover(ctx)
		wantPasses := 1
		if k == n {
			wantPasses = 0 // done is on disk: the pass is closed
		}
		if err != nil || report.Passes != wantPasses {
			t.Fatalf("batch %d: Recover = %+v, %v, want %d passes", k+1, report, err, wantPasses)
		}
		for _, inst := range insts {
			if got, _ := inst.Version(ctx); !got.Equal(child) {
				t.Fatalf("batch %d: %s at %s after Recover, want %s", k+1, inst.loid, got, child)
			}
		}
		if again, err := mgr2.Recover(ctx); err != nil || again.Passes != 0 {
			t.Fatalf("batch %d: second Recover = %+v, %v, want a no-op", k+1, again, err)
		}
	}
}

// TestRetreatIsOneRollbackPass: a rollout retreating from the three instances
// on its target journals rollout-rollback, one rollback pass — begin, an
// intent and an applied per instance, done — and rollout-done, in that
// order, in six syncs: rollout-rollback's, one per move, done's and
// rollout-done's.
func TestRetreatIsOneRollbackPass(t *testing.T) {
	_, base, next := evolvePair(t, "rt", 20, 2)
	store, root, child := pairStore(t, base, next)
	mgr := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
	journal, err := manager.OpenJournal(filepath.Join(t.TempDir(), "retreat.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	mgr.SetJournal(journal)
	ctx := context.Background()
	if err := mgr.SetCurrentVersion(ctx, root); err != nil {
		t.Fatal(err)
	}
	const n = 3
	loids := make([]naming.LOID, n)
	for k := range loids {
		loids[k] = naming.LOID{Domain: 1, Class: 1, Instance: uint64(k + 1)}
		if err := mgr.Adopt(ctx, &versionOnly{loid: loids[k], ver: root}, registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
	}

	// The canary takes all three; once the third is on the target the
	// rollout is aborted, and the journal's counters are read as the
	// retreat begins.
	o := obs.NewMetricsOnly()
	mgr.SetObs(o)
	sup := &supervisor.Supervisor{Mgr: mgr, Reg: o.Metrics, Obs: o}
	evolved := 0
	var before manager.JournalStats
	o.Events.SetSink(func(ev obs.Event) {
		switch ev.Kind {
		case "evolved":
			if evolved++; evolved == n {
				_ = sup.Abort("retreat")
			}
		case "rollout-rollback":
			before = journal.Stats()
		}
	})
	policy := supervisor.Policy{Name: "retreat", Target: child, CanarySize: n, BakeTime: time.Hour, ProbeInterval: time.Millisecond}
	if err := sup.Start(ctx, policy); err != nil {
		t.Fatal(err)
	}
	if st, err := sup.Wait(ctx); err != nil || st.Phase != supervisor.PhaseAborted {
		t.Fatalf("rollout = %+v, %v; want aborted", st, err)
	}

	recs, err := journal.Records()
	if err != nil {
		t.Fatal(err)
	}
	var ops []manager.JournalOp
	for i, r := range recs {
		if r.Op == manager.OpRolloutRollback {
			for _, r := range recs[i:] {
				ops = append(ops, r.Op)
			}
			break
		}
	}
	want := []manager.JournalOp{manager.OpRolloutRollback, manager.OpBegin}
	for range loids {
		want = append(want, manager.OpIntent, manager.OpApplied)
	}
	want = append(want, manager.OpDone, manager.OpRolloutDone)
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("retreat journalled %v, want %v", ops, want)
	}
	if st := journal.Stats(); st.Records-before.Records != uint64(len(want)) || st.Syncs-before.Syncs != n+3 {
		t.Fatalf("retreat of %d wrote %d records in %d syncs, want %d in %d",
			n, st.Records-before.Records, st.Syncs-before.Syncs, len(want), n+3)
	}
	for _, loid := range loids {
		if rec, err := mgr.RecordOf(loid); err != nil || !rec.Version.Equal(root) {
			t.Fatalf("%s after the retreat: %+v, %v; want %s", loid, rec, err, root)
		}
	}
}

// pairStore is a store holding base as version 1 and next as 1.1, both
// instantiable.
func pairStore(t *testing.T, base, next *dfm.Descriptor) (store *manager.Store, root, child version.ID) {
	t.Helper()
	store = manager.NewStore()
	root, err := store.CreateRoot(base)
	if err == nil {
		err = store.MarkInstantiable(root)
	}
	if err == nil {
		child, err = store.Derive(root)
	}
	if err == nil {
		err = store.Configure(child, func(d *dfm.Descriptor) error { *d = *next.Clone(); return nil })
	}
	if err == nil {
		err = store.MarkInstantiable(child)
	}
	if err != nil {
		t.Fatal(err)
	}
	return store, root, child
}

// mustPlan is store.Plan(from, to), which must exist.
func mustPlan(t *testing.T, store *manager.Store, from, to version.ID) *dfm.Change {
	t.Helper()
	c, err := store.Plan(from, to)
	if err != nil || c == nil {
		t.Fatalf("plan %s → %s: %v, %v", from, to, c, err)
	}
	return c
}

// TestPlannedEvolutionCounts carries the claim that an evolution's wire cost
// follows the change: the manager ships a planned change, computed once per
// version pair, and the object applies it against its live table.
func TestPlannedEvolutionCounts(t *testing.T) {
	ctx := context.Background()
	requestBytes := func(objFuncs int) (plan, full int) {
		_, base, next := evolvePair(t, "rb", objFuncs, 1)
		store, root, child := pairStore(t, base, next)
		plan = len(core.MethodApplyPlan.Args.Encode(core.PlanArgs{From: root, To: child, Change: mustPlan(t, store, root, child)}))
		full = len(core.MethodApplyDescriptor.Args.Encode(core.ApplyArgs{Target: next, Version: child}))
		return plan, full
	}
	plan100, full100 := requestBytes(100)
	plan1000, full1000 := requestBytes(1000)
	if plan100 != plan1000 {
		t.Errorf("evolve request at diff = 1 is %d bytes at obj = 100 and %d at obj = 1000, want equal", plan100, plan1000)
	}
	if full1000 <= full100 || plan1000 >= full100 {
		t.Errorf("full descriptor %d → %d bytes, plan %d: want the descriptor to grow with obj and the plan below it", full100, full1000, plan1000)
	}

	obj, base, next := evolvePair(t, "pa", 100, 10)
	store, root, child := pairStore(t, base, next)
	for _, step := range []struct {
		name     string
		from, to version.ID
		want     uint64
	}{{"planned apply", root, child, 1}, {"planned no-op", child, child, 0}, {"planned apply back", child, root, 1}} {
		before := obj.DFM().Publishes()
		if _, err := obj.ApplyPlan(ctx, core.PlanArgs{From: step.from, To: step.to, Change: mustPlan(t, store, step.from, step.to)}); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := obj.DFM().Publishes() - before; got != step.want {
			t.Errorf("%s published %d snapshots, want %d", step.name, got, step.want)
		}
	}
	if !obj.Snapshot().Equivalent(base) {
		t.Error("object not at version 1 after planned applies there and back")
	}

	// A fleet pass of n instances at the same version diffs the pair once.
	const n = 4
	store, root, child = pairStore(t, base, next)
	mgr := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
	for k := 0; k < n; k++ {
		inst := &versionOnly{loid: naming.LOID{Domain: 2, Class: 1, Instance: uint64(k + 1)}, ver: root}
		if err := mgr.Adopt(ctx, inst, registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := mgr.EvolveFleet(ctx, child, nil); err != nil || len(rep.Evolved) != n {
		t.Fatalf("EvolveFleet = %+v, %v", rep, err)
	}
	if got := store.Diffs(); got != 1 {
		t.Errorf("fleet pass of %d moves from one version ran Diff %d times, want 1", n, got)
	}
	if got := mgr.EvolveFallbacks(); got != 0 {
		t.Errorf("fleet pass fell back to the full descriptor %d times, want 0", got)
	}
}

// olderObject serves a DCDO as an object built before dcdo.applyPlan existed
// would: it does not know the method.
type olderObject struct{ *core.DCDO }

func (o olderObject) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if method == core.MethodApplyPlan.Name {
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
	return o.DCDO.InvokeMethodCtx(ctx, method, args)
}

// TestEvolveFallbackCounts: every way an instance can turn a plan down ends
// at the target through the full descriptor, counted once as an
// evolve-fallback with one event.
func TestEvolveFallbackCounts(t *testing.T) {
	ctx := context.Background()
	for _, trigger := range []struct {
		name  string
		older bool
		// setup readies obj (at version 1, the manager's record too) and
		// returns the Instance the manager is to drive.
		setup func(t *testing.T, obj *core.DCDO, next *dfm.Descriptor) manager.Instance
	}{
		{"direct reconfiguration since the stamp", false, func(t *testing.T, obj *core.DCDO, _ *dfm.Descriptor) manager.Instance {
			if err := obj.DisableFunction(dfm.EntryKey{Function: "fb_f0_0", Component: "fb_c0"}); err != nil {
				t.Fatal(err)
			}
			return manager.LocalInstance{Obj: obj}
		}},
		{"stale manager record", false, func(t *testing.T, obj *core.DCDO, next *dfm.Descriptor) manager.Instance {
			// Adopted at 1 (setup runs after Adopt), then moved behind the
			// manager's back.
			if _, err := obj.ApplyDescriptor(ctx, next, version.ID{1, 1}); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"instance without the method", true, func(t *testing.T, obj *core.DCDO, _ *dfm.Descriptor) manager.Instance {
			clk := vclock.Real{}
			agent := naming.NewAgent(clk)
			net := transport.NewInprocNetwork()
			disp := rpc.NewDispatcher()
			srv, err := net.Listen("older-node", disp)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			disp.Host(obj.LOID(), olderObject{obj})
			agent.Register(obj.LOID(), naming.Address{Endpoint: srv.Endpoint()})
			return manager.RemoteInstance{Client: rpc.NewClient(naming.NewCache(agent, clk, 0), net.Dialer()), Target: obj.LOID()}
		}},
	} {
		t.Run(trigger.name, func(t *testing.T) {
			obj, base, next := evolvePair(t, "fb", 100, 10)
			store, _, child := pairStore(t, base, next)
			mgr := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
			o := obs.New()
			mgr.SetObs(o)
			var inst manager.Instance = manager.LocalInstance{Obj: obj}
			if err := mgr.Adopt(ctx, inst, registry.NativeImplType); err != nil {
				t.Fatal(err)
			}
			if replaced := trigger.setup(t, obj, next); replaced != nil {
				mgr.Drop(obj.LOID())
				if err := mgr.Adopt(ctx, replaced, registry.NativeImplType); err != nil {
					t.Fatal(err)
				}
			}
			if err := mgr.EvolveInstance(ctx, obj.LOID(), child); err != nil {
				t.Fatalf("EvolveInstance: %v", err)
			}
			if got := mgr.EvolveFallbacks(); got != 1 {
				t.Errorf("%d evolve-fallbacks, want 1", got)
			}
			events := 0
			for _, ev := range o.GetEvents().Recent(0) {
				if ev.Kind == "evolve-fallback" {
					events++
				}
			}
			if events != 1 {
				t.Errorf("%d evolve-fallback events, want 1", events)
			}
			if !obj.Version().Equal(child) || !obj.Snapshot().Equivalent(next) {
				t.Errorf("object at %s, equivalent to 1.1: %v; want at the target", obj.Version(), obj.Snapshot().Equivalent(next))
			}
			// The fallback restamped the object, so the next move is planned;
			// an object without the method turns every plan down.
			if err := mgr.RollbackInstance(ctx, obj.LOID(), version.ID{1}); err != nil {
				t.Fatal(err)
			}
			want := uint64(1)
			if trigger.older {
				want = 2
			}
			if got := mgr.EvolveFallbacks(); got != want {
				t.Errorf("after the rollback: %d evolve-fallbacks, want %d", got, want)
			}
			if !obj.Snapshot().Equivalent(base) {
				t.Error("object not back at version 1")
			}
		})
	}
}

// TestBenchmarkModuleBuilds compiles and vets benchmark/, a module of its own
// that `go test ./...` here never sees, so a change to a signature it uses
// (Journal.Append, dfm.Diff, core.New, manager.Instance, ...) fails tier-1.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	// -o discards the binary `go build` would otherwise leave in benchmark/.
	for _, args := range [][]string{{"build", "-o", os.DevNull, "./..."}, {"vet", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmark: go %v: %v\n%s", args, err, out)
		}
	}
}
