package manager

import (
	"context"

	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/transport"
	"godcdo/internal/version"
)

// flakyInstance is an Instance whose connectivity can be switched off,
// standing in for a partitioned remote instance.
type flakyInstance struct {
	loid naming.LOID
	down atomic.Bool

	mu  sync.Mutex
	ver version.ID
}

func (f *flakyInstance) LOID() naming.LOID { return f.loid }

func (f *flakyInstance) Version(context.Context) (version.ID, error) {
	if f.down.Load() {
		return nil, transport.ErrUnreachable
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ver.Clone(), nil
}

func (f *flakyInstance) Apply(_ context.Context, _ *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	if f.down.Load() {
		return core.ApplyReport{}, transport.ErrUnreachable
	}
	f.mu.Lock()
	f.ver = v.Clone()
	f.mu.Unlock()
	return core.ApplyReport{}, nil
}

func (f *flakyInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	return f.Apply(ctx, nil, a.To)
}

func (f *flakyInstance) Interface(context.Context) ([]string, error) {
	if f.down.Load() {
		return nil, transport.ErrUnreachable
	}
	return []string{"greet"}, nil
}

// restartManager simulates the crash/restart boundary: the store is
// round-tripped through its persistent image, a fresh manager built over
// it, and the journal reopened from disk.
func restartManager(t *testing.T, m *Manager, style evolution.Style, policy evolution.UpdatePolicy, journalPath string) *Manager {
	t.Helper()
	var image bytes.Buffer
	if err := m.Store().Save(&image); err != nil {
		t.Fatalf("save store: %v", err)
	}
	store, err := LoadStore(&image)
	if err != nil {
		t.Fatalf("load store: %v", err)
	}
	m2 := NewWithStore(store, style, policy)
	j, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	m2.SetJournal(j)
	return m2
}

func TestRecoverResumesInterruptedPass(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	path := filepath.Join(t.TempDir(), "evolution.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	m.SetJournal(j)

	objs := make([]*core.DCDO, 3)
	for i := range objs {
		objs[i] = f.newDCDO()
		if err := m.CreateInstance(context.Background(), LocalInstance{Obj: objs[i]}, v(1), registry.NativeImplType); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	if err := m.SetCurrentVersion(context.Background(), v(1, 1)); err != nil {
		t.Fatalf("set current: %v", err)
	}
	rep, err := m.EvolveFleet(crashAfter(t, m, 1), v(1, 1), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial fleet pass: %v", err)
	}
	if !rep.Halted || len(rep.Evolved) != 1 {
		t.Fatalf("partial pass = %+v, want halted after 1 apply", rep)
	}
	// Crash: the journal handle dies with the manager; no done record.
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	m2 := restartManager(t, m, evolution.MultiIncreasing, evolution.Explicit, path)
	for _, obj := range objs {
		if err := m2.Adopt(context.Background(), LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
			t.Fatalf("re-adopt: %v", err)
		}
	}
	report, err := m2.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if report.Passes != 1 {
		t.Fatalf("recovered %d passes, want 1", report.Passes)
	}
	if len(report.Verified) != 1 || len(report.Resumed) != 2 {
		t.Fatalf("verified=%v resumed=%v, want 1 verified + 2 resumed", report.Verified, report.Resumed)
	}
	if !report.Current.Equal(v(1, 1)) {
		t.Fatalf("restored current = %s, want %s", report.Current, v(1, 1))
	}
	cur, _ := m2.CurrentVersion()
	if !cur.Equal(v(1, 1)) {
		t.Fatalf("manager current = %s, want %s", cur, v(1, 1))
	}
	for i, obj := range objs {
		if got := obj.Version(); !got.Equal(v(1, 1)) {
			t.Fatalf("instance %d at %s after recovery, want %s", i, got, v(1, 1))
		}
		rec, err := m2.RecordOf(LocalInstance{Obj: obj}.LOID())
		if err != nil || !rec.Version.Equal(v(1, 1)) {
			t.Fatalf("record %d = %+v (%v), want version %s", i, rec, err, v(1, 1))
		}
	}

	// Idempotence: the journal was compacted, so replaying it again finds
	// nothing to do.
	report2, err := m2.Recover(context.Background())
	if err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if report2.Passes != 0 || len(report2.Resumed)+len(report2.RolledBack) != 0 {
		t.Fatalf("second recover not a no-op: %+v", report2)
	}
	if !report2.Current.Equal(v(1, 1)) {
		t.Fatalf("second recover lost current: %+v", report2)
	}
}

// TestRecoverWithEndedCtxKeepsPassOpen: a Recover whose ctx has ended closes
// no pass it did not finish. A fleet pass halted before its first apply is
// still open afterwards, the instance untouched, and the next Recover
// finishes it.
func TestRecoverWithEndedCtxKeepsPassOpen(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	path := filepath.Join(t.TempDir(), "evolution.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m.SetJournal(j)
	obj := f.newDCDO()
	if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	if rep, err := m.EvolveFleet(crashAfter(t, m, 0), v(1, 1), nil); !errors.Is(err, context.Canceled) || !rep.Halted || len(rep.Evolved) != 0 {
		t.Fatalf("EvolveFleet = %+v, %v; want halted before its first apply", rep, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := restartManager(t, m, evolution.MultiIncreasing, evolution.Explicit, path)
	if err := m2.Adopt(ctx, LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	ended, cancel := context.WithCancel(ctx)
	cancel()
	if report, err := m2.Recover(ended); !errors.Is(err, context.Canceled) || report.Passes != 1 {
		t.Fatalf("Recover with an ended ctx = %+v, %v; want 1 pass halted by context.Canceled", report, err)
	}
	if !obj.Version().Equal(v(1)) {
		t.Fatalf("instance at %s after a halted Recover, want 1", obj.Version())
	}
	if report, err := m2.Recover(ctx); err != nil || report.Passes != 1 || len(report.Resumed) != 1 {
		t.Fatalf("Recover = %+v, %v; want the pass left open finished", report, err)
	}
	if !obj.Version().Equal(v(1, 1)) {
		t.Fatalf("instance at %s after Recover, want 1.1", obj.Version())
	}
	if report, err := m2.Recover(ctx); err != nil || report.Passes != 0 {
		t.Fatalf("third Recover = %+v, %v; want a no-op", report, err)
	}
}

func TestRecoverRollsBackOrphanedTarget(t *testing.T) {
	f := newFixture(t)
	m := New(evolution.MultiIncreasing, evolution.Explicit)
	root, err := m.Store().CreateRoot(f.descriptorEnabling("en"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	// The persistent image is taken *before* the child version exists: a
	// crash after deriving in memory but before re-saving loses it.
	var oldImage bytes.Buffer
	if err := m.Store().Save(&oldImage); err != nil {
		t.Fatal(err)
	}
	child, err := m.Store().Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Store().Configure(child, func(d *dfm.Descriptor) error {
		d.Entry(dfm.EntryKey{Function: "greet", Component: "en"}).Enabled = false
		d.Entry(dfm.EntryKey{Function: "greet", Component: "fr"}).Enabled = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "evolution.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m.SetJournal(j)

	a, b := f.newDCDO(), f.newDCDO()
	for _, obj := range []*core.DCDO{a, b} {
		if err := m.CreateInstance(context.Background(), LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	// Crash mid-pass: a reaches 1.1, b untouched, no done record.
	rep, err := m.EvolveFleet(crashAfter(t, m, 1), v(1, 1), nil)
	if !errors.Is(err, context.Canceled) || !rep.Halted {
		t.Fatalf("partial pass: %+v err=%v", rep, err)
	}
	_ = j.Close()

	// Restart from the OLD image: version 1.1 does not exist there, so the
	// interrupted pass's target is orphaned and a must roll back.
	store, err := LoadStore(&oldImage)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m2.SetJournal(j2)
	for _, obj := range []*core.DCDO{a, b} {
		if err := m2.Adopt(context.Background(), LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
			t.Fatalf("re-adopt: %v", err)
		}
	}
	report, err := m2.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if report.Passes != 1 || len(report.RolledBack) != 1 {
		t.Fatalf("report = %+v, want 1 pass with 1 rollback", report)
	}
	if got := a.Version(); !got.Equal(v(1)) {
		t.Fatalf("a at %s after rollback, want %s", got, v(1))
	}
	if got := b.Version(); !got.Equal(v(1)) {
		t.Fatalf("b at %s, want untouched %s", got, v(1))
	}
	recA, err := m2.RecordOf(LocalInstance{Obj: a}.LOID())
	if err != nil || !recA.Version.Equal(v(1)) {
		t.Fatalf("rolled-back record = %+v (%v)", recA, err)
	}
}

func TestRecoverQuarantinesUnreachableInstance(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	path := filepath.Join(t.TempDir(), "evolution.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	m.SetJournal(j)

	good := f.newDCDO()
	if err := m.CreateInstance(context.Background(), LocalInstance{Obj: good}, v(1), registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	bad := &flakyInstance{loid: naming.LOID{Domain: 9, Class: 2, Instance: 1}, ver: v(1)}
	if err := m.Adopt(context.Background(), bad, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCurrentVersion(context.Background(), v(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Crash after beginning the pass but before touching anything.
	if _, err := m.EvolveFleet(crashAfter(t, m, 0), v(1, 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	_ = j.Close()

	bad.down.Store(true) // partitioned across the restart
	m2 := restartManager(t, m, evolution.MultiIncreasing, evolution.Explicit, path)
	if err := m2.Adopt(context.Background(), LocalInstance{Obj: good}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	if err := m2.AdoptUnverified(bad, registry.NativeImplType, v(1), "unreachable at boot"); err != nil {
		t.Fatal(err)
	}
	report, err := m2.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(report.Quarantined) != 1 || report.Quarantined[0] != bad.loid {
		t.Fatalf("quarantined = %v, want [%s]", report.Quarantined, bad.loid)
	}
	if q, _ := m2.IsQuarantined(bad.loid); !q {
		t.Fatal("unreachable instance not quarantined after recovery")
	}
	// The reachable instance converged to the target.
	if got := good.Version(); !got.Equal(v(1, 1)) {
		t.Fatalf("reachable instance at %s, want %s", got, v(1, 1))
	}
	// The quarantined instance is excluded from subsequent fleet passes.
	rep, err := m2.EvolveFleet(context.Background(), v(1, 1), nil)
	if err != nil {
		t.Fatalf("fleet pass with quarantined instance: %v", err)
	}
	for _, loid := range rep.Evolved {
		if loid == bad.loid {
			t.Fatal("fleet pass touched a quarantined instance")
		}
	}
}

func TestRecoverRequiresJournal(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	if _, err := m.Recover(context.Background()); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("recover without journal: %v, want ErrNoJournal", err)
	}
}

// TestMoveToConfigurableRefusedBeforeIntent: Store.Plan refuses a target that
// is not instantiable (and has no plan, without error, from such a source),
// and planning the move asks it, so a style-exempt rollback to a
// configurable version is refused before its intent is journalled or the
// instance touched.
func TestMoveToConfigurableRefusedBeforeIntent(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m.SetJournal(j)
	obj := f.newDCDO()
	if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	cfg, err := m.Store().Derive(v(1))
	if err != nil {
		t.Fatal(err)
	}
	if c, err := m.Store().Plan(v(1), cfg); c != nil || !errors.Is(err, ErrVersionNotReady) {
		t.Fatalf("plan to a configurable version = %v, %v; want ErrVersionNotReady", c, err)
	}
	if c, err := m.Store().Plan(cfg, v(1)); c != nil || err != nil {
		t.Fatalf("plan from a configurable version = %v, %v; want no plan", c, err)
	}
	before := obj.DFM().Publishes()
	if err := m.RollbackInstance(ctx, obj.LOID(), cfg); !errors.Is(err, ErrVersionNotReady) {
		t.Fatalf("rollback to a configurable version: err = %v, want ErrVersionNotReady", err)
	}
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op == OpIntent {
			t.Fatalf("refused move journalled an intent: %+v", r)
		}
	}
	if obj.DFM().Publishes() != before || !obj.Version().Equal(v(1)) {
		t.Fatal("refused move touched the instance")
	}
}
