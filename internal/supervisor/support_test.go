package supervisor

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// fixture mirrors the manager package's test fixture through exported APIs
// only: a registry with en/fr greet components and a store with root v1
// (greet=en) and child v1.1 (greet=fr), both instantiable, current = v1.
type fixture struct {
	reg     *registry.Registry
	icoEN   naming.LOID
	icoFR   naming.LOID
	comps   map[naming.LOID]*component.Component
	nextObj uint64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		reg:   registry.New(),
		icoEN: naming.LOID{Domain: 1, Class: 8, Instance: 1},
		icoFR: naming.LOID{Domain: 1, Class: 8, Instance: 2},
		comps: make(map[naming.LOID]*component.Component),
	}
	mustReg := func(ref, msg string) {
		t.Helper()
		_, err := f.reg.Register(ref, registry.NativeImplType, map[string]registry.Func{
			"greet": func(registry.Caller, []byte) ([]byte, error) { return []byte(msg), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mustReg("en:1", "hello")
	mustReg("fr:1", "bonjour")

	for _, c := range []struct {
		ico     naming.LOID
		id, ref string
	}{{f.icoEN, "en", "en:1"}, {f.icoFR, "fr", "fr:1"}} {
		comp, err := component.NewSynthetic(component.Descriptor{
			ID: c.id, Revision: 1, CodeRef: c.ref,
			Impl: registry.NativeImplType, CodeSize: 32,
			Functions: []component.FunctionDecl{{Name: "greet", Exported: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.comps[c.ico] = comp
	}
	return f
}

func (f *fixture) fetcher() component.Fetcher {
	return component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		c, ok := f.comps[ico]
		if !ok {
			return nil, errors.New("fixture: unknown ico")
		}
		return c, nil
	})
}

func (f *fixture) newDCDO() *core.DCDO {
	f.nextObj++
	return core.New(core.Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: f.nextObj},
		Registry: f.reg,
		Fetcher:  f.fetcher(),
	})
}

func (f *fixture) descriptorEnabling(enabled string) *dfm.Descriptor {
	d := dfm.NewDescriptor()
	d.Components["en"] = dfm.ComponentRef{ICO: f.icoEN, CodeRef: "en:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	d.Components["fr"] = dfm.ComponentRef{ICO: f.icoFR, CodeRef: "fr:1", Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
	d.Entries = []dfm.EntryDesc{
		{Function: "greet", Component: "en", Exported: true, Enabled: enabled == "en"},
		{Function: "greet", Component: "fr", Exported: true, Enabled: enabled == "fr"},
	}
	return d
}

// newManager builds a manager with root v1 (en) and child v1.1 (fr), both
// instantiable, current designated v1.
func (f *fixture) newManager(t *testing.T) *manager.Manager {
	t.Helper()
	m := f.newBareManager(t)
	if err := m.SetCurrentVersion(context.Background(), v(1)); err != nil {
		t.Fatal(err)
	}
	return m
}

// newBareManager builds the same store image as newManager but leaves the
// current version undesignated — restart tests let journal recovery restore
// the designation instead.
func (f *fixture) newBareManager(t *testing.T) *manager.Manager {
	t.Helper()
	m := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	root, err := m.Store().CreateRoot(f.descriptorEnabling("en"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().MarkInstantiable(root); err != nil {
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
	return m
}

// populate creates n local instances at v1, returning them so restart tests
// can re-adopt the same objects under a fresh manager.
func (f *fixture) populate(t *testing.T, m *manager.Manager, n int) []manager.LocalInstance {
	t.Helper()
	var insts []manager.LocalInstance
	for i := 0; i < n; i++ {
		obj := f.newDCDO()
		inst := manager.LocalInstance{Obj: obj}
		if err := m.CreateInstance(context.Background(), inst, v(1), registry.NativeImplType); err != nil {
			t.Fatalf("create instance: %v", err)
		}
		insts = append(insts, inst)
	}
	return insts
}

func v(segs ...uint32) version.ID { return version.ID(segs) }

// newJournalledManager is newManager with a journal, which records the
// designation too.
func (f *fixture) newJournalledManager(t *testing.T) (*manager.Manager, *manager.Journal, string) {
	t.Helper()
	m := f.newManager(t)
	path := filepath.Join(t.TempDir(), "evolution.journal")
	j, err := manager.OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { _ = j.Close() })
	m.SetJournal(j)
	if err := m.SetCurrentVersion(context.Background(), v(1)); err != nil {
		t.Fatal(err)
	}
	return m, j, path
}

// refusingInstance is a managed instance whose moves to version 1 fail with
// err while refuse is set.
type refusingInstance struct {
	manager.Instance
	err    error
	refuse atomic.Bool
}

func (r *refusingInstance) Apply(ctx context.Context, d *dfm.Descriptor, to version.ID) (core.ApplyReport, error) {
	if r.refuse.Load() && to.Equal(v(1)) {
		return core.ApplyReport{}, r.err
	}
	return r.Instance.Apply(ctx, d, to)
}

func (r *refusingInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	if r.refuse.Load() && a.To.Equal(v(1)) {
		return core.ApplyReport{}, r.err
	}
	return r.Instance.ApplyPlan(ctx, a)
}
