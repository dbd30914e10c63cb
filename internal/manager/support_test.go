package manager

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// fixture provides a registry with "greet" implementations in two
// components (en, fr), a fetcher, and helpers to build DCDOs and stores.
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

// descriptorEnabling builds a descriptor with both components where the
// named component's greet is the enabled one.
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

// newManager builds a manager whose store has root v1 (greet=en,
// instantiable) and child v1.1 (greet=fr, instantiable), with current set
// to v1 under the given style/policy.
func (f *fixture) newManager(t *testing.T, style evolution.Style, policy evolution.UpdatePolicy) *Manager {
	t.Helper()
	m := New(style, policy)
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
	m.mu.Lock()
	m.current = version.ID{1}
	m.mu.Unlock()
	return m
}

func v(segs ...uint32) version.ID { return version.ID(segs) }

// crashAfter returns a ctx that ends as m emits its n-th "evolved" event: a
// halting pass's crash point. The manager emits the event as a move
// finishes, before runPass checks ctx for the next move, so a pass run
// under the ctx halts with exactly n instances moved. n == 0 returns an
// ended ctx. It wires m to an event log of its own.
func crashAfter(t *testing.T, m *Manager, n int) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if n == 0 {
		cancel()
	}
	o := &obs.Obs{Events: obs.NewEventLog(0)}
	var seen atomic.Int64
	o.Events.SetSink(func(ev obs.Event) {
		if ev.Kind == "evolved" && seen.Add(1) == int64(n) {
			cancel()
		}
	})
	m.SetObs(o)
	return ctx
}
