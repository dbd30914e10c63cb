package harness

import (
	"godcdo/internal/component"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/wire"
)

// addCounter registers the replicated counter type E13 and E14 drive —
// "bump" writes the state key "n" and answers the new total, "total" reads
// it — and adds it to desc as component "counter", fetched from ico, with
// both functions exported and enabled. It returns the component the
// fetcher serves for ico.
func addCounter(reg *registry.Registry, ico naming.LOID, desc *dfm.Descriptor) (*component.Component, error) {
	value := func(c registry.Caller) uint64 {
		raw, ok := c.State().Get("n")
		if !ok {
			return 0
		}
		n, err := wire.NewDecoder(raw).Uvarint()
		if err != nil {
			return 0
		}
		return n
	}
	if _, err := reg.Register("counter:1", registry.NativeImplType, map[string]registry.Func{
		"bump": func(c registry.Caller, _ []byte) ([]byte, error) {
			e := wire.NewEncoder(8)
			e.PutUvarint(value(c) + 1)
			c.State().Set("n", e.Bytes())
			return e.Bytes(), nil
		},
		"total": func(c registry.Caller, _ []byte) ([]byte, error) {
			e := wire.NewEncoder(8)
			e.PutUvarint(value(c))
			return e.Bytes(), nil
		},
	}); err != nil {
		return nil, err
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: "counter", Revision: 1, CodeRef: "counter:1",
		Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{
			{Name: "bump", Exported: true},
			{Name: "total", Exported: true},
		},
	})
	if err != nil {
		return nil, err
	}
	desc.Components["counter"] = dfm.ComponentRef{ICO: ico, CodeRef: "counter:1", Impl: registry.NativeImplType, CodeSize: 64, Revision: 1}
	desc.Entries = append(desc.Entries,
		dfm.EntryDesc{Function: "bump", Component: "counter", Exported: true, Enabled: true},
		dfm.EntryDesc{Function: "total", Component: "counter", Exported: true, Enabled: true})
	return comp, nil
}
