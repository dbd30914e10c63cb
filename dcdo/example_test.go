package dcdo_test

import (
	"context"

	"errors"
	"fmt"

	"godcdo/dcdo"
)

// buildGreeter assembles the shared fixture the examples use: a registry
// with two greet implementations, components, and a fetcher.
func buildGreeter() (*dcdo.Registry, dcdo.Fetcher, map[string]dcdo.LOID, error) {
	reg := dcdo.NewRegistry()
	impls := map[string]string{"greeter-en:1": "hello", "greeter-fr:1": "bonjour"}
	for ref, msg := range impls {
		msg := msg
		if _, err := reg.Register(ref, dcdo.NativeImplType, map[string]dcdo.Func{
			"greet": func(dcdo.Caller, []byte) ([]byte, error) { return []byte(msg), nil },
		}); err != nil {
			return nil, nil, nil, err
		}
	}
	alloc := dcdo.NewAllocator(1, 9)
	byICO := map[dcdo.LOID]*dcdo.Component{}
	icos := map[string]dcdo.LOID{}
	for _, c := range []struct{ id, ref string }{
		{"greeter-en", "greeter-en:1"}, {"greeter-fr", "greeter-fr:1"},
	} {
		comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
			ID: c.id, Revision: 1, CodeRef: c.ref,
			Impl: dcdo.NativeImplType, CodeSize: 1 << 10,
			Functions: []dcdo.FunctionDecl{{Name: "greet", Exported: true}},
		})
		if err != nil {
			return nil, nil, nil, err
		}
		ico := alloc.Next()
		byICO[ico] = comp
		icos[c.id] = ico
	}
	fetcher := dcdo.FetcherFunc(func(ico dcdo.LOID) (*dcdo.Component, error) {
		c, ok := byICO[ico]
		if !ok {
			return nil, errors.New("unknown ico")
		}
		return c, nil
	})
	return reg, fetcher, icos, nil
}

// Example_basic incorporates a component into a DCDO and calls a dynamic
// function through the DFM.
func Example_basic() {
	reg, fetcher, icos, err := buildGreeter()
	if err != nil {
		fmt.Println("setup:", err)
		return
	}
	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	if err := obj.Incorporate(context.Background(), icos["greeter-en"], true); err != nil {
		fmt.Println("incorporate:", err)
		return
	}
	out, err := obj.InvokeMethod("greet", nil)
	if err != nil {
		fmt.Println("invoke:", err)
		return
	}
	fmt.Printf("%s %v\n", out, obj.Interface())
	// Output: hello [greet]
}

// Example_evolve swaps a function's implementation while the object runs.
func Example_evolve() {
	reg, fetcher, icos, err := buildGreeter()
	if err != nil {
		fmt.Println("setup:", err)
		return
	}
	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	if err := obj.Incorporate(context.Background(), icos["greeter-en"], true); err != nil {
		fmt.Println(err)
		return
	}
	if err := obj.Incorporate(context.Background(), icos["greeter-fr"], false); err != nil {
		fmt.Println(err)
		return
	}
	before, _ := obj.InvokeMethod("greet", nil)

	if err := obj.DisableFunction(dcdo.EntryKey{Function: "greet", Component: "greeter-en"}); err != nil {
		fmt.Println(err)
		return
	}
	if err := obj.EnableFunction(dcdo.EntryKey{Function: "greet", Component: "greeter-fr"}); err != nil {
		fmt.Println(err)
		return
	}
	after, _ := obj.InvokeMethod("greet", nil)
	fmt.Printf("%s -> %s\n", before, after)
	// Output: hello -> bonjour
}

// Example_dependencies shows a dependency refusing an unsafe disable
// (§3.2 of the paper): while serve is enabled, its audit function must
// stay enabled too.
func Example_dependencies() {
	reg := dcdo.NewRegistry()
	_, err := reg.Register("svc:1", dcdo.NativeImplType, map[string]dcdo.Func{
		"serve": func(c dcdo.Caller, args []byte) ([]byte, error) {
			if _, err := c.CallInternal("audit", args); err != nil {
				return nil, err
			}
			return []byte("served"), nil
		},
		"audit": func(dcdo.Caller, []byte) ([]byte, error) { return nil, nil },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
		ID: "svc", Revision: 1, CodeRef: "svc:1",
		Impl: dcdo.NativeImplType, CodeSize: 1 << 10,
		Functions: []dcdo.FunctionDecl{
			{Name: "serve", Exported: true, Calls: []string{"audit"}},
			{Name: "audit"},
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	ico := dcdo.NewAllocator(1, 9).Next()
	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher: dcdo.FetcherFunc(func(dcdo.LOID) (*dcdo.Component, error) {
			return comp, nil
		}),
	})
	if err := obj.IncorporateComponent(comp, ico, true); err != nil {
		fmt.Println(err)
		return
	}
	// Type D: any implementation of serve requires some implementation of
	// audit.
	dep := dcdo.Dependency{Kind: dcdo.DepD, FromFunc: "serve", ToFunc: "audit"}
	if err := obj.AddDependency(dep); err != nil {
		fmt.Println(err)
		return
	}
	err = obj.DisableFunction(dcdo.EntryKey{Function: "audit", Component: "svc"})
	fmt.Println("refused while serve enabled:", err != nil)

	// Disable serve first and the constraint releases.
	if err := obj.DisableFunction(dcdo.EntryKey{Function: "serve", Component: "svc"}); err != nil {
		fmt.Println(err)
		return
	}
	err = obj.DisableFunction(dcdo.EntryKey{Function: "audit", Component: "svc"})
	fmt.Println("refused after serve disabled:", err != nil)
	// Output:
	// refused while serve enabled: true
	// refused after serve disabled: false
}

// Example_manager runs the manager-driven lifecycle: author the version
// tree, create, proactively evolve.
func Example_manager() {
	reg, fetcher, icos, err := buildGreeter()
	if err != nil {
		fmt.Println("setup:", err)
		return
	}
	mgr := dcdo.NewManager(dcdo.SingleVersion, dcdo.Proactive)

	// Author stores each version whole and instantiable, or refuses it.
	root, err := mgr.Store().Author(nil, func(d *dcdo.Descriptor) error {
		for id, ico := range icos {
			d.Components[id] = dcdo.ComponentRef{
				ICO: ico, CodeRef: id + ":1", Impl: dcdo.NativeImplType, CodeSize: 1 << 10, Revision: 1,
			}
			d.Entries = append(d.Entries, dcdo.EntryDesc{
				Function: "greet", Component: id, Exported: true, Enabled: id == "greeter-en",
			})
		}
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		fmt.Println(err)
		return
	}

	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	if err := mgr.CreateInstance(context.Background(), dcdo.LocalInstance{Obj: obj}, nil, dcdo.NativeImplType); err != nil {
		fmt.Println(err)
		return
	}

	child, err := mgr.Store().Author(root, func(d *dcdo.Descriptor) error {
		d.Entry(dcdo.EntryKey{Function: "greet", Component: "greeter-en"}).Enabled = false
		d.Entry(dcdo.EntryKey{Function: "greet", Component: "greeter-fr"}).Enabled = true
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := mgr.SetCurrentVersion(context.Background(), child); err != nil { // proactive: evolves the fleet
		fmt.Println(err)
		return
	}
	out, _ := obj.InvokeMethod("greet", nil)
	fmt.Printf("%s at version %s\n", out, obj.Version())
	// Output: bonjour at version 1.1
}

// Example_versionIDs demonstrates version-tree semantics from §2.1/§3.5.
func Example_versionIDs() {
	v32, _ := dcdo.ParseVersion("3.2")
	v321, _ := dcdo.ParseVersion("3.2.1")
	v3204, _ := dcdo.ParseVersion("3.2.0.4")
	v33, _ := dcdo.ParseVersion("3.3")
	fmt.Println(v321.IsDescendantOf(v32), v3204.IsDescendantOf(v32), v33.IsDescendantOf(v32))
	// Output: true true false
}
