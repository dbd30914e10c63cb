// Command quickstart walks the DCDO model end to end in one process:
// register function implementations, publish them as components, create a
// DCDO under a DCDO Manager, invoke it, then evolve it on the fly to a new
// version — without the object ever stopping.
package main

import (
	"context"

	"fmt"
	"log"

	"godcdo/dcdo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The code registry stands in for dynamic linking: every function
	// implementation is published under a code reference.
	reg := dcdo.NewRegistry()
	if _, err := reg.Register("greeter-en:1", dcdo.NativeImplType, map[string]dcdo.Func{
		"greet": func(dcdo.Caller, []byte) ([]byte, error) { return []byte("hello, world"), nil },
	}); err != nil {
		return err
	}
	if _, err := reg.Register("greeter-fr:1", dcdo.NativeImplType, map[string]dcdo.Func{
		"greet": func(dcdo.Caller, []byte) ([]byte, error) { return []byte("bonjour, monde"), nil },
	}); err != nil {
		return err
	}

	// 2. Wrap each implementation in a component, served by an ICO named
	// by a LOID.
	icoAlloc := dcdo.NewAllocator(1, 9)
	icoEN, icoFR := icoAlloc.Next(), icoAlloc.Next()
	components := map[dcdo.LOID]*dcdo.Component{}
	for _, c := range []struct {
		ico     dcdo.LOID
		id, ref string
	}{{icoEN, "greeter-en", "greeter-en:1"}, {icoFR, "greeter-fr", "greeter-fr:1"}} {
		comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
			ID: c.id, Revision: 1, CodeRef: c.ref,
			Impl: dcdo.NativeImplType, CodeSize: 4 << 10,
			Functions: []dcdo.FunctionDecl{{Name: "greet", Exported: true}},
		})
		if err != nil {
			return err
		}
		components[c.ico] = comp
	}
	fetcher := dcdo.FetcherFunc(func(ico dcdo.LOID) (*dcdo.Component, error) {
		c, ok := components[ico]
		if !ok {
			return nil, fmt.Errorf("no component at %s", ico)
		}
		return c, nil
	})

	// 3. A DCDO Manager holds the version tree. Version 1 enables the
	// English greeter; version 1.1 swaps in the French one.
	mgr := dcdo.NewManager(dcdo.SingleVersion, dcdo.Proactive)
	root, err := mgr.Store().Author(nil, func(d *dcdo.Descriptor) error {
		d.Components["greeter-en"] = dcdo.ComponentRef{
			ICO: icoEN, CodeRef: "greeter-en:1", Impl: dcdo.NativeImplType, CodeSize: 4 << 10, Revision: 1,
		}
		d.Components["greeter-fr"] = dcdo.ComponentRef{
			ICO: icoFR, CodeRef: "greeter-fr:1", Impl: dcdo.NativeImplType, CodeSize: 4 << 10, Revision: 1,
		}
		d.Entries = []dcdo.EntryDesc{
			{Function: "greet", Component: "greeter-en", Exported: true, Enabled: true},
			{Function: "greet", Component: "greeter-fr", Exported: true, Enabled: false},
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		return err
	}

	// 4. Create a DCDO at the current version and invoke it.
	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	if err := mgr.CreateInstance(context.Background(), dcdo.LocalInstance{Obj: obj}, nil, dcdo.NativeImplType); err != nil {
		return err
	}
	out, err := obj.InvokeMethod("greet", nil)
	if err != nil {
		return err
	}
	fmt.Printf("version %s: greet() = %q   interface = %v\n", obj.Version(), out, obj.Interface())

	// 5. Author version 1.1 from a logical copy of 1, reconfigured, in one
	// checked step, and designate it current. Under the proactive policy
	// the running object evolves immediately — no restart, no downtime.
	child, err := mgr.Store().Author(root, func(d *dcdo.Descriptor) error {
		d.Entry(dcdo.EntryKey{Function: "greet", Component: "greeter-en"}).Enabled = false
		d.Entry(dcdo.EntryKey{Function: "greet", Component: "greeter-fr"}).Enabled = true
		return nil
	})
	if err != nil {
		return err
	}
	if err := mgr.SetCurrentVersion(context.Background(), child); err != nil {
		return err
	}

	out, err = obj.InvokeMethod("greet", nil)
	if err != nil {
		return err
	}
	fmt.Printf("version %s: greet() = %q   interface = %v\n", obj.Version(), out, obj.Interface())

	rec, err := mgr.RecordOf(obj.LOID())
	if err != nil {
		return err
	}
	fmt.Printf("manager table: %s at version %s (%s)\n", rec.LOID, rec.Version, rec.Impl)
	return nil
}
