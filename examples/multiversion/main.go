// Command multiversion runs a fleet of DCDOs under a multi-version DCDO
// Manager with the increasing-version-number policy (§3.5): versions form a
// tree, instances may only evolve to descendants of their own version, and
// different instances legitimately coexist at different versions.
package main

import (
	"context"

	"errors"
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
	// Implementations: three revisions of a "motd" function.
	reg := dcdo.NewRegistry()
	revs := map[string]string{
		"motd:1": "v1: welcome",
		"motd:2": "v1.1: welcome, now with colours",
		"motd:3": "v1.1.1: welcome, colours fixed",
	}
	for ref, msg := range revs {
		msg := msg
		if _, err := reg.Register(ref, dcdo.NativeImplType, map[string]dcdo.Func{
			"motd": func(dcdo.Caller, []byte) ([]byte, error) { return []byte(msg), nil },
		}); err != nil {
			return err
		}
	}

	// One component per revision, each behind its own ICO LOID.
	icoAlloc := dcdo.NewAllocator(1, 9)
	byICO := map[dcdo.LOID]*dcdo.Component{}
	icoFor := map[string]dcdo.LOID{}
	for i, ref := range []string{"motd:1", "motd:2", "motd:3"} {
		id := fmt.Sprintf("motd-r%d", i+1)
		comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
			ID: id, Revision: uint64(i + 1), CodeRef: ref,
			Impl: dcdo.NativeImplType, CodeSize: 2 << 10,
			Functions: []dcdo.FunctionDecl{{Name: "motd", Exported: true}},
		})
		if err != nil {
			return err
		}
		ico := icoAlloc.Next()
		byICO[ico] = comp
		icoFor[id] = ico
	}
	fetcher := dcdo.FetcherFunc(func(ico dcdo.LOID) (*dcdo.Component, error) {
		c, ok := byICO[ico]
		if !ok {
			return nil, fmt.Errorf("no component at %s", ico)
		}
		return c, nil
	})

	// Manager with the increasing-version-number style.
	mgr := dcdo.NewManager(dcdo.MultiIncreasing, dcdo.Explicit)
	descFor := func(compID, codeRef string, rev uint64) *dcdo.Descriptor {
		d := dcdo.NewDescriptor()
		d.Components[compID] = dcdo.ComponentRef{
			ICO: icoFor[compID], CodeRef: codeRef,
			Impl: dcdo.NativeImplType, CodeSize: 2 << 10, Revision: rev,
		}
		d.Entries = []dcdo.EntryDesc{
			{Function: "motd", Component: compID, Exported: true, Enabled: true},
		}
		return d
	}

	// Version tree: 1 -> 1.1 -> 1.1.1, all instantiable.
	define := func(parent dcdo.VersionID, compID, codeRef string, rev uint64) (dcdo.VersionID, error) {
		return mgr.Store().Author(parent, func(d *dcdo.Descriptor) error {
			*d = *descFor(compID, codeRef, rev)
			return nil
		})
	}
	v1, err := define(nil, "motd-r1", "motd:1", 1)
	if err != nil {
		return err
	}
	v11, err := define(v1, "motd-r2", "motd:2", 2)
	if err != nil {
		return err
	}
	v111, err := define(v11, "motd-r3", "motd:3", 3)
	if err != nil {
		return err
	}
	fmt.Printf("version tree: %s -> %s -> %s\n", v1, v11, v111)

	// A fleet of five instances, all created at version 1.
	objAlloc := dcdo.NewAllocator(1, 1)
	fleet := make([]*dcdo.DCDO, 5)
	for i := range fleet {
		fleet[i] = dcdo.New(dcdo.Config{LOID: objAlloc.Next(), Registry: reg, Fetcher: fetcher})
		if err := mgr.CreateInstance(context.Background(), dcdo.LocalInstance{Obj: fleet[i]}, v1, dcdo.NativeImplType); err != nil {
			return err
		}
	}

	// Canary: evolve instances 0–1 to 1.1, then 0 to 1.1.1.
	for _, i := range []int{0, 1} {
		if err := mgr.EvolveInstance(context.Background(), fleet[i].LOID(), v11); err != nil {
			return err
		}
	}
	if err := mgr.EvolveInstance(context.Background(), fleet[0].LOID(), v111); err != nil {
		return err
	}

	fmt.Println("\nDCDO table (instances coexisting at multiple versions):")
	for _, rec := range mgr.Records() {
		var motd []byte
		for _, obj := range fleet {
			if obj.LOID() == rec.LOID {
				motd, _ = obj.InvokeMethod("motd", nil)
			}
		}
		fmt.Printf("  %s  version %-6s  motd=%q\n", rec.LOID, rec.Version, motd)
	}

	// The policy at work: instance 1 (at 1.1) cannot go back to 1, and
	// instance 2 (at 1) cannot jump sideways to a non-descendant.
	err = mgr.EvolveInstance(context.Background(), fleet[1].LOID(), v1)
	fmt.Printf("\nevolve %s from 1.1 back to 1: %v\n", fleet[1].LOID(), err)
	if err == nil {
		return errors.New("increasing-version policy failed to deny ascent")
	}
	// But 1 -> 1.1.1 (skipping 1.1) is fine: still a descendant.
	if err := mgr.EvolveInstance(context.Background(), fleet[2].LOID(), v111); err != nil {
		return err
	}
	out, _ := fleet[2].InvokeMethod("motd", nil)
	fmt.Printf("evolve %s from 1 straight to 1.1.1: ok, motd=%q\n", fleet[2].LOID(), out)
	return nil
}
