// Command migration moves a live, stateful DCDO between two hosts of
// *different architectures* (§2.1 of the paper): functionally equivalent
// implementations of the same components are interchangeable, so the object
// comes back up at the destination bound to the implementation matching
// that host, with its state intact and clients healing their bindings
// automatically.
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

// The counter's dynamic functions: inc adds one to the state key "n" and
// answers the new count, build names the binary serving the call.
var (
	inc   = dcdo.DeclareFunction("inc", false, dcdo.NoneCodec, dcdo.UvarintCodec)
	build = dcdo.DeclareFunction("build", false, dcdo.NoneCodec, dcdo.RawCodec)
)

func counterFuncs(binary string) map[string]dcdo.Func {
	return map[string]dcdo.Func{
		inc.Name: inc.Func(func(c dcdo.Caller, _ dcdo.None) (uint64, error) {
			raw, _ := c.State().Get("n")
			n, _ := dcdo.UvarintCodec.Decode(raw) // absent reads as 0
			n++
			c.State().Set("n", dcdo.UvarintCodec.Encode(n))
			return n, nil
		}),
		build.Name: build.Func(func(dcdo.Caller, dcdo.None) ([]byte, error) {
			return []byte(binary), nil
		}),
	}
}

func run() error {
	// The same component, "compiled" for two architectures. In Legion this
	// would be two executables in two ICOs; here both binds live in the
	// registry under one code reference, distinguished by implementation
	// type, and the component descriptor is marked portable ("any").
	amd64 := dcdo.ImplType{Arch: "amd64", Format: "registry", Language: "go"}
	arm64 := dcdo.ImplType{Arch: "arm64", Format: "registry", Language: "go"}

	reg := dcdo.NewRegistry()
	if _, err := reg.Register("counter:1", amd64, counterFuncs("amd64 build")); err != nil {
		return err
	}
	if _, err := reg.Register("counter:1", arm64, counterFuncs("arm64 build")); err != nil {
		return err
	}
	comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
		ID: "counter", Revision: 1, CodeRef: "counter:1",
		Impl: dcdo.AnyImplType, CodeSize: 16 << 10,
		Functions: []dcdo.FunctionDecl{
			{Name: inc.Name, Exported: true},
			{Name: build.Name, Exported: true},
		},
	})
	if err != nil {
		return err
	}
	ico := dcdo.NewAllocator(1, 9).Next()
	fetcher := dcdo.FetcherFunc(func(dcdo.LOID) (*dcdo.Component, error) { return comp, nil })

	// Two hosts of different architectures sharing one binding agent.
	agent := dcdo.NewBindingAgent()
	net := dcdo.NewInprocNetwork()
	amdHost, err := dcdo.NewNode(dcdo.NodeConfig{Name: "amd64-host", Agent: agent, Inproc: net, HostImpl: amd64})
	if err != nil {
		return err
	}
	defer amdHost.Close()
	armHost, err := dcdo.NewNode(dcdo.NodeConfig{Name: "arm64-host", Agent: agent, Inproc: net, HostImpl: arm64})
	if err != nil {
		return err
	}
	defer armHost.Close()
	clientNode, err := dcdo.NewNode(dcdo.NodeConfig{Name: "client", Agent: agent, Inproc: net})
	if err != nil {
		return err
	}
	defer clientNode.Close()

	// The object starts on the amd64 host.
	loid := dcdo.NewAllocator(1, 1).Next()
	obj := dcdo.New(dcdo.Config{LOID: loid, Registry: reg, Fetcher: fetcher, HostImpl: amd64})
	if err := obj.IncorporateComponent(comp, ico, true); err != nil {
		return err
	}
	obj.SetVersion(dcdo.RootVersion)
	if _, err := amdHost.HostObject(loid, obj); err != nil {
		return err
	}

	show := func(stage string) error {
		ctx, client := context.Background(), clientNode.Client()
		binary, err := build.Call(ctx, client, loid, dcdo.None{})
		if err != nil {
			return err
		}
		n, err := inc.Call(ctx, client, loid, dcdo.None{})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s running %q, counter now %d\n", stage, binary, n)
		return nil
	}

	if err := show("before migration:"); err != nil {
		return err
	}
	if err := show("before migration:"); err != nil {
		return err
	}

	// Migrate: the destination incarnation is configured for the arm64
	// host; the capture carries version, configuration, and state, and the
	// destination rebuilds the implementation from arm64 binds.
	target := dcdo.New(dcdo.Config{LOID: loid, Registry: reg, Fetcher: fetcher, HostImpl: arm64})
	if err := dcdo.Migrate(loid, amdHost, armHost, obj, target); err != nil {
		return err
	}
	fmt.Printf("migrated %s from %s to %s\n", loid, amdHost.Name(), armHost.Name())

	// The client's cached binding is stale; its next call heals it
	// transparently, and the counter carries on from where it was.
	if err := show("after migration:"); err != nil {
		return err
	}
	if err := show("after migration:"); err != nil {
		return err
	}
	return nil
}
