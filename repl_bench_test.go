package godcdo_test

import (
	"context"
	"encoding/binary"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/workload"
)

// BenchmarkInvokeUnreplicated measures the allocation cost of one in-process
// invoke of a degree-1 (unreplicated) DCDO. `make vet-repl` asserts
// allocs/op stays at the seed baseline: a degree-1 deployment never
// constructs a Replica, so replication must cost nothing when it is off.
func BenchmarkInvokeUnreplicated(b *testing.B) {
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	server, err := legion.NewNode(legion.NodeConfig{Name: "repl-off-server", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := legion.NewNode(legion.NodeConfig{Name: "repl-off-client", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	reg := registry.New()
	obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "reploff", Functions: 20, Components: 2}, 1)
	if _, err := server.HostObject(obj.LOID(), obj); err != nil {
		b.Fatal(err)
	}
	target := workload.LeafName("reploff", 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Client().Invoke(context.Background(), obj.LOID(), target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeReplicated measures what being replicated costs one invoke
// against a degree-3 primary/backup group. "read": the call runs through the
// Replica wrapper's role check and state-generation comparison, but a read
// leaves the state generation unchanged, so nothing ships — the delta
// against BenchmarkInvokeUnreplicated is the per-call price of the wrapper.
// "write-4KiB-resident": an 8-byte counter bump on an object that also holds
// 4 KiB it does not touch; shipped-B/op is what reaches the two backups per
// write, and must track the bytes changed, not the bytes resident.
func BenchmarkInvokeReplicated(b *testing.B) {
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	client, err := legion.NewNode(legion.NodeConfig{Name: "repl-on-client", Agent: agent, Inproc: net})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	reg := registry.New()
	alloc := naming.NewAllocator(1, 9)
	built, err := workload.Build(reg, alloc, workload.Spec{Prefix: "replon", Functions: 20, Components: 2})
	if err != nil {
		b.Fatal(err)
	}
	// The generated leaves are stateless; add the one function that writes.
	if _, err := reg.Register("replon_ctr:1", registry.NativeImplType, map[string]registry.Func{
		"bump": func(c registry.Caller, _ []byte) ([]byte, error) {
			var n [8]byte
			if raw, ok := c.State().Get("n"); ok {
				copy(n[:], raw)
			}
			binary.LittleEndian.PutUint64(n[:], binary.LittleEndian.Uint64(n[:])+1)
			c.State().Set("n", n[:])
			return nil, nil
		},
	}); err != nil {
		b.Fatal(err)
	}
	counter, err := component.NewSynthetic(component.Descriptor{
		ID: "replon_ctr", Revision: 1, CodeRef: "replon_ctr:1", Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{{Name: "bump", Exported: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	counterICO := alloc.Next()
	built.Descriptor.Components["replon_ctr"] = dfm.ComponentRef{
		ICO: counterICO, CodeRef: "replon_ctr:1", Impl: registry.NativeImplType, CodeSize: 64, Revision: 1,
	}
	built.Descriptor.Entries = append(built.Descriptor.Entries,
		dfm.EntryDesc{Function: "bump", Component: "replon_ctr", Exported: true, Enabled: true})
	generated := built.Fetcher()
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		if ico == counterICO {
			return counter, nil
		}
		return generated.Fetch(context.Background(), ico)
	})
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 1}

	const degree = 3
	endpoints := make([]string, degree)
	nodes := make([]*legion.Node, degree)
	for i := 0; i < degree; i++ {
		node, err := legion.NewNode(legion.NodeConfig{
			Name: "repl-on-server-" + string(rune('a'+i)), Agent: agent, Inproc: net,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		endpoints[i] = node.Endpoint()
	}
	var primaryObj *core.DCDO
	var primary *replica.Replica
	for i, node := range nodes {
		obj := core.New(core.Config{LOID: loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
			b.Fatal(err)
		}
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		rep := replica.New(loid, obj, net.Dialer(), role, 1, backups)
		if i == 0 {
			primaryObj, primary = obj, rep
		}
		node.Dispatcher().Host(loid, rep)
	}
	if _, ok := agent.RegisterSet(loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		b.Fatal("RegisterSet refused")
	}

	b.Run("read", func(b *testing.B) {
		target := workload.LeafName("replon", 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Client().Invoke(context.Background(), loid, target, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-4KiB-resident", func(b *testing.B) {
		primaryObj.State().Set("resident", make([]byte, 4<<10))
		// The first shipment carries the resident bytes; time the ones after.
		if _, err := client.Client().Invoke(context.Background(), loid, "bump", nil); err != nil {
			b.Fatal(err)
		}
		before := primary.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Client().Invoke(context.Background(), loid, "bump", nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := primary.Stats()
		b.ReportMetric(float64(after.ShipBytes-before.ShipBytes)/float64(b.N), "shipped-B/op")
		if full := after.ShipsFull - before.ShipsFull; full != 0 {
			b.Fatalf("%d of %d shipments fell back to a full image", full, after.ShipsDelta-before.ShipsDelta+full)
		}
	})
}
