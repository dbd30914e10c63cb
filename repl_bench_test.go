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
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/workload"
)

// BenchmarkInvokeUnreplicated measures the allocation cost of one in-process
// invoke of a degree-1 (unreplicated) DCDO. TestAllocBudgets holds allocs/op
// at the seed baseline: a degree-1 deployment never constructs a Replica, so
// replication must cost nothing when it is off.
func BenchmarkInvokeUnreplicated(b *testing.B) {
	call := inprocInvoke(b, "reploff", nil, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// replGroup is a degree-3 primary/backup group of a generated 20-function
// DCDO plus a "bump" counter, hosted on three inproc nodes, with a fourth
// node's client calling it.
type replGroup struct {
	client     *legion.Node
	agent      *naming.Agent
	loid       naming.LOID
	primaryObj *core.DCDO
	primary    *replica.Replica
	// read is a stateless generated leaf; "bump" is the one function that
	// writes.
	read string
}

// newReplGroup builds a replGroup whose nodes' names start with prefix. The
// nodes are closed when tb finishes.
func newReplGroup(tb testing.TB, prefix string) *replGroup {
	tb.Helper()
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	newNode := func(name string) *legion.Node {
		node, err := legion.NewNode(legion.NodeConfig{Name: prefix + "-" + name, Agent: agent, Inproc: net})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = node.Close() })
		return node
	}
	g := &replGroup{client: newNode("client"), agent: agent, loid: naming.LOID{Domain: 1, Class: 1, Instance: 1},
		read: workload.LeafName(prefix, 0, 0)}

	reg := registry.New()
	alloc := naming.NewAllocator(1, 9)
	built, err := workload.Build(reg, alloc, workload.Spec{Prefix: prefix, Functions: 20, Components: 2})
	if err != nil {
		tb.Fatal(err)
	}
	// The generated leaves are stateless; add the one function that writes.
	codeRef := prefix + "_ctr:1"
	if _, err := reg.Register(codeRef, registry.NativeImplType, map[string]registry.Func{
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
		tb.Fatal(err)
	}
	counter, err := component.NewSynthetic(component.Descriptor{
		ID: prefix + "_ctr", Revision: 1, CodeRef: codeRef, Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{{Name: "bump", Exported: true}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	counterICO := alloc.Next()
	built.Descriptor.Components[prefix+"_ctr"] = dfm.ComponentRef{
		ICO: counterICO, CodeRef: codeRef, Impl: registry.NativeImplType, CodeSize: 64, Revision: 1,
	}
	built.Descriptor.Entries = append(built.Descriptor.Entries,
		dfm.EntryDesc{Function: "bump", Component: prefix + "_ctr", Exported: true, Enabled: true})
	generated := built.Fetcher()
	fetcher := component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		if ico == counterICO {
			return counter, nil
		}
		return generated.Fetch(context.Background(), ico)
	})

	const degree = 3
	nodes := make([]*legion.Node, degree)
	endpoints := make([]string, degree)
	for i := range nodes {
		nodes[i] = newNode("server-" + string(rune('a'+i)))
		endpoints[i] = nodes[i].Endpoint()
	}
	for i, node := range nodes {
		obj := core.New(core.Config{LOID: g.loid, Registry: reg, Fetcher: fetcher})
		if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
			tb.Fatal(err)
		}
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		rep := replica.New(g.loid, obj, net.Dialer(), role, 1, backups)
		if i == 0 {
			g.primaryObj, g.primary = obj, rep
		}
		node.Dispatcher().Host(g.loid, rep)
	}
	if _, ok := agent.RegisterSet(g.loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		tb.Fatal("RegisterSet refused")
	}
	return g
}

// invoke calls method on the group from the client node.
func (g *replGroup) invoke(method string) error {
	_, err := g.client.Client().Invoke(context.Background(), g.loid, method, nil)
	return err
}

// backupReads lets the group serve idempotent reads off its backups and
// returns a call that the client spreads round-robin across all three
// members, wrapping the two backups' shares in repl.read.
func (g *replGroup) backupReads() func() error {
	g.agent.RegisterPolicy(g.loid, policy.DistributionPolicy{Degree: 3,
		ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual})
	return func() error {
		_, err := g.client.Client().InvokeIdempotent(context.Background(), g.loid, g.read, nil)
		return err
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
	g := newReplGroup(b, "replon")

	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.invoke(g.read); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-4KiB-resident", func(b *testing.B) {
		g.primaryObj.State().Set("resident", make([]byte, 4<<10))
		// The first shipment carries the resident bytes; time the ones after.
		if err := g.invoke("bump"); err != nil {
			b.Fatal(err)
		}
		before := g.primary.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.invoke("bump"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		after := g.primary.Stats()
		b.ReportMetric(float64(after.ShipBytes-before.ShipBytes)/float64(b.N), "shipped-B/op")
		if full := after.ShipsFull - before.ShipsFull; full != 0 {
			b.Fatalf("%d of %d shipments fell back to a full image", full, after.ShipsDelta-before.ShipsDelta+full)
		}
	})
}
