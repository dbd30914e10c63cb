// Package godcdo_test holds the benchmark harness: one testing.B benchmark
// per table/figure in the paper's performance study (E1–E7), plus ablation
// benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Modeled Centurion durations are emitted as "modeled-sec/op" metrics so
// multi-second 1999 costs coexist with nanosecond-scale mechanism timings.
package godcdo_test

import (
	"context"

	"fmt"
	"testing"
	"time"

	"godcdo/internal/baseline"
	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/simnet"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
	"godcdo/internal/workload"
)

// buildDCDO assembles a workload-generated DCDO for benchmarking.
func buildDCDO(tb testing.TB, reg *registry.Registry, spec workload.Spec, instance uint64) (*core.DCDO, *workload.Built) {
	tb.Helper()
	alloc := naming.NewAllocator(1, 9)
	built, err := workload.Build(reg, alloc, spec)
	if err != nil {
		tb.Fatal(err)
	}
	obj := core.New(core.Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: instance},
		Registry: reg,
		Fetcher:  built.Fetcher(),
	})
	if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
		tb.Fatal(err)
	}
	return obj, built
}

// --- E1: dynamic function call overhead --------------------------------------

func BenchmarkE1_CallOverhead(b *testing.B) {
	reg := registry.New()
	obj, _ := buildDCDO(b, reg, workload.Spec{
		Prefix: "b1", Functions: 100, Components: 10, WithCallers: true,
	}, 1)

	leaf := workload.LeafName("b1", 0, 0)
	module, err := reg.Load("b1_c0:1", registry.NativeImplType)
	if err != nil {
		b.Fatal(err)
	}
	direct, err := module.Func(leaf)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := direct(obj, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("self-exported", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := obj.InvokeMethod(leaf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("internal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := obj.CallInternal(leaf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intra-component", func(b *testing.B) {
		intra := workload.IntraCallerName("b1", 0)
		for i := 0; i < b.N; i++ {
			if _, err := obj.InvokeMethod(intra, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inter-component", func(b *testing.B) {
		inter := workload.InterCallerName("b1", 0)
		for i := 0; i < b.N; i++ {
			if _, err := obj.InvokeMethod(inter, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE1_TableScaling(b *testing.B) {
	for _, functions := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("functions-%d", functions), func(b *testing.B) {
			reg := registry.New()
			prefix := fmt.Sprintf("b1s%d", functions)
			obj, _ := buildDCDO(b, reg, workload.Spec{
				Prefix: prefix, Functions: functions, Components: 10,
			}, 1)
			target := workload.LeafName(prefix, 0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.InvokeMethod(target, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: remote invocation over TCP -------------------------------------------

func BenchmarkE2_RemoteInvocation(b *testing.B) {
	agent := naming.NewAgent(vclock.Real{})
	server, err := legion.NewNode(legion.NodeConfig{Name: "b2-server", Agent: agent})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := legion.NewNode(legion.NodeConfig{Name: "b2-client", Agent: agent})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	normalClass := legion.NewClass("b2-normal", naming.NewAllocator(1, 11),
		map[string]legion.Method{
			"noop": func(*legion.State, []byte) ([]byte, error) { return nil, nil },
		}, 550<<10)
	normalObj, err := normalClass.CreateInstance(server)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("normal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Client().Invoke(context.Background(), normalObj.LOID(), "noop", nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	for i, s := range []struct{ functions, components int }{{10, 1}, {100, 10}, {500, 50}} {
		name := fmt.Sprintf("dcdo-%dfns-%dcomps", s.functions, s.components)
		b.Run(name, func(b *testing.B) {
			// A fresh registry per run: the benchmark runner re-executes
			// this closure while calibrating N.
			reg := registry.New()
			prefix := fmt.Sprintf("b2w%d", i)
			obj, _ := buildDCDO(b, reg, workload.Spec{
				Prefix: prefix, Functions: s.functions, Components: s.components,
			}, uint64(i+1))
			if _, err := server.HostObject(obj.LOID(), obj); err != nil {
				b.Fatal(err)
			}
			target := workload.LeafName(prefix, 0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Client().Invoke(context.Background(), obj.LOID(), target, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: object creation ---------------------------------------------------------

func BenchmarkE3_Creation(b *testing.B) {
	model := simnet.Centurion()
	b.Run("monolithic-modeled", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total = model.CreationTime(1, true)
		}
		b.ReportMetric(total.Seconds(), "modeled-sec/op")
	})
	for _, comps := range []int{1, 5, 10, 25, 50} {
		b.Run(fmt.Sprintf("dcdo-%dcomps", comps), func(b *testing.B) {
			reg := registry.New()
			alloc := naming.NewAllocator(1, 9)
			built, err := workload.Build(reg, alloc, workload.Spec{
				Prefix: fmt.Sprintf("b3c%d", comps), Functions: 500, Components: comps,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(model.CreationTime(comps, false).Seconds(), "modeled-sec/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj := core.New(core.Config{
					LOID:     naming.LOID{Domain: 1, Class: 1, Instance: uint64(i + 1)},
					Registry: reg,
					Fetcher:  built.Fetcher(),
				})
				if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: stale bindings and downloads ----------------------------------------------

func BenchmarkE4_BaselineCosts(b *testing.B) {
	model := simnet.Centurion()
	schedule := naming.DefaultDiscoverySchedule()

	b.Run("stale-binding-discovery-modeled", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total = schedule.TotalDiscoveryTime()
		}
		b.ReportMetric(total.Seconds(), "modeled-sec/op")
	})

	for _, size := range []int64{550 << 10, 5_347_738} {
		b.Run(fmt.Sprintf("download-%s", sizeLabel(size)), func(b *testing.B) {
			agent := naming.NewAgent(vclock.Real{})
			net := transport.NewInprocNetwork()
			host, err := legion.NewNode(legion.NodeConfig{Name: fmt.Sprintf("b4-%d", size), Agent: agent, Inproc: net})
			if err != nil {
				b.Fatal(err)
			}
			defer host.Close()
			comp, err := component.NewSynthetic(component.Descriptor{
				ID: "payload", Revision: 1, CodeRef: "payload:1",
				Impl: registry.NativeImplType, CodeSize: size,
				Functions: []component.FunctionDecl{{Name: "f", Exported: true}},
			})
			if err != nil {
				b.Fatal(err)
			}
			ico := naming.LOID{Domain: 1, Class: 7, Instance: uint64(size)}
			if _, err := host.HostObject(ico, component.NewICO(comp)); err != nil {
				b.Fatal(err)
			}
			fetcher := &component.RemoteFetcher{Client: host.Client()}
			b.ReportMetric(model.TransferTime(size).Seconds(), "modeled-sec/op")
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fetcher.Fetch(context.Background(), ico); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeLabel(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%dKB", n>>10)
}

// --- E5: DCDO evolution cost ---------------------------------------------------------

func BenchmarkE5_DCDOEvolution(b *testing.B) {
	model := simnet.Centurion()

	b.Run("toggle-function", func(b *testing.B) {
		reg := registry.New()
		obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "b5t", Functions: 50, Components: 5}, 1)
		key := dfm.EntryKey{Function: workload.LeafName("b5t", 0, 0), Component: "b5t_c0"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := obj.DisableFunction(key); err != nil {
				b.Fatal(err)
			}
			if err := obj.EnableFunction(key); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("retune-descriptor", func(b *testing.B) {
		reg := registry.New()
		obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "b5r", Functions: 50, Components: 5}, 1)
		flip := obj.Snapshot()
		for i := range flip.Entries {
			flip.Entries[i].Exported = false
		}
		orig := obj.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.ApplyDescriptor(context.Background(), flip, version.ID{1, 1}); err != nil {
				b.Fatal(err)
			}
			if _, err := obj.ApplyDescriptor(context.Background(), orig, version.ID{1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("incorporate-cached-component", func(b *testing.B) {
		reg := registry.New()
		obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "b5b", Functions: 10, Components: 1}, 1)
		alloc := naming.NewAllocator(1, 9)
		extra, err := workload.Build(reg, alloc, workload.Spec{Prefix: "b5x", Functions: 1, Components: 1})
		if err != nil {
			b.Fatal(err)
		}
		comp := extra.Components[0]
		ico := extra.ICOs[comp.Desc.ID]
		b.ReportMetric(model.ComponentBind.Seconds(), "modeled-sec/op")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := obj.IncorporateComponent(comp, ico, false); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := obj.RemoveComponent(comp.Desc.ID); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})

	b.Run("incorporate-uncached-550KB-modeled", func(b *testing.B) {
		cost := baseline.DCDOEvolutionCost{UncachedBytes: []int64{550 << 10}}
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total = cost.Model(model)
		}
		b.ReportMetric(total.Seconds(), "modeled-sec/op")
	})
}

// evolvePair builds an object of objFuncs functions (ten per component) at a
// base version, and a next version that differs from it in diff table
// entries, in the benchmark's proportions: half are leaves of existing
// components that next disables, half are functions arriving in new
// two-function components.
func evolvePair(tb testing.TB, prefix string, objFuncs, diff int) (obj *core.DCDO, base, next *dfm.Descriptor) {
	tb.Helper()
	reg := registry.New()
	alloc := naming.NewAllocator(1, 9)
	comps := objFuncs / 10
	built, err := workload.Build(reg, alloc, workload.Spec{Prefix: prefix, Functions: objFuncs, Components: comps})
	if err != nil {
		tb.Fatal(err)
	}
	fetchers := []component.Fetcher{built.Fetcher()}
	base, next = built.Descriptor, built.Descriptor.Clone()
	for k := 0; k < (diff+1)/2; k++ {
		c := k % comps
		next.Entry(dfm.EntryKey{
			Function: workload.LeafName(prefix, c, k/comps), Component: fmt.Sprintf("%s_c%d", prefix, c),
		}).Enabled = false
	}
	if arriving := diff / 2; arriving > 0 {
		extra, err := workload.Build(reg, alloc, workload.Spec{
			Prefix: prefix + "x", Functions: arriving, Components: (arriving + 1) / 2,
		})
		if err != nil {
			tb.Fatal(err)
		}
		fetchers = append(fetchers, extra.Fetcher())
		for id, ref := range extra.Descriptor.Components {
			next.Components[id] = ref
		}
		next.Entries = append(next.Entries, extra.Descriptor.Entries...)
	}
	obj = core.New(core.Config{
		LOID:     naming.LOID{Domain: 1, Class: 1, Instance: 1},
		Registry: reg,
		Fetcher: component.FetcherFunc(func(ico naming.LOID) (c *component.Component, err error) {
			for _, f := range fetchers {
				if c, err = f.Fetch(context.Background(), ico); err == nil {
					return c, nil
				}
			}
			return nil, err
		}),
	})
	if _, err := obj.ApplyDescriptor(context.Background(), base, version.ID{1}); err != nil {
		tb.Fatal(err)
	}
	return obj, base, next
}

// BenchmarkApplyDescriptor is the paper's E5 shape criterion on the mechanism
// itself: one op is one ApplyDescriptor between two versions diff entries
// apart, on an object of obj functions. The cost should follow diff and grow
// at most linearly, with a small constant, in obj (EXPERIMENTS.md E5).
func BenchmarkApplyDescriptor(b *testing.B) {
	for _, diff := range []int{1, 10, 50} {
		for _, objFuncs := range []int{100, 500, 1000} {
			b.Run(fmt.Sprintf("diff=%d/obj=%d", diff, objFuncs), func(b *testing.B) {
				obj, base, next := evolvePair(b, "ba", objFuncs, diff)
				targets := []*dfm.Descriptor{next, base}
				versions := []version.ID{{1, 1}, {1}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := obj.ApplyDescriptor(context.Background(), targets[i%2], versions[i%2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkApplyPlan is BenchmarkApplyDescriptor on the plan route: one op is
// one ApplyPlan of a change planned once per version pair, as the manager's
// Store plans it, so no op plans or copies the table.
func BenchmarkApplyPlan(b *testing.B) {
	for _, diff := range []int{1, 10, 50} {
		for _, objFuncs := range []int{100, 500, 1000} {
			b.Run(fmt.Sprintf("diff=%d/obj=%d", diff, objFuncs), func(b *testing.B) {
				obj, base, next := evolvePair(b, "bp", objFuncs, diff)
				plans := []core.PlanArgs{
					{From: version.ID{1}, To: version.ID{1, 1}, Change: dfm.NewChange(base, next)},
					{From: version.ID{1, 1}, To: version.ID{1}, Change: dfm.NewChange(next, base)},
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := obj.ApplyPlan(context.Background(), plans[i%2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E6: DCDO vs baseline evolution ---------------------------------------------------

func BenchmarkE6_EvolutionComparison(b *testing.B) {
	model := simnet.Centurion()
	schedule := naming.DefaultDiscoverySchedule()

	b.Run("baseline-pipeline", func(b *testing.B) {
		var modeled time.Duration
		for i := 0; i < b.N; i++ {
			agent := naming.NewAgent(vclock.Real{})
			net := transport.NewInprocNetwork()
			node, err := legion.NewNode(legion.NodeConfig{
				Name: fmt.Sprintf("b6-%d", i), Agent: agent, Inproc: net,
			})
			if err != nil {
				b.Fatal(err)
			}
			methods := map[string]legion.Method{
				"noop": func(*legion.State, []byte) ([]byte, error) { return nil, nil },
			}
			v1 := legion.NewClass("b6v1", naming.NewAllocator(1, 13), methods, 550<<10)
			v2 := legion.NewClass("b6v2", naming.NewAllocator(1, 13), methods, 550<<10)
			obj, err := v1.CreateInstance(node)
			if err != nil {
				b.Fatal(err)
			}
			obj.State().Set("blob", make([]byte, 64<<10))
			ev := &baseline.Evolver{Model: model, Discovery: schedule}
			costs, _, err := ev.Evolve(baseline.Input{
				LOID: obj.LOID(), Src: node, Obj: obj, NewClass: v2,
				ClientsHoldBindings: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			modeled = costs.Total()
			_ = node.Close()
		}
		b.ReportMetric(modeled.Seconds(), "modeled-sec/op")
	})

	b.Run("dcdo-retune", func(b *testing.B) {
		reg := registry.New()
		obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "b6d", Functions: 20, Components: 2}, 1)
		flip := obj.Snapshot()
		for i := range flip.Entries {
			flip.Entries[i].Exported = false
		}
		orig := obj.Snapshot()
		cost := baseline.DCDOEvolutionCost{RetuneOps: 20}
		b.ReportMetric(cost.Model(model).Seconds(), "modeled-sec/op")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.ApplyDescriptor(context.Background(), flip, version.ID{1, 1}); err != nil {
				b.Fatal(err)
			}
			if _, err := obj.ApplyDescriptor(context.Background(), orig, version.ID{1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: invoke under injected faults -------------------------------------------------

func BenchmarkE7_FaultedInvoke(b *testing.B) {
	for _, rate := range []float64{0, 0.1} {
		b.Run(fmt.Sprintf("drop-%.0fpct", rate*100), func(b *testing.B) {
			clk := vclock.Real{}
			agent := naming.NewAgent(clk)
			cache := naming.NewCache(agent, clk, 0)
			net := transport.NewInprocNetwork()
			disp := rpc.NewDispatcher()
			srv, err := net.Listen("b7", disp)
			if err != nil {
				b.Fatal(err)
			}
			loid := naming.LOID{Domain: 1, Class: 7, Instance: 1}
			disp.Host(loid, rpc.ObjectFunc(func(method string, args []byte) ([]byte, error) {
				return nil, nil
			}))
			agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
			faults := transport.NewFaults(42)
			faults.SetEndpoint(srv.Endpoint(), transport.FaultConfig{DropResponse: rate})
			client := rpc.NewClient(cache, transport.NewFaultDialer(net.Dialer(), faults))
			client.Retry = rpc.RetryPolicy{
				CallTimeout: 5 * time.Millisecond,
				MaxAttempts: 8,
				MaxRebinds:  2,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  4 * time.Millisecond,
				Multiplier:  2,
				Jitter:      0.2,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.InvokeIdempotent(context.Background(), loid, "get", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: transport fast path ---------------------------------------------------------

// tcpEchoClient builds a TCP node hosting an echo object plus a client over
// a dialer with the given stripe count, mirroring the E10 harness setup.
// Both are closed when tb finishes.
func tcpEchoClient(tb testing.TB, stripes int, cfg legion.NodeConfig) (*rpc.Client, naming.LOID) {
	loid := naming.LOID{Domain: 10, Class: 10, Instance: 1}
	return tcpClient(tb, stripes, cfg, loid, rpc.ObjectFunc(func(_ string, args []byte) ([]byte, error) {
		return args, nil
	})), loid
}

// tcpDCDOEcho hosts a DCDO whose one exported function, "echo", returns its
// args, on a TCP node, and returns a 64-byte echo invoke of it: the
// benchmark's rpc_seq call, DFM included.
func tcpDCDOEcho(tb testing.TB) func() error {
	tb.Helper()
	reg := registry.New()
	if _, err := reg.Register("echo_c:1", registry.NativeImplType, map[string]registry.Func{
		"echo": func(_ registry.Caller, args []byte) ([]byte, error) { return args, nil },
	}); err != nil {
		tb.Fatal(err)
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: "echo_c", Revision: 1, CodeRef: "echo_c:1", Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{{Name: "echo", Exported: true}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	desc := dfm.NewDescriptor()
	desc.Components["echo_c"] = dfm.ComponentRef{
		ICO: naming.LOID{Domain: 1, Class: 9, Instance: 1}, CodeRef: "echo_c:1",
		Impl: registry.NativeImplType, CodeSize: 64, Revision: 1,
	}
	desc.Entries = append(desc.Entries, dfm.EntryDesc{Function: "echo", Component: "echo_c", Exported: true, Enabled: true})
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 1}
	obj := core.New(core.Config{LOID: loid, Registry: reg,
		Fetcher: component.FetcherFunc(func(naming.LOID) (*component.Component, error) { return comp, nil })})
	if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
		tb.Fatal(err)
	}
	client := tcpClient(tb, 1, legion.NodeConfig{Name: "dcdo-tcp"}, loid, obj)
	payload := make([]byte, 64)
	return func() error {
		_, err := client.Invoke(context.Background(), loid, "echo", payload)
		return err
	}
}

// tcpClient hosts obj at loid on a fresh TCP node built from cfg and returns
// a client reaching it through a dialer with the given stripe count. The
// node and dialer are closed when tb finishes.
func tcpClient(tb testing.TB, stripes int, cfg legion.NodeConfig, loid naming.LOID, obj rpc.Object) *rpc.Client {
	tb.Helper()
	agent := naming.NewAgent(vclock.Real{})
	cfg.Agent, cfg.TCPAddr = agent, "127.0.0.1:0"
	node, err := legion.NewNode(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = node.Close() })
	if _, err := node.HostObject(loid, obj); err != nil {
		tb.Fatal(err)
	}
	dialer := transport.NewTCPDialer()
	dialer.Stripes = stripes
	tb.Cleanup(func() { _ = dialer.Close() })
	client := rpc.NewClient(naming.NewCache(agent, vclock.Real{}, 0), dialer)
	client.Retry.CallTimeout = 10 * time.Second
	return client
}

// BenchmarkE10_TransportFastPath is the testing.B face of experiment E10:
// invoke over TCP loopback, sequential (run with -benchmem for the alloc
// story) and pipelined (RunParallel; the coalescing/striping story).
func BenchmarkE10_TransportFastPath(b *testing.B) {
	payload := make([]byte, 64)
	b.Run("fast/sequential", func(b *testing.B) {
		client, loid := tcpEchoClient(b, 4, legion.NodeConfig{Name: "bench-e10"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Invoke(context.Background(), loid, "echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast/pipelined-64", func(b *testing.B) {
		client, loid := tcpEchoClient(b, 4, legion.NodeConfig{Name: "bench-e10"})
		b.SetParallelism(64)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Invoke(context.Background(), loid, "echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// --- E15: batched scatter-gather invoke -----------------------------------------------

// batchInvoke returns one size-call echo batch over TCP loopback against a
// default-configured node, reusing one Batch across calls.
func batchInvoke(tb testing.TB, size int) func() error {
	client, loid := tcpEchoClient(tb, 4, legion.NodeConfig{Name: "bench-e15"})
	payload := make([]byte, 64)
	batch := client.NewBatch()
	return func() error {
		batch.Reset()
		for j := 0; j < size; j++ {
			batch.Add(loid, "echo", payload)
		}
		for k, r := range batch.Invoke(context.Background()) {
			if r.Err != nil {
				return fmt.Errorf("sub %d: %w", k, r.Err)
			}
		}
		return nil
	}
}

// BenchmarkInvokeBatch is the testing.B face of experiment E15: N echo
// sub-calls per batch frame. allocs/op is allocs per batch; TestAllocBudgets
// holds the 16-call batch to its budget.
func BenchmarkInvokeBatch(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			call := batchInvoke(b, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (design decisions from DESIGN.md) ----------------------------------------

// Ablation 1: DFM lookup via atomic snapshot (the implementation) vs taking
// the mutation mutex on every call.
func BenchmarkAblation_DFMLookup(b *testing.B) {
	reg := registry.New()
	obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "ab1", Functions: 100, Components: 10}, 1)
	target := workload.LeafName("ab1", 0, 0)
	table := obj.DFM()

	b.Run("atomic-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.Peek(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.LookupMutex(target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 2: cost of the active-thread counters on the invocation path.
func BenchmarkAblation_ThreadCounters(b *testing.B) {
	reg := registry.New()
	obj, _ := buildDCDO(b, reg, workload.Spec{Prefix: "ab2", Functions: 100, Components: 10}, 1)
	target := workload.LeafName("ab2", 0, 0)
	table := obj.DFM()

	b.Run("with-counters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, release, err := table.BeginCall(target)
			if err != nil {
				b.Fatal(err)
			}
			release()
		}
	})
	b.Run("without-counters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := table.Peek(target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 3: copy-on-derive descriptor clones across version sizes.
func BenchmarkAblation_DescriptorClone(b *testing.B) {
	for _, entries := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			desc := dfm.NewDescriptor()
			for i := 0; i < entries; i++ {
				comp := fmt.Sprintf("c%d", i%10)
				desc.Components[comp] = dfm.ComponentRef{CodeRef: comp}
				desc.Entries = append(desc.Entries, dfm.EntryDesc{
					Function: fmt.Sprintf("f%d", i), Component: comp, Enabled: true,
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := desc.Clone(); len(got.Entries) != entries {
					b.Fatal("bad clone")
				}
			}
		})
	}
}

// Ablation 4: manager version operations — derive (logical copy) and the
// instantiability validation gate across descriptor sizes.
func BenchmarkAblation_ManagerVersionOps(b *testing.B) {
	for _, entries := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("derive-entries-%d", entries), func(b *testing.B) {
			reg := registry.New()
			alloc := naming.NewAllocator(1, 9)
			built, err := workload.Build(reg, alloc, workload.Spec{
				Prefix: fmt.Sprintf("mgr%d", entries), Functions: entries, Components: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			// A fresh store per batch keeps the version tree a realistic
			// size instead of accumulating b.N children under one root.
			const batch = 64
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				b.StopTimer()
				store := manager.NewStore()
				root, err := store.CreateRoot(built.Descriptor)
				if err != nil {
					b.Fatal(err)
				}
				if err := store.MarkInstantiable(root); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := 0; j < batch && i+j < b.N; j++ {
					child, err := store.Derive(root)
					if err != nil {
						b.Fatal(err)
					}
					if err := store.MarkInstantiable(child); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// Ablation 5: wire envelope codec throughput.
func BenchmarkAblation_WireEnvelope(b *testing.B) {
	env := &wire.Envelope{
		Kind: wire.KindRequest, ID: 42, Target: "loid:1.2.3",
		Method: "price", Payload: make([]byte, 256),
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := env.Encode(); len(out) == 0 {
				b.Fatal("empty encode")
			}
		}
	})
	encoded := env.Encode()
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeEnvelope(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
}
