package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// The served population: populationObjects DCDOs, each with
// typeComponents × typeFunctions exported functions, so the binding cache,
// the dispatcher's object table and every DFM hold a working set rather than
// one hot entry. Per component: typeLeaves echo leaves, one intra-component
// caller and one inter-component caller (E1's call classes).
const (
	populationObjects = 64
	typeComponents    = 10
	typeFunctions     = 10
	typeLeaves        = typeFunctions - 2
	// extraComponents × extraFunctions are the functions version 1.1 adds.
	extraComponents = 5
	extraFunctions  = 2
)

var (
	versionBase = version.ID{1}
	versionNext = version.ID{1, 1}
)

func leafName(c, j int) string { return fmt.Sprintf("c%d_f%d", c, j) }
func intraName(c int) string   { return fmt.Sprintf("c%d_intra", c) }
func interName(c int) string   { return fmt.Sprintf("c%d_inter", c) }

// flippedLeaf is the leaf of each component that version 1.1 disables; no
// workload calls it.
const flippedLeaf = typeLeaves - 1

// An objectType is the benchmark's own object type: registered code,
// host-cached components, and the two version descriptors.
type objectType struct {
	reg     *registry.Registry
	fetcher component.Fetcher
	base    *dfm.Descriptor // version 1: typeComponents components, all enabled
	next    *dfm.Descriptor // version 1.1: + extraComponents, flippedLeaf disabled
	// replicated is base plus the counter component (bump, get).
	replicated *dfm.Descriptor

	all    []string // every function of version 1
	leaves []string // callable leaves (flippedLeaf excluded)
	intra  []string
	inter  []string
	stable []string // leaves + intra + inter: untouched by 1 ⇄ 1.1
}

const (
	counterKey = "n"
	blobKey    = "blob"
	blobBytes  = 4 << 10
)

func counterOf(c registry.Caller) uint64 {
	raw, ok := c.State().Get(counterKey)
	if !ok || len(raw) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(raw)
}

// newObjectType registers the type's code in a fresh registry. With a tracer,
// every function body is wrapped in a span; without one the bodies are bare.
func newObjectType(t *tracer) (*objectType, error) {
	ot := &objectType{reg: registry.New(), base: dfm.NewDescriptor()}
	wrap := func(f registry.Func) registry.Func {
		if t == nil {
			return f
		}
		return traceFunc(f, t)
	}
	echo := wrap(func(_ registry.Caller, args []byte) ([]byte, error) { return args, nil })
	forward := func(target string) registry.Func {
		return wrap(func(c registry.Caller, args []byte) ([]byte, error) {
			return c.CallInternal(target, args)
		})
	}
	comps := make(map[naming.LOID]*component.Component)
	icos := naming.NewAllocator(9, 1)
	add := func(desc *dfm.Descriptor, id string, funcs map[string]registry.Func, order []string) error {
		codeRef := id + ":1"
		if _, err := ot.reg.Register(codeRef, registry.NativeImplType, funcs); err != nil {
			return err
		}
		decls := make([]component.FunctionDecl, len(order))
		for i, name := range order {
			decls[i] = component.FunctionDecl{Name: name, Exported: true}
		}
		comp, err := component.NewSynthetic(component.Descriptor{
			ID: id, Revision: 1, CodeRef: codeRef, Impl: registry.NativeImplType,
			CodeSize: int64(len(order)) << 10, Functions: decls,
		})
		if err != nil {
			return err
		}
		ico := icos.Next()
		comps[ico] = comp
		desc.Components[id] = dfm.ComponentRef{
			ICO: ico, CodeRef: codeRef, Impl: registry.NativeImplType,
			CodeSize: comp.Desc.CodeSize, Revision: 1,
		}
		for _, name := range order {
			desc.Entries = append(desc.Entries, dfm.EntryDesc{
				Function: name, Component: id, Exported: true, Enabled: true,
			})
		}
		return nil
	}

	for c := 0; c < typeComponents; c++ {
		funcs := make(map[string]registry.Func, typeFunctions)
		order := make([]string, 0, typeFunctions)
		for j := 0; j < typeLeaves; j++ {
			funcs[leafName(c, j)] = echo
			order = append(order, leafName(c, j))
			if j != flippedLeaf {
				ot.leaves = append(ot.leaves, leafName(c, j))
			}
		}
		funcs[intraName(c)] = forward(leafName(c, 0))
		funcs[interName(c)] = forward(leafName((c+1)%typeComponents, 0))
		order = append(order, intraName(c), interName(c))
		ot.intra = append(ot.intra, intraName(c))
		ot.inter = append(ot.inter, interName(c))
		if err := add(ot.base, fmt.Sprintf("c%d", c), funcs, order); err != nil {
			return nil, err
		}
		ot.all = append(ot.all, order...)
	}
	ot.stable = append(append(append([]string(nil), ot.leaves...), ot.intra...), ot.inter...)

	ot.next = ot.base.Clone()
	for c := 0; c < typeComponents; c++ {
		ot.next.Entry(dfm.EntryKey{Function: leafName(c, flippedLeaf), Component: fmt.Sprintf("c%d", c)}).Enabled = false
	}
	for x := 0; x < extraComponents; x++ {
		funcs := make(map[string]registry.Func, extraFunctions)
		order := make([]string, 0, extraFunctions)
		for j := 0; j < extraFunctions; j++ {
			name := fmt.Sprintf("x%d_f%d", x, j)
			funcs[name] = echo
			order = append(order, name)
		}
		if err := add(ot.next, fmt.Sprintf("x%d", x), funcs, order); err != nil {
			return nil, err
		}
	}

	// The counter component: bump is the non-idempotent write, get the
	// idempotent read. Concurrent bumps reach the primary from several
	// handler goroutines, so the read-modify-write takes a lock.
	var bumpMu sync.Mutex
	ot.replicated = ot.base.Clone()
	err := add(ot.replicated, "counter", map[string]registry.Func{
		"bump": wrap(func(c registry.Caller, _ []byte) ([]byte, error) {
			bumpMu.Lock()
			defer bumpMu.Unlock()
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, counterOf(c)+1)
			c.State().Set(counterKey, out)
			return out, nil
		}),
		"get": wrap(func(c registry.Caller, args []byte) ([]byte, error) {
			out := make([]byte, 8+len(args))
			binary.LittleEndian.PutUint64(out, counterOf(c))
			copy(out[8:], args)
			return out, nil
		}),
	}, []string{"bump", "get"})
	if err != nil {
		return nil, err
	}

	ot.fetcher = component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		c, ok := comps[ico]
		if !ok {
			return nil, fmt.Errorf("benchmark: no component at %s", ico)
		}
		return c, nil
	})
	for _, d := range []*dfm.Descriptor{ot.base, ot.next, ot.replicated} {
		if err := d.ValidateInstantiable(); err != nil {
			return nil, err
		}
	}
	return ot, nil
}

func (ot *objectType) instantiate(loid naming.LOID, desc *dfm.Descriptor) (*core.DCDO, error) {
	obj := core.New(core.Config{LOID: loid, Registry: ot.reg, Fetcher: ot.fetcher})
	if _, err := obj.ApplyDescriptor(context.Background(), desc, versionBase); err != nil {
		return nil, fmt.Errorf("apply descriptor to %s: %w", loid, err)
	}
	return obj, nil
}

// stripes is the connection count per endpoint: min(2, nproc), so the
// benchmark never opens more connections to an endpoint than there are
// processors to serve them.
func stripes() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// A node is one loopback endpoint: a dispatcher behind a TCP server.
type node struct {
	disp *rpc.Dispatcher
	srv  *transport.TCPServer
}

func newNode(t *tracer) (*node, error) {
	n := &node{disp: rpc.NewDispatcher()}
	var h transport.Handler = n.disp
	if t != nil {
		h = &tracedHandler{inner: n.disp, t: t}
	}
	srv, err := transport.ListenTCPOptions("127.0.0.1:0", h, transport.TCPServerOptions{})
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return n, nil
}

// host serves obj at loid on n; with a tracer the object is wrapped.
func (n *node) host(loid naming.LOID, obj *core.DCDO, t *tracer) {
	if t != nil {
		n.disp.Host(loid, traceDCDO(obj, t))
		return
	}
	n.disp.Host(loid, obj)
}

// A cluster is the client and server sides of one workload, assembled from
// the public constructors in one process over host loopback.
type cluster struct {
	t      *tracer
	typ    *objectType
	agent  *naming.Agent
	cache  *naming.Cache
	dialer *transport.TCPDialer
	client *rpc.Client
	nodes  []*node
	objs   []*core.DCDO
	loids  []naming.LOID
}

// newCluster builds the population. With nodes == 0 nothing is served: the
// DCDOs exist for direct calls only. Otherwise the whole population is hosted
// on the first node and one call per object opens the connections and fills
// the binding cache.
func newCluster(t *tracer, nodes int) (*cluster, error) {
	typ, err := newObjectType(t)
	if err != nil {
		return nil, err
	}
	clk := vclock.Real{}
	c := &cluster{t: t, typ: typ, agent: naming.NewAgent(clk)}
	c.cache = naming.NewCache(c.agent, clk, 0)
	c.dialer = transport.NewTCPDialer()
	c.dialer.Stripes = stripes()
	var d transport.Dialer = c.dialer
	if t != nil {
		d = &tracedDialer{inner: c.dialer, t: t, kind: spanTransportCall}
	}
	c.client = rpc.NewClient(c.cache, d)
	for i := 0; i < nodes; i++ {
		n, err := newNode(t)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	for i := 0; i < populationObjects; i++ {
		loid := naming.LOID{Domain: 1, Class: 1, Instance: uint64(i + 1)}
		obj, err := typ.instantiate(loid, typ.base)
		if err != nil {
			c.close()
			return nil, err
		}
		c.objs = append(c.objs, obj)
		c.loids = append(c.loids, loid)
		if nodes > 0 {
			c.nodes[0].host(loid, obj, t)
			c.agent.Register(loid, naming.Address{Endpoint: c.nodes[0].srv.Endpoint()})
		}
	}
	if nodes > 0 {
		probe := make([]byte, opIDBytes)
		for _, loid := range c.loids {
			if _, err := c.client.Invoke(context.Background(), loid, leafName(0, 0), probe); err != nil {
				c.close()
				return nil, fmt.Errorf("open connections: %w", err)
			}
		}
	}
	return c, nil
}

func (c *cluster) close() {
	_ = c.dialer.Close()
	for _, n := range c.nodes {
		_ = n.srv.Close()
	}
}
