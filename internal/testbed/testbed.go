// Package testbed stands up the in-process clusters the chaos drills run
// on, from one declaration: the binding agent, a seeded fault dialer and
// the client, the greet and replicated-counter object types, a journalled
// manager whose store holds a root plus one derived child per further
// greet implementation, plain DCDOs and replica groups on their own
// endpoints, replica-host spares and, on request, a standby manager fed by
// journal shipping. Close tears down what Build opened and fails when
// goroutines started since Build are still running.
package testbed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// settleWait bounds how long Close waits for the goroutines a drill started
// to exit before it calls them leaked.
const settleWait = 2 * time.Second

// The dynamic functions of the testbed's object types.
var (
	// Greet answers a greeting's text, unframed.
	Greet = rpc.Function[rpc.None, []byte]{Name: "greet", Idempotent: true, Args: rpc.NoneCodec, Result: rpc.RawCodec}
	// Add adds its argument to the counter and answers the new total.
	Add = rpc.Function[uint64, uint64]{Name: "add", Args: rpc.UvarintCodec, Result: rpc.UvarintCodec}
	// Bump adds one to the counter, through an intra-object call of Add,
	// and answers the new total.
	Bump = rpc.Function[rpc.None, uint64]{Name: "bump", Args: rpc.NoneCodec, Result: rpc.UvarintCodec}
	// Total answers the counter.
	Total = rpc.Function[rpc.None, uint64]{Name: "total", Idempotent: true, Args: rpc.NoneCodec, Result: rpc.UvarintCodec}
)

// counter reads the counter from the object's state key "n"; an absent key
// reads as 0.
func counter(c registry.Caller) uint64 {
	raw, _ := c.State().Get("n")
	n, _ := rpc.UvarintCodec.Decode(raw)
	return n
}

// Greeting is one implementation of the greet type: a component whose
// Greet function sleeps Delay, then answers Text.
type Greeting struct {
	ID    string
	Text  string
	Delay time.Duration
}

// Config declares a cluster.
type Config struct {
	// Name prefixes the testbed's temporary directory and its errors.
	Name string
	// Seed seeds the fault rules behind the client and the replicas.
	Seed int64
	// Retry replaces the client's default retry policy when it is set.
	Retry rpc.RetryPolicy
	// Greetings are the greet implementations. The store's root, version
	// 1, enables the first; each later one is enabled, alone, by a child
	// derived from the root.
	Greetings []Greeting
	// Counter adds the replicated counter to every version: Add, Bump and
	// Total over the state key "n".
	Counter bool
	// Fleet is the number of plain DCDOs, created at version 1.
	Fleet int
	// Groups are the sizes of the replica groups, each at version 1.
	Groups []int
	// Spares is the number of replica-host nodes groups can grow onto.
	Spares int
	// Standby adds a standby manager the primary's journal ships to.
	Standby bool
}

// Takeover is the standby's takeover: the recovery it ran over the shipped
// journal and the manager epoch it took.
type Takeover struct {
	Report manager.RecoveryReport
	Epoch  uint64
	err    error
}

// Testbed is a running cluster.
type Testbed struct {
	Obs    *obs.Obs
	Agent  *naming.Agent
	Cache  *naming.Cache
	Faults *transport.Faults
	// Dialer is the fault dialer the client and the replicas call through.
	Dialer transport.Dialer
	Client *rpc.Client

	// Mgr is the primary manager.
	Mgr *manager.Manager
	// MgrLOID is the primary manager's RPC surface, hosted on its node
	// beside the health service.
	MgrLOID naming.LOID
	// Versions are the store's versions: the root, then the children.
	Versions []version.ID

	// Fleet lists the plain DCDOs in instance order; Endpoints maps each
	// to its endpoint.
	Fleet     []naming.LOID
	Endpoints map[naming.LOID]string
	Groups    []*replica.Group
	Spares    []string

	// Standby and the primary's journal shipper to it are set when
	// Config.Standby is.
	Standby *manager.Standby
	Shipper *manager.JournalShipper

	name     string
	dir      string
	reg      *registry.Registry
	fetcher  component.Fetcher
	net      *transport.InprocNetwork
	mgrNode  *transport.InprocServer
	journals []*manager.Journal
	takeover chan Takeover
	stop     context.CancelFunc
	before   map[string]string
}

// Build stands up the cluster cfg declares. On failure it tears down what
// it had built.
func Build(cfg Config) (*Testbed, error) {
	tb := &Testbed{
		name:      cfg.Name,
		before:    goroutines(nil),
		Obs:       obs.New(),
		reg:       registry.New(),
		Endpoints: make(map[naming.LOID]string),
		MgrLOID:   naming.LOID{Domain: 0, Class: 2, Instance: 9},
	}
	var err error
	if tb.dir, err = os.MkdirTemp("", cfg.Name+"-*"); err != nil {
		return nil, err
	}
	if err := tb.build(context.Background(), cfg); err != nil {
		return nil, errors.Join(fmt.Errorf("%s: build: %w", cfg.Name, err), tb.Close())
	}
	return tb, nil
}

func (tb *Testbed) build(ctx context.Context, cfg Config) error {
	clk := vclock.Real{}
	tb.Agent = naming.NewAgent(clk)
	tb.Cache = naming.NewCache(tb.Agent, clk, 0)
	tb.net = transport.NewInprocNetwork()
	tb.Faults = transport.NewFaults(cfg.Seed)
	tb.Dialer = transport.NewFaultDialer(tb.net.Dialer(), tb.Faults)
	tb.Client = rpc.NewClient(tb.Cache, tb.Dialer)
	tb.Client.ObserveStages(tb.Obs.Metrics)
	if cfg.Retry != (rpc.RetryPolicy{}) {
		tb.Client.Retry = cfg.Retry
	}
	if err := tb.store(cfg); err != nil {
		return err
	}
	j, err := tb.openJournal("primary.journal")
	if err != nil {
		return err
	}
	tb.Mgr.SetJournal(j)
	mgrDisp, mgrNode, err := tb.listen("mgr1")
	if err != nil {
		return err
	}
	mgrDisp.Host(rpc.HealthLOID, rpc.NewHealthService("mgr1", clk, mgrDisp.Len))
	mgrDisp.Host(tb.MgrLOID, &manager.Object{Mgr: tb.Mgr})
	tb.Agent.Register(tb.MgrLOID, naming.Address{Endpoint: mgrNode.Endpoint()})
	tb.mgrNode = mgrNode

	for i := 1; i <= cfg.Fleet; i++ {
		loid := naming.LOID{Domain: 1, Class: 1, Instance: uint64(i)}
		disp, srv, err := tb.listen(loid.String())
		if err != nil {
			return err
		}
		disp.Host(loid, core.New(core.Config{LOID: loid, Registry: tb.reg, Fetcher: tb.fetcher}))
		tb.Agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
		if err := tb.Mgr.CreateInstance(ctx, tb.instance(loid), tb.Versions[0], registry.NativeImplType); err != nil {
			return err
		}
		tb.Fleet = append(tb.Fleet, loid)
		tb.Endpoints[loid] = srv.Endpoint()
	}
	for i, size := range cfg.Groups {
		if err := tb.group(ctx, naming.LOID{Domain: 2, Class: 1, Instance: uint64(i + 1)}, size); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Spares; i++ {
		disp, srv, err := tb.listen(fmt.Sprintf("s%d", i))
		if err != nil {
			return err
		}
		disp.Host(rpc.ReplicaHostLOID, &replica.HostService{
			Factory: func(loid naming.LOID) (replica.Inner, error) { return tb.member(ctx, loid) },
			Dialer:  tb.Dialer,
			Host:    disp.Host,
		})
		tb.Spares = append(tb.Spares, srv.Endpoint())
	}
	if cfg.Standby {
		return tb.standby()
	}
	return nil
}

// store registers the object types and fills the primary manager's store:
// the root, with every component present and the first greeting and the
// counter enabled, then one child per further greeting. It persists the
// store image the way a production node would, before any evolution
// starts: a restarted or standby manager rebuilds from it.
func (tb *Testbed) store(cfg Config) error {
	comps := make(map[naming.LOID]*component.Component)
	desc := dfm.NewDescriptor()
	add := func(id string, enabled bool, funcs map[string]registry.Func, names ...string) error {
		ico := naming.LOID{Domain: 1, Class: 8, Instance: uint64(len(comps) + 1)}
		ref := id + ":1"
		decls := make([]component.FunctionDecl, 0, len(names))
		for _, name := range names {
			decls = append(decls, component.FunctionDecl{Name: name, Exported: true})
			desc.Entries = append(desc.Entries, dfm.EntryDesc{Function: name, Component: id, Exported: true, Enabled: enabled})
		}
		desc.Components[id] = dfm.ComponentRef{ICO: ico, CodeRef: ref, Impl: registry.NativeImplType, CodeSize: 32, Revision: 1}
		if _, err := tb.reg.Register(ref, registry.NativeImplType, funcs); err != nil {
			return err
		}
		comp, err := component.NewSynthetic(component.Descriptor{ID: id, Revision: 1, CodeRef: ref,
			Impl: registry.NativeImplType, CodeSize: 32, Functions: decls})
		comps[ico] = comp
		return err
	}
	for i, g := range cfg.Greetings {
		text, delay := g.Text, g.Delay
		if err := add(g.ID, i == 0, map[string]registry.Func{
			Greet.Name: Greet.Func(func(registry.Caller, rpc.None) ([]byte, error) {
				time.Sleep(delay)
				return []byte(text), nil
			}),
		}, Greet.Name); err != nil {
			return err
		}
	}
	if cfg.Counter {
		if err := add("counter", true, map[string]registry.Func{
			Add.Name: Add.Func(func(c registry.Caller, n uint64) (uint64, error) {
				n += counter(c)
				c.State().Set("n", rpc.UvarintCodec.Encode(n))
				return n, nil
			}),
			Bump.Name: Bump.Func(func(c registry.Caller, _ rpc.None) (uint64, error) {
				return Add.CallInternal(c, 1)
			}),
			Total.Name: Total.Func(func(c registry.Caller, _ rpc.None) (uint64, error) {
				return counter(c), nil
			}),
		}, Add.Name, Bump.Name, Total.Name); err != nil {
			return err
		}
	}
	tb.fetcher = component.FetcherFunc(func(ico naming.LOID) (*component.Component, error) {
		if c, ok := comps[ico]; ok {
			return c, nil
		}
		return nil, fmt.Errorf("%s: unknown ico %s", tb.name, ico)
	})

	tb.Mgr = manager.New(evolution.MultiIncreasing, evolution.Explicit)
	tb.Mgr.SetObs(tb.Obs)
	tb.Mgr.SetPolicyPublisher(tb.Agent)
	store := tb.Mgr.Store()
	root, err := store.Author(nil, func(d *dfm.Descriptor) error {
		*d = *desc
		return nil
	})
	if err != nil {
		return err
	}
	tb.Versions = []version.ID{root}
	for i := 1; i < len(cfg.Greetings); i++ {
		child, err := store.Author(root, func(d *dfm.Descriptor) error {
			for j, g := range cfg.Greetings {
				d.Entry(dfm.EntryKey{Function: Greet.Name, Component: g.ID}).Enabled = j == i
			}
			return nil
		})
		if err != nil {
			return err
		}
		tb.Versions = append(tb.Versions, child)
	}
	var img bytes.Buffer
	if err := store.Save(&img); err != nil {
		return err
	}
	return vault.WriteDurable(filepath.Join(tb.dir, "store.image"), img.Bytes())
}

// group stands up a replica group of size members, the first the primary,
// and registers it with the primary manager.
func (tb *Testbed) group(ctx context.Context, loid naming.LOID, size int) error {
	members := make([]string, 0, size)
	for i := 0; i < size; i++ {
		obj, err := tb.member(ctx, loid)
		if err != nil {
			return err
		}
		role := replica.RoleBackup
		if i == 0 {
			role = replica.RolePrimary
		}
		rep := replica.New(loid, obj, tb.Dialer, role, 1, nil)
		rep.ShipTimeout = 250 * time.Millisecond
		disp, srv, err := tb.listen(fmt.Sprintf("%s/r%d", loid, i))
		if err != nil {
			return err
		}
		disp.Host(loid, rep)
		members = append(members, srv.Endpoint())
	}
	g := replica.NewGroup(loid, tb.Dialer, tb.Agent, members[0], members[1:])
	// The primary learns its backups once every endpoint exists.
	if _, err := replica.Call(ctx, g, members[0], replica.MethodPromote,
		replica.PromoteArgs{Epoch: 1, Backups: members[1:]}); err != nil {
		return fmt.Errorf("arm primary of %s: %w", loid, err)
	}
	tb.Groups = append(tb.Groups, g)
	tb.Mgr.RegisterReplicaGroup(loid, g)
	return tb.Mgr.Adopt(ctx, tb.instance(loid), registry.NativeImplType)
}

// member is a DCDO at version 1 for a replica group or a spare.
func (tb *Testbed) member(ctx context.Context, loid naming.LOID) (*core.DCDO, error) {
	obj := core.New(core.Config{LOID: loid, Registry: tb.reg, Fetcher: tb.fetcher})
	desc, err := tb.Mgr.Store().InstantiableDescriptor(tb.Versions[0])
	if err != nil {
		return nil, err
	}
	if _, err := obj.ApplyDescriptor(ctx, desc, tb.Versions[0]); err != nil {
		return nil, err
	}
	return obj, nil
}

// standby ships the primary's journal to a standby manager rebuilt from
// the store image. The standby adopts every instance and watches nothing
// until Monitor starts it.
func (tb *Testbed) standby() error {
	m, err := tb.fromImage("standby.journal")
	if err != nil {
		return err
	}
	disp, srv, err := tb.listen("mgr-standby")
	if err != nil {
		return err
	}
	service := manager.NewReplService(m.Journal(), 1)
	disp.Host(rpc.MgrReplLOID, service)
	tb.Shipper = &manager.JournalShipper{
		Dialer:   tb.net.Dialer(), // manager-to-manager link, not under client faults
		Endpoint: srv.Endpoint(),
		Epoch:    1,
		Timeout:  time.Second,
	}
	tb.Mgr.Journal().SetSink(tb.Shipper.Ship)
	tb.Standby = &manager.Standby{Mgr: m, Service: service}
	// The standby's group views are attached now, before any failover;
	// their agent-backed Source and the members' own epochs keep them
	// honest when it acts after the eras move on without it.
	for _, g := range tb.Groups {
		m.RegisterReplicaGroup(g.LOID, replica.Attach(g.LOID, tb.Dialer, tb.Agent, tb.Agent.Set(g.LOID), 1))
	}
	return tb.Adopt(m)
}

// Monitor starts the standby watching the primary manager's node: it takes
// over on two consecutive missed probes, or gives up after limit.
// AwaitTakeover collects the outcome.
func (tb *Testbed) Monitor(limit time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	tb.stop = cancel
	tb.takeover = make(chan Takeover, 1)
	go func() {
		rep, epoch, err := tb.Standby.Monitor(ctx, &rpc.HealthClient{
			Dialer:   tb.net.Dialer(),
			Endpoint: tb.mgrNode.Endpoint(),
			Timeout:  10 * time.Millisecond,
		}, 2*time.Millisecond, 2)
		tb.takeover <- Takeover{rep, epoch, err}
	}()
}

// AwaitTakeover waits up to wait for the takeover Monitor watches for.
func (tb *Testbed) AwaitTakeover(wait time.Duration) (Takeover, error) {
	select {
	case t := <-tb.takeover:
		return t, t.err
	case <-time.After(wait):
		return Takeover{}, fmt.Errorf("%s: standby never took over", tb.name)
	}
}

// CancelAfter returns a ctx that ends as log takes its n-th event of kind: a
// crash point, since a pass run under it halts right after its n-th
// "evolved" event. log holds one sink; this one forwards every event to next.
func CancelAfter(log *obs.EventLog, kind string, n int, next func(obs.Event)) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	log.SetSink(func(ev obs.Event) {
		if ev.Kind == kind && seen.Add(1) == int64(n) {
			cancel()
		}
		if next != nil {
			next(ev)
		}
	})
	return ctx
}

// Crash kills the primary manager: its journal closes with whatever pass
// was open, and its node, the one the standby watches, goes dark.
func (tb *Testbed) Crash() error {
	return errors.Join(tb.Mgr.Journal().Close(), tb.mgrNode.Close())
}

// Restart stands up the successor of a crashed primary manager: rebuilt
// from the store image, on the primary's journal reopened. The caller
// adopts the instances.
func (tb *Testbed) Restart() (*manager.Manager, error) {
	return tb.fromImage("primary.journal")
}

// Adopt registers every plain DCDO and replica group with m, probing each
// for its version.
func (tb *Testbed) Adopt(m *manager.Manager) error {
	loids := append([]naming.LOID(nil), tb.Fleet...)
	for _, g := range tb.Groups {
		loids = append(loids, g.LOID)
	}
	for _, loid := range loids {
		if err := m.Adopt(context.Background(), tb.instance(loid), registry.NativeImplType); err != nil {
			return err
		}
	}
	return nil
}

// Converged counts the plain DCDOs that answer greet with text and that m
// records at v: converged, with no half-applied descriptor.
func (tb *Testbed) Converged(m *manager.Manager, v version.ID, text string) int {
	n := 0
	for _, loid := range tb.Fleet {
		out, err := Greet.Call(context.Background(), tb.Client, loid, rpc.None{})
		if err != nil || string(out) != text {
			continue
		}
		if rec, err := m.RecordOf(loid); err == nil && rec.Version.Equal(v) {
			n++
		}
	}
	return n
}

// Load is client traffic on one LOID, running until Stop.
type Load struct {
	// ReadOK and ReadFail count the reads.
	ReadOK, ReadFail atomic.Uint64
	// WriteOK, WriteAmbiguous and WriteOther count the Bump writes: acked,
	// ended rpc.ErrAmbiguousResult, failed otherwise.
	WriteOK, WriteAmbiguous, WriteOther atomic.Uint64

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// StartLoad starts a reader that calls read on loid every 100µs and
// counts an answer ok only if ok accepts it and, when bump is set, a writer
// that calls Bump every 200µs.
func StartLoad[R any](tb *Testbed, loid naming.LOID, read rpc.Function[rpc.None, R], ok func(R) bool, bump bool) *Load {
	stopped, stop := context.WithCancel(context.Background())
	l := &Load{stop: stop}
	loop := func(pause time.Duration, call func()) {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for stopped.Err() == nil {
				call()
				time.Sleep(pause)
			}
		}()
	}
	loop(100*time.Microsecond, func() {
		if out, err := read.Call(context.Background(), tb.Client, loid, rpc.None{}); err != nil || !ok(out) {
			l.ReadFail.Add(1)
		} else {
			l.ReadOK.Add(1)
		}
	})
	if bump {
		loop(200*time.Microsecond, func() {
			_, err := Bump.Call(context.Background(), tb.Client, loid, rpc.None{})
			switch {
			case err == nil:
				l.WriteOK.Add(1)
			case errors.Is(err, rpc.ErrAmbiguousResult):
				l.WriteAmbiguous.Add(1)
			default:
				l.WriteOther.Add(1)
			}
		})
	}
	return l
}

// Stop stops the load and waits for its calls in flight. It may be called
// more than once.
func (l *Load) Stop() {
	l.stop()
	l.wg.Wait()
}

// Close stops the standby's monitor, closes every journal the testbed
// opened and removes its directory. It fails when goroutines started since
// Build have not exited within settleWait: a leaked prober, reconciler,
// monitor or load loop fails the drill that leaked it.
func (tb *Testbed) Close() error {
	if tb.stop != nil {
		tb.stop()
	}
	var errs []error
	for _, j := range tb.journals {
		errs = append(errs, j.Close())
	}
	errs = append(errs, os.RemoveAll(tb.dir))
	leaked := goroutines(tb.before)
	for deadline := time.Now().Add(settleWait); len(leaked) > 0 && time.Now().Before(deadline); leaked = goroutines(tb.before) {
		time.Sleep(time.Millisecond)
	}
	for _, stack := range leaked {
		errs = append(errs, fmt.Errorf("%s: goroutine started since build still running after teardown:\n%s", tb.name, stack))
	}
	return errors.Join(errs...)
}

// fromImage is a manager rebuilt from the store image, on the named
// journal.
func (tb *Testbed) fromImage(journal string) (*manager.Manager, error) {
	img, err := os.ReadFile(filepath.Join(tb.dir, "store.image"))
	if err != nil {
		return nil, err
	}
	store, err := manager.LoadStore(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	j, err := tb.openJournal(journal)
	if err != nil {
		return nil, err
	}
	m := manager.NewWithStore(store, evolution.MultiIncreasing, evolution.Explicit)
	m.SetObs(tb.Obs)
	m.SetPolicyPublisher(tb.Agent)
	m.SetJournal(j)
	return m, nil
}

// openJournal opens a journal in the testbed's directory, to be closed at
// teardown.
func (tb *Testbed) openJournal(name string) (*manager.Journal, error) {
	j, err := manager.OpenJournal(filepath.Join(tb.dir, name))
	if err != nil {
		return nil, err
	}
	tb.journals = append(tb.journals, j)
	return j, nil
}

// listen starts an observed node of its own, named name.
func (tb *Testbed) listen(name string) (*rpc.Dispatcher, *transport.InprocServer, error) {
	disp := rpc.NewDispatcher()
	disp.SetObs(tb.Obs)
	srv, err := tb.net.Listen(name, disp)
	return disp, srv, err
}

// instance is loid as a manager sees it: reached through the client.
func (tb *Testbed) instance(loid naming.LOID) manager.RemoteInstance {
	return manager.RemoteInstance{Client: tb.Client, Target: loid}
}

// goroutines maps the ID of every running goroutine not in except to its
// stack.
func goroutines(except map[string]string) map[string]string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	stacks := make(map[string]string)
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
		if _, ok := except[id]; !ok {
			stacks[id] = stack
		}
	}
	return stacks
}
