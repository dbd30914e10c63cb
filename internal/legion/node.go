// Package legion implements the base distributed-object runtime the DCDO
// model is hosted in: nodes (Legion hosts) that serve objects over real
// transports, class objects that create instances, normal (monolithic)
// objects used as the evolution baseline, and object migration with state
// capture and restore.
package legion

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// Errors returned by nodes and migration.
var (
	// ErrNotHosted is returned when an operation targets an object the
	// node does not host.
	ErrNotHosted = errors.New("legion: object not hosted on this node")
	// ErrNodeClosed is returned after Close.
	ErrNodeClosed = errors.New("legion: node closed")
)

// NodeConfig assembles a node's dependencies.
type NodeConfig struct {
	// Name is the node's display name (and inproc endpoint name).
	Name string
	// Agent is the domain's binding agent.
	Agent naming.Authority
	// Inproc, when set, serves on the in-process network instead of TCP.
	Inproc *transport.InprocNetwork
	// TCPAddr is the TCP listen address when Inproc is nil. Empty means
	// "127.0.0.1:0".
	TCPAddr string
	// HostImpl is the node's native implementation type.
	HostImpl registry.ImplType
	// Clock defaults to the real clock.
	Clock vclock.Clock
	// CallTimeout overrides the per-attempt timeout of the node's client.
	// Zero keeps the policy's value.
	CallTimeout time.Duration
	// Retry, when non-nil, replaces the client's entire retry policy
	// (rpc.DefaultRetryPolicy otherwise). CallTimeout, if also set, still
	// overrides the policy's per-attempt timeout.
	Retry *rpc.RetryPolicy
	// Obs, when non-nil, wires the node's client, dispatcher, and every
	// hosted object that implements obs.Configurable into the shared
	// observability layer. Nil keeps the seed zero-overhead paths.
	Obs *obs.Obs
	// MaxInflight caps concurrent dispatches on the node's dispatcher;
	// excess requests queue up to QueueDepth and are shed with
	// wire.CodeOverloaded beyond that. Zero leaves admission unlimited.
	MaxInflight int
	// QueueDepth bounds the admission queue when MaxInflight is set.
	QueueDepth int
	// TransportStripes sets the TCP dialer's per-endpoint connection count
	// (calls are spread round-robin). Zero means 1, the pre-striping
	// behaviour.
	TransportStripes int
	// TransportWorkers bounds the TCP server's handlers running at once,
	// below the dispatcher's admission control (which sheds; this caps
	// handler fan-out and applies read-loop backpressure). Zero means
	// unlimited. Either way at most 64 idle handler goroutines stay parked
	// for reuse.
	TransportWorkers int
	// ReplicaFactory, when non-nil, makes the node a placement candidate for
	// the distribution-policy reconciler: a replica-host service is hosted
	// at rpc.ReplicaHostLOID that constructs inner objects via the factory
	// and hosts them as backup replicas on demand.
	ReplicaFactory replica.Factory
	// Policy, when non-nil, is registered with the binding agent for every
	// LOID the node hosts via HostObject (the node's default distribution
	// policy), provided the agent supports policy registration —
	// naming.Agent does, pre-policy authorities are left alone.
	Policy *policy.DistributionPolicy
}

// Node is one Legion host: it serves hosted objects on a transport endpoint
// and provides a client for outbound invocations.
type Node struct {
	name     string
	agent    naming.Authority
	disp     *rpc.Dispatcher
	server   transport.Server
	dialer   transport.Dialer
	client   *rpc.Client
	cache    *naming.Cache
	hostImpl registry.ImplType
	clock    vclock.Clock
	obs      *obs.Obs
	policy   *policy.DistributionPolicy
	rhost    *replica.HostService

	mu     sync.Mutex
	closed bool
}

// PolicyRegistrar is the slice of the binding agent the node's default
// policy publishes through. naming.Agent and rpc.RemoteAgent both satisfy
// it.
type PolicyRegistrar interface {
	RegisterPolicy(loid naming.LOID, pol policy.DistributionPolicy)
}

// NewNode starts a node per cfg.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Agent == nil {
		return nil, errors.New("legion: node requires a binding agent")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	hostImpl := cfg.HostImpl
	if hostImpl == (registry.ImplType{}) {
		hostImpl = registry.NativeImplType
	}

	disp := rpc.NewDispatcher()
	if cfg.MaxInflight > 0 {
		disp.SetAdmission(cfg.MaxInflight, cfg.QueueDepth)
	}
	tcpDialer := transport.NewTCPDialer()
	tcpDialer.Stripes = cfg.TransportStripes
	var (
		server transport.Server
		dialer transport.Dialer
		err    error
	)
	if cfg.Inproc != nil {
		server, err = cfg.Inproc.Listen(cfg.Name, disp)
		if err != nil {
			return nil, fmt.Errorf("legion: node %q: %w", cfg.Name, err)
		}
		dialer = transport.NewMultiDialer(map[transport.Scheme]transport.Dialer{
			transport.SchemeInproc: cfg.Inproc.Dialer(),
			transport.SchemeTCP:    tcpDialer,
		})
	} else {
		addr := cfg.TCPAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		server, err = transport.ListenTCPOptions(addr, disp, transport.TCPServerOptions{
			MaxWorkers: cfg.TransportWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("legion: node %q: %w", cfg.Name, err)
		}
		dialer = tcpDialer
	}

	cache := naming.NewCache(cfg.Agent, clock, 0)
	client := rpc.NewClient(cache, dialer)
	if cfg.Retry != nil {
		client.Retry = *cfg.Retry
	}
	if cfg.CallTimeout > 0 {
		client.Retry.CallTimeout = cfg.CallTimeout
	}
	if cfg.Obs != nil {
		client.Tracer = cfg.Obs.Tracer
		client.ObserveStages(cfg.Obs.Metrics)
		if cfg.Obs.Metrics != nil {
			cfg.Obs.Metrics.RegisterCounters("client."+cfg.Name, client.Metrics())
		}
		disp.SetObs(cfg.Obs)
		if reg := cfg.Obs.Metrics; reg != nil {
			ts, _ := server.(*transport.TCPServer)
			if ts != nil {
				prefix := "server." + cfg.Name + "."
				reg.RegisterGaugeFunc(prefix+"accepted_conns", func() int64 {
					return int64(ts.Stats().AcceptedConns)
				})
				reg.RegisterGaugeFunc(prefix+"active_conns", func() int64 {
					return ts.Stats().ActiveConns
				})
				reg.RegisterGaugeFunc(prefix+"decode_errors", func() int64 {
					return int64(ts.Stats().DecodeErrors)
				})
				reg.RegisterGaugeFunc(prefix+"dropped_frames", func() int64 {
					return int64(ts.Stats().DroppedFrames)
				})
			}
			rpc.RegisterTransportMetrics(reg, cfg.Name, tcpDialer, ts)
			if fl := cfg.Obs.GetFlight(); fl != nil {
				prefix := "flight." + cfg.Name + "."
				reg.RegisterGaugeFunc(prefix+"live", func() int64 {
					return int64(fl.Stats().Live)
				})
				reg.RegisterGaugeFunc(prefix+"retained", func() int64 {
					return int64(fl.Stats().Retained)
				})
				reg.RegisterGaugeFunc(prefix+"evicted", func() int64 {
					return int64(fl.Stats().Evicted)
				})
			}
		}
	}
	// Every node answers liveness probes at the well-known health LOID
	// (hosted on the dispatcher only — probers address nodes by endpoint).
	disp.Host(rpc.HealthLOID, rpc.NewHealthService(cfg.Name, clock, disp.Len))
	var rhost *replica.HostService
	if cfg.ReplicaFactory != nil {
		rhost = &replica.HostService{Factory: cfg.ReplicaFactory, Dialer: dialer, Host: func(loid naming.LOID, obj rpc.Object) {
			wireObs(cfg.Obs, obj)
			disp.Host(loid, obj)
		}}
		disp.Host(rpc.ReplicaHostLOID, rhost)
	}
	return &Node{
		name:     cfg.Name,
		agent:    cfg.Agent,
		disp:     disp,
		server:   server,
		dialer:   dialer,
		client:   client,
		cache:    cache,
		hostImpl: hostImpl,
		clock:    clock,
		obs:      cfg.Obs,
		policy:   cfg.Policy,
		rhost:    rhost,
	}, nil
}

// ReplicaHost returns the node's replica-host service, nil when the node
// was configured without a ReplicaFactory.
func (n *Node) ReplicaHost() *replica.HostService { return n.rhost }

// Obs returns the node's observability handle, nil when disabled.
func (n *Node) Obs() *obs.Obs { return n.obs }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Endpoint returns the node's dialable endpoint.
func (n *Node) Endpoint() string { return n.server.Endpoint() }

// Client returns the node's outbound invocation client.
func (n *Node) Client() *rpc.Client { return n.client }

// Cache returns the node's binding cache.
func (n *Node) Cache() *naming.Cache { return n.cache }

// Agent returns the domain's binding authority.
func (n *Node) Agent() naming.Authority { return n.agent }

// Dispatcher returns the node's object dispatcher.
func (n *Node) Dispatcher() *rpc.Dispatcher { return n.disp }

// HostImpl returns the node's native implementation type.
func (n *Node) HostImpl() registry.ImplType { return n.hostImpl }

// Clock returns the node's clock.
func (n *Node) Clock() vclock.Clock { return n.clock }

// wireObs hands the node's observability handle, if it has one, to a hosted
// object that accepts one.
func wireObs(o *obs.Obs, obj rpc.Object) {
	if c, ok := obj.(obs.Configurable); ok && o != nil {
		c.SetObs(o)
	}
}

// HostObject activates obj at loid on this node and registers the binding,
// bumping the incarnation.
func (n *Node) HostObject(loid naming.LOID, obj rpc.Object) (naming.Address, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return naming.Address{}, ErrNodeClosed
	}
	n.mu.Unlock()
	wireObs(n.obs, obj)
	n.disp.Host(loid, obj)
	addr := n.agent.Register(loid, naming.Address{Endpoint: n.server.Endpoint()})
	if n.policy != nil {
		if pr, ok := n.agent.(PolicyRegistrar); ok {
			pr.RegisterPolicy(loid, *n.policy)
		}
	}
	return addr, nil
}

// HostInfraService hosts an infrastructure service at a well-known LOID on
// the node's dispatcher only — never registered with the binding agent,
// mirroring how the health and obs services are reached: callers address
// the node by endpoint, not by binding lookup. The object picks up the
// node's observability handle when it is Configurable.
func (n *Node) HostInfraService(loid naming.LOID, obj rpc.Object) {
	wireObs(n.obs, obj)
	n.disp.Host(loid, obj)
}

// EvictObject deactivates loid on this node. When deregister is set the
// binding agent forgets the object entirely (destruction); otherwise the
// binding is left stale (crash / pre-migration), which is what clients then
// discover the hard way.
func (n *Node) EvictObject(loid naming.LOID, deregister bool) error {
	if !n.disp.Hosted(loid) {
		return fmt.Errorf("%w: %s on %s", ErrNotHosted, loid, n.name)
	}
	n.disp.Evict(loid)
	if deregister {
		n.agent.Deregister(loid)
	}
	return nil
}

// Hosts reports whether the node currently hosts loid.
func (n *Node) Hosts(loid naming.LOID) bool { return n.disp.Hosted(loid) }

// Close stops serving and releases the client's connections.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.server.Close()
	if derr := n.dialer.Close(); err == nil {
		err = derr
	}
	return err
}

// StatefulObject is implemented by objects whose state can be captured and
// restored — the object-mandatory interface Legion requires for migration
// and for the baseline evolution pipeline.
type StatefulObject interface {
	rpc.Object
	// CaptureState serialises the object's state.
	CaptureState() ([]byte, error)
	// RestoreState reinstates previously captured state.
	RestoreState([]byte) error
}

// Migrate moves a stateful object from one node to another: capture state,
// deactivate at the source, restore into target (a fresh incarnation of the
// object's implementation on the destination), activate, and re-register
// the binding. Clients' cached bindings become stale and heal on their next
// call.
func Migrate(loid naming.LOID, src, dst *Node, obj StatefulObject, target StatefulObject) error {
	state, err := obj.CaptureState()
	if err != nil {
		return fmt.Errorf("migrate %s: capture: %w", loid, err)
	}
	if err := src.EvictObject(loid, false); err != nil {
		return fmt.Errorf("migrate %s: %w", loid, err)
	}
	if err := target.RestoreState(state); err != nil {
		// Roll back: reactivate at the source.
		if _, herr := src.HostObject(loid, obj); herr != nil {
			return errors.Join(
				fmt.Errorf("migrate %s: restore: %w", loid, err),
				fmt.Errorf("migrate %s: rollback failed: %w", loid, herr),
			)
		}
		return fmt.Errorf("migrate %s: restore: %w", loid, err)
	}
	if _, err := dst.HostObject(loid, target); err != nil {
		return fmt.Errorf("migrate %s: activate on %s: %w", loid, dst.Name(), err)
	}
	return nil
}
