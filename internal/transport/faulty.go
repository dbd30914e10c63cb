// Fault injection for the transport layer. FaultDialer and FaultServer wrap
// any Dialer/Server pair with configurable, seedable fault rules — dropped
// requests, dropped responses, added latency, connection resets, endpoint
// partitions — so the rebind/retry machinery in the invoke path can be
// exercised deterministically in tests and in cmd/dcdo-bench (experiment E7).
//
// Fault decisions are taken client-side in FaultDialer (simulating network
// loss) or server-side in FaultHandler (simulating a slow or lossy host);
// both consult a shared Faults rule set, so one object controls a whole
// topology's failure behaviour.
package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"godcdo/internal/wire"
)

// FaultConfig describes the faults injected for calls matching one endpoint
// (or the default rule). Probabilities are in [0, 1].
type FaultConfig struct {
	// DropRequest is the probability the request is lost before reaching
	// the server: it never executes, and the caller observes a timeout.
	DropRequest float64
	// DropResponse is the probability the response is lost after the
	// server executed the request; the caller observes a timeout. This is
	// the fault that makes retrying non-idempotent calls dangerous.
	DropResponse float64
	// ResetBeforeWrite is the probability the connection is reset before
	// the request frame is written — the canonical safe-to-retry failure.
	ResetBeforeWrite float64
	// ExtraLatency is added to every call before it is forwarded. If it
	// meets or exceeds the call's timeout the call times out instead.
	ExtraLatency time.Duration
	// LatencyJitter adds a uniformly random duration in [0, LatencyJitter)
	// on top of ExtraLatency.
	LatencyJitter time.Duration
	// Partitioned fails every call instantly with ErrUnreachable, as if
	// the endpoint were on the far side of a network partition.
	Partitioned bool
	// Budget, when positive, bounds the total number of faults injected
	// under this config; once spent, the config behaves as a clean
	// network. Zero means unlimited. Deterministic budgets let tests
	// assert exact retry schedules ("first two responses are lost").
	Budget int
	// unlimited distinguishes "Budget never set" from "Budget spent" once
	// the config is stored inside Faults.
	unlimited bool
}

// FaultStats counts injected faults.
type FaultStats struct {
	Calls             uint64
	DroppedRequests   uint64
	DroppedResponses  uint64
	Resets            uint64
	Delays            uint64
	PartitionRefusals uint64
}

// Faults is a seedable, concurrency-safe fault rule set shared by the
// FaultDialer/FaultServer pair of a simulated topology. Rules are keyed by
// endpoint, with an optional default applying to everything else.
type Faults struct {
	mu         sync.Mutex
	rng        *rand.Rand
	def        *FaultConfig
	byEndpoint map[string]*FaultConfig
	stats      FaultStats
}

// NewFaults returns an empty rule set whose randomness derives entirely
// from seed, so a given seed replays the identical fault sequence.
func NewFaults(seed int64) *Faults {
	return &Faults{
		rng:        rand.New(rand.NewSource(seed)),
		byEndpoint: make(map[string]*FaultConfig),
	}
}

// SetDefault installs cfg for every endpoint without a specific rule.
func (f *Faults) SetDefault(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cfg.unlimited = cfg.Budget == 0
	f.def = &cfg
}

// ClearDefault removes the default rule.
func (f *Faults) ClearDefault() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def = nil
}

// SetEndpoint installs cfg for one endpoint, overriding the default.
func (f *Faults) SetEndpoint(endpoint string, cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cfg.unlimited = cfg.Budget == 0
	f.byEndpoint[endpoint] = &cfg
}

// ClearEndpoint removes endpoint's specific rule, reverting to the default.
func (f *Faults) ClearEndpoint(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.byEndpoint, endpoint)
}

// Partition makes every call to endpoint fail as unreachable until Heal.
func (f *Faults) Partition(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cfg, ok := f.byEndpoint[endpoint]
	if !ok {
		cfg = &FaultConfig{unlimited: true}
		f.byEndpoint[endpoint] = cfg
	}
	cfg.Partitioned = true
}

// Heal reconnects a partitioned endpoint.
func (f *Faults) Heal(endpoint string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cfg, ok := f.byEndpoint[endpoint]; ok {
		cfg.Partitioned = false
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// faultPlan is one call's precomputed fate: decisions are drawn under the
// rule-set lock so the seeded sequence is stable, then applied lock-free.
type faultPlan struct {
	partitioned  bool
	reset        bool
	dropRequest  bool
	dropResponse bool
	delay        time.Duration
}

func (f *Faults) plan(endpoint string) faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Calls++
	cfg, ok := f.byEndpoint[endpoint]
	if !ok {
		cfg = f.def
	}
	if cfg == nil {
		return faultPlan{}
	}
	var p faultPlan
	spend := func() bool {
		if cfg.unlimited {
			return true
		}
		if cfg.Budget <= 0 {
			return false
		}
		cfg.Budget--
		return true
	}
	if cfg.Partitioned {
		// Partitions are topology state, not random faults: no budget.
		p.partitioned = true
		f.stats.PartitionRefusals++
		return p
	}
	// Draw every probability in a fixed order so the seeded sequence does
	// not depend on which faults are configured.
	rReset, rReq, rResp := f.rng.Float64(), f.rng.Float64(), f.rng.Float64()
	var jitter time.Duration
	if cfg.LatencyJitter > 0 {
		jitter = time.Duration(f.rng.Int63n(int64(cfg.LatencyJitter)))
	}
	switch {
	case cfg.ResetBeforeWrite > 0 && rReset < cfg.ResetBeforeWrite && spend():
		p.reset = true
		f.stats.Resets++
	case cfg.DropRequest > 0 && rReq < cfg.DropRequest && spend():
		p.dropRequest = true
		f.stats.DroppedRequests++
	case cfg.DropResponse > 0 && rResp < cfg.DropResponse && spend():
		p.dropResponse = true
		f.stats.DroppedResponses++
	}
	if cfg.ExtraLatency > 0 || jitter > 0 {
		p.delay = cfg.ExtraLatency + jitter
		f.stats.Delays++
	}
	return p
}

// FaultDialer wraps an inner Dialer, injecting faults per its rule set.
// Injected failures carry the same retry classification real ones would:
// partitions and pre-write resets are safe to retry, dropped requests and
// dropped responses surface as ambiguous timeouts.
type FaultDialer struct {
	Inner  Dialer
	Faults *Faults
}

var _ Dialer = (*FaultDialer)(nil)

// NewFaultDialer wraps inner with the given fault rules.
func NewFaultDialer(inner Dialer, faults *Faults) *FaultDialer {
	return &FaultDialer{Inner: inner, Faults: faults}
}

// Call implements Dialer.
func (d *FaultDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	p := d.Faults.plan(endpoint)
	if p.partitioned {
		return nil, safeErr(fmt.Errorf("%w: %s (injected partition)", ErrUnreachable, endpoint))
	}
	if p.reset {
		return nil, safeErr(fmt.Errorf("%w before write: %s (injected)", ErrReset, endpoint))
	}
	start := time.Now()
	if p.delay > 0 {
		if p.delay >= timeout {
			time.Sleep(timeout)
			return nil, ambiguousErr(fmt.Errorf("%w: %s after %v (injected latency)", ErrTimeout, endpoint, timeout))
		}
		time.Sleep(p.delay)
	}
	if p.dropRequest {
		// The request never reaches the server; the caller burns the rest
		// of its timeout exactly as it would on a real loss.
		sleepUntil(start, timeout)
		return nil, ambiguousErr(fmt.Errorf("%w: %s after %v (injected request drop)", ErrTimeout, endpoint, timeout))
	}
	remaining := timeout - time.Since(start)
	if remaining <= 0 {
		return nil, ambiguousErr(fmt.Errorf("%w: %s after %v (injected latency)", ErrTimeout, endpoint, timeout))
	}
	resp, err := d.Inner.Call(ctx, endpoint, req, remaining)
	if err != nil {
		return nil, err
	}
	if p.dropResponse {
		// The server executed the request; only the response is lost. A
		// response that is req itself stays the caller's to release.
		if resp != req {
			wire.PutEnvelope(resp)
		}
		sleepUntil(start, timeout)
		return nil, ambiguousErr(fmt.Errorf("%w: %s after %v (injected response drop)", ErrTimeout, endpoint, timeout))
	}
	return resp, nil
}

// Close implements Dialer.
func (d *FaultDialer) Close() error { return d.Inner.Close() }

func sleepUntil(start time.Time, timeout time.Duration) {
	if remaining := timeout - time.Since(start); remaining > 0 {
		time.Sleep(remaining)
	}
}

// FaultHandler wraps a server-side Handler with the same rule set: dropped
// requests never execute, dropped responses execute but return Dropped
// (which servers translate into silence), and latency delays the handler.
type FaultHandler struct {
	Inner    Handler
	Faults   *Faults
	Endpoint string // rule key; usually the serving endpoint
}

var _ Handler = (*FaultHandler)(nil)

// NewFaultHandler wraps inner, applying the rules registered for endpoint.
func NewFaultHandler(inner Handler, faults *Faults, endpoint string) *FaultHandler {
	return &FaultHandler{Inner: inner, Faults: faults, Endpoint: endpoint}
}

// Handle implements Handler.
func (h *FaultHandler) Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	p := h.Faults.plan(h.Endpoint)
	if p.partitioned || p.reset || p.dropRequest {
		// The request is lost before dispatch: no execution, no response.
		return Dropped
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	resp := h.Inner.Handle(ctx, req)
	if p.dropResponse {
		return Dropped
	}
	return resp
}

// FaultServer pairs an inner Server with the rule set governing it, so a
// test can partition or degrade "this host" without tracking endpoint
// strings by hand. Serving-side faults are injected by wrapping the
// server's handler in a FaultHandler before listening.
type FaultServer struct {
	inner  Server
	faults *Faults
}

var _ Server = (*FaultServer)(nil)

// NewFaultServer wraps inner with partition/heal controls over faults.
func NewFaultServer(inner Server, faults *Faults) *FaultServer {
	return &FaultServer{inner: inner, faults: faults}
}

// Endpoint implements Server.
func (s *FaultServer) Endpoint() string { return s.inner.Endpoint() }

// Close implements Server.
func (s *FaultServer) Close() error { return s.inner.Close() }

// Faults returns the rule set governing this server.
func (s *FaultServer) Faults() *Faults { return s.faults }

// Partition drops all traffic to this server's endpoint until Heal.
func (s *FaultServer) Partition() { s.faults.Partition(s.inner.Endpoint()) }

// Heal reconnects the server after Partition.
func (s *FaultServer) Heal() { s.faults.Heal(s.inner.Endpoint()) }
