package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// Node liveness is an infrastructure service, like the observability
// surface: HealthService answers pings on every node at a well-known LOID,
// and HealthClient is the direct-dial proxy the manager's prober and
// dcdo-ctl's `health` subcommand use. A successful ping proves the node's
// transport, dispatcher, and service loop are all alive — which is exactly
// the evidence the prober needs before un-quarantining the instances the
// node hosts.

// MethodHealthPing answers a liveness probe with the node's HealthInfo.
const MethodHealthPing = "health.ping"

// HealthLOID is the well-known LOID a node's health service is hosted at
// (domain 0 is reserved for infrastructure; the binding agent holds
// instance 1, the obs service instance 2).
var HealthLOID = naming.LOID{Domain: 0, Class: 1, Instance: 3}

// RolloutLOID is the well-known LOID a node's rollout-supervisor service is
// hosted at (the service itself lives in internal/supervisor; only the
// address is declared here, beside its infrastructure siblings).
var RolloutLOID = naming.LOID{Domain: 0, Class: 1, Instance: 4}

// MgrReplLOID is the well-known LOID a node's manager-replication service
// (journal shipping to a standby manager) is hosted at. The service itself
// lives in internal/manager; only the address is declared here, beside its
// infrastructure siblings.
var MgrReplLOID = naming.LOID{Domain: 0, Class: 1, Instance: 5}

// ReplicaHostLOID is the well-known LOID a node's replica-hosting service is
// hosted at: the reconciler asks it to spin up fresh backups when healing a
// group onto the node. The service itself lives in internal/replica; only
// the address is declared here, beside its infrastructure siblings.
var ReplicaHostLOID = naming.LOID{Domain: 0, Class: 1, Instance: 6}

// HealthInfo is a ping response.
type HealthInfo struct {
	// Node is the responding node's name.
	Node string `json:"node"`
	// UptimeNs is how long the node has been serving, in nanoseconds.
	UptimeNs int64 `json:"uptime_ns"`
	// HostedObjects counts the objects on the node's dispatcher.
	HostedObjects int `json:"hosted_objects"`
}

// Uptime returns the node's uptime as a duration.
func (h HealthInfo) Uptime() time.Duration { return time.Duration(h.UptimeNs) }

// HealthService answers liveness probes for one node. It is hosted directly
// on the node's dispatcher (never registered with the binding agent): every
// node carries one at the same LOID, so probers address a node by endpoint.
type HealthService struct {
	// Node is the node's display name, echoed in responses.
	Node string
	// Clock supplies time for uptime accounting (vclock.Real when nil).
	Clock vclock.Clock
	// Hosted, when non-nil, reports the node's hosted-object count.
	Hosted func() int

	started time.Time
}

var _ Object = (*HealthService)(nil)

// NewHealthService returns a service whose uptime starts now.
func NewHealthService(node string, clock vclock.Clock, hosted func() int) *HealthService {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &HealthService{Node: node, Clock: clock, Hosted: hosted, started: clock.Now()}
}

// InvokeMethod implements Object.
func (s *HealthService) InvokeMethod(method string, args []byte) ([]byte, error) {
	switch method {
	case MethodHealthPing:
		info := HealthInfo{Node: s.Node}
		if s.Clock != nil && !s.started.IsZero() {
			info.UptimeNs = s.Clock.Now().Sub(s.started).Nanoseconds()
		}
		if s.Hosted != nil {
			info.HostedObjects = s.Hosted()
		}
		return json.Marshal(info)
	default:
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFunction, method)
	}
}

// HealthClient probes the HealthService at a specific node endpoint.
type HealthClient struct {
	// Dialer reaches the node.
	Dialer transport.Dialer
	// Endpoint is the node's dialable endpoint.
	Endpoint string
	// Timeout bounds each probe. Zero means 2 s — probes are cheap and
	// probers want fast failure, not patience.
	Timeout time.Duration
}

// Ping probes the node once under ctx. A transport failure is returned as
// the transport reported it, with its retry class, so callers can
// distinguish an unreachable node from a node that answered strangely.
func (c *HealthClient) Ping(ctx context.Context) (HealthInfo, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	req := &wire.Envelope{
		Kind:   wire.KindRequest,
		Target: HealthLOID.String(),
		Method: MethodHealthPing,
	}
	resp, err := c.Dialer.Call(ctx, c.Endpoint, req, timeout)
	if err != nil {
		return HealthInfo{}, fmt.Errorf("health probe of %s: %w", c.Endpoint, err)
	}
	if resp.Kind == wire.KindError {
		return HealthInfo{}, &RemoteError{Code: resp.Code, Message: resp.ErrorMsg}
	}
	var info HealthInfo
	if err := json.Unmarshal(resp.Payload, &info); err != nil {
		return HealthInfo{}, fmt.Errorf("health probe of %s: corrupt response: %w", c.Endpoint, err)
	}
	return info, nil
}
