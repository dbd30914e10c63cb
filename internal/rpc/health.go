package rpc

import (
	"cmp"
	"context"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// Node liveness is an infrastructure service, like the observability
// surface: NewHealthService's table answers pings on every node at a
// well-known LOID, and HealthClient is the direct-dial proxy that a standby
// manager's Monitor and dcdo-ctl's `health` subcommand use. (The manager's
// Prober asks each instance for its version instead of pinging nodes.) A
// successful ping proves the node's transport, dispatcher and service loop
// are all alive.

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

// MethodHealthPing answers a liveness probe with the node's HealthInfo.
var MethodHealthPing = Method[None, HealthInfo]{Name: "health.ping", Idempotent: true,
	Args: NoneCodec, Result: JSONCodec[HealthInfo]()}

// NewHealthService returns the table answering liveness probes for one
// node, named node, whose uptime starts now by clock (vclock.Real when
// nil). hosted, when non-nil, reports the node's hosted-object count. The
// table is hosted directly on the node's dispatcher (never registered with
// the binding agent): every node carries one at the same LOID, so probers
// address a node by endpoint.
func NewHealthService(node string, clock vclock.Clock, hosted func() int) Table {
	if clock == nil {
		clock = vclock.Real{}
	}
	started := clock.Now()
	return Serve(MethodHealthPing.Handle(func(context.Context, None) (HealthInfo, error) {
		info := HealthInfo{Node: node, UptimeNs: clock.Now().Sub(started).Nanoseconds()}
		if hosted != nil {
			info.HostedObjects = hosted()
		}
		return info, nil
	}))
}

// HealthClient probes the health service at a specific node endpoint.
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
	return MethodHealthPing.CallAt(ctx, c.Dialer, c.Endpoint, HealthLOID, cmp.Or(c.Timeout, 2*time.Second), None{})
}
