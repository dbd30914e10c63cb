package supervisor

import (
	"context"
	"time"

	"godcdo/internal/rpc"
	"godcdo/internal/transport"
)

// The supervisor is remotely operable the same way the obs surface is:
// NewService serves it from a method table hosted at rpc.RolloutLOID on the
// node's dispatcher (endpoint-addressed, never agent-registered), and
// Client is the direct-dial proxy dcdo-ctl's `rollout` subcommands use.
// Payloads are JSON — rollout control is nowhere near the invoke hot path.

// AbortArgs are MethodRolloutAbort's arguments.
type AbortArgs struct {
	Reason string `json:"reason,omitempty"`
}

// The rollout service's exported interface. Each method answers the
// rollout status after it acted; only status does nothing else.
var (
	MethodRolloutStart = rpc.Method[Policy, Status]{Name: "rollout.start",
		Args: rpc.JSONCodec[Policy](), Result: statusCodec}
	MethodRolloutStatus = rpc.Method[rpc.None, Status]{Name: "rollout.status", Idempotent: true,
		Args: rpc.NoneCodec, Result: statusCodec}
	MethodRolloutPause = rpc.Method[rpc.None, Status]{Name: "rollout.pause",
		Args: rpc.NoneCodec, Result: statusCodec}
	MethodRolloutResume = rpc.Method[rpc.None, Status]{Name: "rollout.resume",
		Args: rpc.NoneCodec, Result: statusCodec}
	MethodRolloutAbort = rpc.Method[AbortArgs, Status]{Name: "rollout.abort",
		Args: rpc.JSONCodec[AbortArgs](), Result: statusCodec}
)

var statusCodec = rpc.JSONCodec[Status]()

// NewService returns the table serving sup. A rollout outlives the call
// that starts it, so it runs under its own context, not the caller's.
func NewService(sup *Supervisor) rpc.Table {
	status := func(err error) (Status, error) {
		if err != nil {
			return Status{}, err
		}
		return sup.Status(), nil
	}
	return rpc.Serve(
		MethodRolloutStart.Handle(func(_ context.Context, p Policy) (Status, error) {
			return status(sup.Start(context.Background(), p))
		}),
		MethodRolloutStatus.Handle(func(context.Context, rpc.None) (Status, error) { return status(nil) }),
		MethodRolloutPause.Handle(func(context.Context, rpc.None) (Status, error) { return status(sup.Pause()) }),
		MethodRolloutResume.Handle(func(context.Context, rpc.None) (Status, error) { return status(sup.Unpause()) }),
		MethodRolloutAbort.Handle(func(_ context.Context, a AbortArgs) (Status, error) {
			return status(sup.Abort(a.Reason))
		}),
	)
}

// Client operates the rollout service at a specific node endpoint.
type Client struct {
	// Dialer reaches the node.
	Dialer transport.Dialer
	// Endpoint is the node's dialable endpoint.
	Endpoint string
	// Timeout bounds each call. Zero means 5 s.
	Timeout time.Duration
}

// Start submits a policy and begins the rollout.
func (c *Client) Start(ctx context.Context, policy Policy) (Status, error) {
	return MethodRolloutStart.CallAt(ctx, c.Dialer, c.Endpoint, rpc.RolloutLOID, c.Timeout, policy)
}

// Status fetches the rollout status.
func (c *Client) Status(ctx context.Context) (Status, error) {
	return MethodRolloutStatus.CallAt(ctx, c.Dialer, c.Endpoint, rpc.RolloutLOID, c.Timeout, rpc.None{})
}

// Pause suspends the active rollout.
func (c *Client) Pause(ctx context.Context) (Status, error) {
	return MethodRolloutPause.CallAt(ctx, c.Dialer, c.Endpoint, rpc.RolloutLOID, c.Timeout, rpc.None{})
}

// Resume unpauses the active rollout.
func (c *Client) Resume(ctx context.Context) (Status, error) {
	return MethodRolloutResume.CallAt(ctx, c.Dialer, c.Endpoint, rpc.RolloutLOID, c.Timeout, rpc.None{})
}

// Abort stops the active rollout and rolls it back.
func (c *Client) Abort(ctx context.Context, reason string) (Status, error) {
	return MethodRolloutAbort.CallAt(ctx, c.Dialer, c.Endpoint, rpc.RolloutLOID, c.Timeout, AbortArgs{Reason: reason})
}
