package rpc

import (
	"context"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/transport"
)

// The observability surface is itself an object, mirroring how binding
// agents are objects: NewObsService serves a node's obs.Obs from a method
// table hosted at a well-known infrastructure LOID, and ObsClient is the
// direct-dial proxy dcdo-ctl's `trace` subcommand uses. Payloads are JSON —
// the data already has JSON shapes for /debug/obs, and the trace/metrics
// path is nowhere near the invoke hot path.

// ObsLOID is the well-known LOID a node's observability service is hosted
// at (domain 0 is reserved for infrastructure objects; the binding agent
// holds instance 1).
var ObsLOID = naming.LOID{Domain: 0, Class: 1, Instance: 2}

// ObsQuery parameterises obs.spans, obs.events and obs.flight. A zero or
// negative Limit takes the method's default.
type ObsQuery struct {
	TraceID uint64 `json:"trace_id,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	// Slowest orders obs.flight results by slowest span instead of most
	// recently retained.
	Slowest bool `json:"slowest,omitempty"`
}

// FlightReport is the obs.flight response: recorder stats plus retained
// traces.
type FlightReport struct {
	Stats  obs.FlightStats   `json:"stats"`
	Traces []obs.FlightTrace `json:"traces"`
}

// The observability service's exported interface; every method reads.
var (
	MethodObsSnapshot = Method[None, obs.Snapshot]{Name: "obs.snapshot", Idempotent: true,
		Args: NoneCodec, Result: JSONCodec[obs.Snapshot]()}
	MethodObsSpans = Method[ObsQuery, []obs.SpanRecord]{Name: "obs.spans", Idempotent: true,
		Args: JSONCodec[ObsQuery](), Result: JSONCodec[[]obs.SpanRecord]()}
	MethodObsEvents = Method[ObsQuery, []obs.Event]{Name: "obs.events", Idempotent: true,
		Args: JSONCodec[ObsQuery](), Result: JSONCodec[[]obs.Event]()}
	MethodObsFlight = Method[ObsQuery, FlightReport]{Name: "obs.flight", Idempotent: true,
		Args: JSONCodec[ObsQuery](), Result: JSONCodec[FlightReport]()}
)

// NewObsService returns the table serving o. It is hosted directly on the
// node's dispatcher (not registered with the binding agent): every node has
// one at the same LOID, so callers address a node by endpoint, never by
// name.
func NewObsService(o *obs.Obs) Table {
	limit := func(q ObsQuery, def int) int {
		if q.Limit <= 0 {
			return def
		}
		return q.Limit
	}
	return Serve(
		MethodObsSnapshot.Handle(func(context.Context, None) (obs.Snapshot, error) {
			return o.Snapshot(obs.SnapshotLimits{Spans: 256, Events: 256}), nil
		}),
		MethodObsSpans.Handle(func(_ context.Context, q ObsQuery) ([]obs.SpanRecord, error) {
			var spans []obs.SpanRecord
			if q.TraceID != 0 {
				spans = o.GetTracer().Trace(q.TraceID)
			} else {
				spans = o.GetTracer().Recent(limit(q, 256))
			}
			if spans == nil {
				spans = []obs.SpanRecord{}
			}
			return spans, nil
		}),
		MethodObsEvents.Handle(func(_ context.Context, q ObsQuery) ([]obs.Event, error) {
			events := o.GetEvents().Recent(limit(q, 256))
			if events == nil {
				events = []obs.Event{}
			}
			return events, nil
		}),
		MethodObsFlight.Handle(func(_ context.Context, q ObsQuery) (FlightReport, error) {
			fl := o.GetFlight()
			rep := FlightReport{Stats: fl.Stats()}
			switch {
			case q.TraceID != 0:
				if ft, ok := fl.Trace(q.TraceID); ok {
					rep.Traces = []obs.FlightTrace{ft}
				}
			case q.Slowest:
				rep.Traces = fl.Slowest(limit(q, 64))
			default:
				rep.Traces = fl.Recent(limit(q, 64))
			}
			if rep.Traces == nil {
				rep.Traces = []obs.FlightTrace{}
			}
			return rep, nil
		}),
	)
}

// ObsClient fetches observability state from the obs service at a specific
// node endpoint.
type ObsClient struct {
	// Dialer reaches the node.
	Dialer transport.Dialer
	// Endpoint is the node's dialable endpoint.
	Endpoint string
	// Timeout bounds each call. Zero means 5 s.
	Timeout time.Duration
}

// Snapshot fetches the node's full observability snapshot.
func (c *ObsClient) Snapshot(ctx context.Context) (obs.Snapshot, error) {
	return MethodObsSnapshot.CallAt(ctx, c.Dialer, c.Endpoint, ObsLOID, c.Timeout, None{})
}

// Spans fetches recent spans; traceID filters to one trace when nonzero,
// limit bounds the count when positive.
func (c *ObsClient) Spans(ctx context.Context, traceID uint64, limit int) ([]obs.SpanRecord, error) {
	return MethodObsSpans.CallAt(ctx, c.Dialer, c.Endpoint, ObsLOID, c.Timeout, ObsQuery{TraceID: traceID, Limit: limit})
}

// Flight fetches the node's flight recorder state: retained (tail-sampled)
// traces plus recorder stats. traceID filters to one trace when nonzero;
// slowest orders by the slowest span; limit bounds the count when positive.
func (c *ObsClient) Flight(ctx context.Context, traceID uint64, limit int, slowest bool) (FlightReport, error) {
	return MethodObsFlight.CallAt(ctx, c.Dialer, c.Endpoint, ObsLOID, c.Timeout,
		ObsQuery{TraceID: traceID, Limit: limit, Slowest: slowest})
}

// Events fetches recent evolution events; limit bounds the count when
// positive.
func (c *ObsClient) Events(ctx context.Context, limit int) ([]obs.Event, error) {
	return MethodObsEvents.CallAt(ctx, c.Dialer, c.Endpoint, ObsLOID, c.Timeout, ObsQuery{Limit: limit})
}
