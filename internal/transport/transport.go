// Package transport provides the real byte transports godcdo nodes talk
// over: TCP (for genuinely distributed deployments and the remote-invocation
// experiments) and an in-process transport (for tests and single-process
// examples). Both carry wire.Envelope frames.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"godcdo/internal/wire"
)

// Errors returned by transports.
var (
	// ErrBadEndpoint is returned for endpoints that do not parse.
	ErrBadEndpoint = errors.New("transport: malformed endpoint")
	// ErrTimeout is returned when a call's deadline expires.
	ErrTimeout = errors.New("transport: call timed out")
	// ErrClosed is returned when using a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnreachable is returned when the endpoint cannot be contacted.
	ErrUnreachable = errors.New("transport: endpoint unreachable")
	// ErrReset is returned when the peer resets the connection.
	ErrReset = errors.New("transport: connection reset")
	// ErrInvalidTimeout is returned for non-positive call timeouts, which
	// would otherwise fire the deadline timer before the request is sent.
	ErrInvalidTimeout = errors.New("transport: non-positive call timeout")
)

// RetryClass partitions call failures by what the caller may safely do
// next. The invoke path (rpc.Client) retries according to this class; the
// distinction between RetrySafe and RetryAmbiguous is what prevents a
// retried call from executing a non-idempotent dynamic function twice.
type RetryClass int

const (
	// RetrySafe means the request provably never reached the remote
	// dispatcher (dial refused, connection already dead before the frame
	// was written, incomplete frame). Retrying cannot double-execute.
	RetrySafe RetryClass = iota
	// RetryAmbiguous means the request may have been executed but the
	// response was lost (call timeout, connection reset after the frame
	// was written). Retrying is only safe for idempotent methods.
	RetryAmbiguous
	// RetryNever means retrying the same call cannot help (malformed
	// endpoint, closed dialer, invalid timeout).
	RetryNever
)

// String implements fmt.Stringer.
func (c RetryClass) String() string {
	switch c {
	case RetrySafe:
		return "safe"
	case RetryAmbiguous:
		return "ambiguous"
	case RetryNever:
		return "never"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// CallError attaches a RetryClass to a transport failure. Dialers wrap
// every failure whose class differs from the default mapping in Classify.
type CallError struct {
	Class RetryClass
	Err   error
}

// Error implements error.
func (e *CallError) Error() string { return e.Err.Error() }

// Unwrap implements errors.Unwrap, so sentinel matching (errors.Is) works
// through the classification wrapper.
func (e *CallError) Unwrap() error { return e.Err }

func safeErr(err error) error      { return &CallError{Class: RetrySafe, Err: err} }
func ambiguousErr(err error) error { return &CallError{Class: RetryAmbiguous, Err: err} }

// Classify maps a call failure to its retry class. Errors carrying an
// explicit CallError use its class; bare sentinels fall back to a
// conservative default mapping (unknown errors are ambiguous, because
// retrying them might double-execute but a retry could also succeed).
func Classify(err error) RetryClass {
	var ce *CallError
	if errors.As(err, &ce) {
		return ce.Class
	}
	switch {
	case errors.Is(err, ErrBadEndpoint), errors.Is(err, ErrClosed), errors.Is(err, ErrInvalidTimeout):
		return RetryNever
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller's context is spent: no further attempt can succeed
		// within it, so retrying the same call cannot help.
		return RetryNever
	case errors.Is(err, ErrUnreachable):
		// A bare unreachable means the dial itself failed: nothing was sent.
		return RetrySafe
	case errors.Is(err, ErrTimeout):
		return RetryAmbiguous
	default:
		return RetryAmbiguous
	}
}

// Dropped is a sentinel response a Handler may return to simulate a lost
// response (fault injection): the TCP server writes nothing back, and the
// in-process dialer surfaces an ambiguous timeout, exactly as a genuinely
// dropped response frame would behave.
var Dropped = &wire.Envelope{Kind: wire.KindError, ErrorMsg: "transport: response dropped (sentinel)"}

// Handler processes one inbound request envelope and returns the response
// envelope (KindResponse or KindError). Handlers must be safe for concurrent
// use; the TCP server dispatches pipelined requests concurrently.
//
// ctx is the server-side call context: the in-process transport passes the
// caller's context straight through (so cancellation propagates for free),
// while the TCP server passes its own lifetime context (cancelled on Close).
// Any deadline the *caller* set travels separately as req.Deadline; the
// dispatcher, not the transport, decides how to honour it.
//
// Ownership: the request envelope is valid only during Handle. The TCP
// server decodes req into a pooled envelope and req.Payload aliases a pooled
// frame buffer; it reclaims both after Handle returns and the response has
// been encoded. Handlers may read req freely during the call — and may even
// return req itself, or a response whose Payload aliases it, since encoding
// copies — but must not retain req past returning, and must copy any bytes
// of its Payload they keep (background goroutines, caches, journals).
// Strings read from req (Target, Method) are immutable and safe to keep.
type Handler interface {
	Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req *wire.Envelope) *wire.Envelope

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	return f(ctx, req)
}

// Server accepts inbound envelopes on an endpoint.
type Server interface {
	// Endpoint returns the server's dialable endpoint ("tcp:host:port" or
	// "inproc:name").
	Endpoint() string
	// Close stops accepting and tears down live connections.
	Close() error
}

// Dialer issues request/response calls against endpoints.
type Dialer interface {
	// Call sends req to endpoint and waits up to timeout for the matching
	// response. The effective wait is the smaller of timeout and ctx's
	// remaining budget; a done ctx aborts the wait immediately. Dialers
	// stamp ctx's absolute deadline (when one is set and req carries none)
	// into req.Deadline so it propagates to the server.
	Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error)
	// Close releases pooled connections.
	Close() error
}

// StampDeadline copies ctx's absolute deadline into req.Deadline when ctx
// carries one and the envelope does not already have an equal-or-earlier
// deadline. Dialers call it on every outbound request so the server sees the
// caller's end-to-end budget, not the per-attempt transport timeout.
func StampDeadline(ctx context.Context, req *wire.Envelope) {
	if d, ok := ctx.Deadline(); ok {
		if ns := d.UnixNano(); req.Deadline == 0 || ns < req.Deadline {
			req.Deadline = ns
		}
	}
}

// callWait returns the effective wait budget for a call: the smaller of the
// configured timeout and ctx's remaining time. A context that is already
// done yields ctx.Err wrapped as RetryNever via the caller's use of Classify.
func callWait(ctx context.Context, timeout time.Duration) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, &CallError{Class: RetryNever, Err: err}
	}
	if d, ok := ctx.Deadline(); ok {
		if remain := time.Until(d); remain < timeout {
			timeout = remain
		}
	}
	if timeout <= 0 {
		// The context deadline leaves no budget: surface it as the
		// context's own error class rather than ErrInvalidTimeout, which is
		// reserved for caller bugs.
		return 0, &CallError{Class: RetryNever, Err: context.DeadlineExceeded}
	}
	return timeout, nil
}

// Scheme identifies the transport family of an endpoint.
type Scheme string

// Supported endpoint schemes.
const (
	SchemeTCP    Scheme = "tcp"
	SchemeInproc Scheme = "inproc"
)

// ParseEndpoint splits "scheme:rest" and validates the scheme.
func ParseEndpoint(endpoint string) (Scheme, string, error) {
	scheme, rest, ok := strings.Cut(endpoint, ":")
	if !ok || rest == "" {
		return "", "", fmt.Errorf("%w: %q", ErrBadEndpoint, endpoint)
	}
	switch Scheme(scheme) {
	case SchemeTCP, SchemeInproc:
		return Scheme(scheme), rest, nil
	default:
		return "", "", fmt.Errorf("%w: unknown scheme in %q", ErrBadEndpoint, endpoint)
	}
}

// MultiDialer routes calls to the dialer registered for each endpoint's
// scheme. It is how a node talks both TCP and in-process.
type MultiDialer struct {
	dialers map[Scheme]Dialer
}

var _ Dialer = (*MultiDialer)(nil)

// NewMultiDialer returns a dialer that dispatches on endpoint scheme.
func NewMultiDialer(dialers map[Scheme]Dialer) *MultiDialer {
	m := make(map[Scheme]Dialer, len(dialers))
	for k, v := range dialers {
		m[k] = v
	}
	return &MultiDialer{dialers: m}
}

// Call implements Dialer.
func (m *MultiDialer) Call(ctx context.Context, endpoint string, req *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	scheme, _, err := ParseEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	d, ok := m.dialers[scheme]
	if !ok {
		return nil, fmt.Errorf("%w: no dialer for scheme %q", ErrBadEndpoint, scheme)
	}
	return d.Call(ctx, endpoint, req, timeout)
}

// Close implements Dialer, closing every registered dialer.
func (m *MultiDialer) Close() error {
	var firstErr error
	for _, d := range m.dialers {
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
