// Package rpc implements method invocation between godcdo objects on top of
// the transport and naming substrates: a server-side dispatcher that routes
// envelopes to hosted objects, and a client that resolves LOIDs through a
// binding cache and transparently rebinds when it discovers stale bindings.
//
// This is the godcdo equivalent of Legion's method-invocation layer; the
// remote-invocation experiment (E2) and the stale-binding experiment (E4)
// run against this code.
package rpc

import (
	"context"
	"errors"
	"fmt"

	"godcdo/internal/wire"
)

// Sentinel errors matching the failure classes the paper requires clients to
// handle. Remote failures decode to errors matchable with errors.Is.
var (
	// ErrNoSuchObject means the target endpoint does not host the LOID
	// (typically because the object migrated or was destroyed).
	ErrNoSuchObject = errors.New("rpc: no such object")
	// ErrNoSuchFunction is the disappearing exported function problem made
	// concrete: the function named in the request is not in the object's
	// current interface.
	ErrNoSuchFunction = errors.New("rpc: no such function")
	// ErrFunctionDisabled means the function exists but is currently
	// disabled in the object's DFM.
	ErrFunctionDisabled = errors.New("rpc: function disabled")
	// ErrStaleBinding means the call carried an out-of-date incarnation.
	ErrStaleBinding = errors.New("rpc: stale binding")
	// ErrUnavailable means the object is temporarily unable to serve
	// (e.g. mid-evolution under a blocking policy).
	ErrUnavailable = errors.New("rpc: object unavailable")
	// ErrBadRequest means the request could not be decoded or validated.
	ErrBadRequest = errors.New("rpc: bad request")
	// ErrAmbiguousResult means a call failed in a way that leaves it unknown
	// whether the remote function executed (the response was lost, or the
	// call timed out after the request was fully sent). Invoke returns it
	// instead of retrying so a non-idempotent function is never executed
	// twice; callers that can tolerate re-execution should use
	// InvokeIdempotent, which retries through this class of failure.
	ErrAmbiguousResult = errors.New("rpc: result ambiguous (request may have executed)")
	// ErrBudgetExhausted means the retry policy's overall deadline budget
	// expired before any attempt succeeded.
	ErrBudgetExhausted = errors.New("rpc: retry budget exhausted")
	// ErrOverloaded means the server shed the request at admission: its
	// concurrency limit and queue were full. The request never dispatched,
	// so retrying after backoff is always safe (both Invoke and
	// InvokeIdempotent do so automatically).
	ErrOverloaded = errors.New("rpc: server overloaded (request shed)")
	// ErrExpired means the request's propagated deadline had already passed
	// when the server examined it — on arrival, while queued for admission,
	// or between execution stages. The function did not complete.
	ErrExpired = errors.New("rpc: deadline expired before dispatch completed")
	// ErrNotPrimary means the target is a backup replica: only the group's
	// primary executes dynamic functions. The request never ran, so clients
	// re-resolve the replica set and retry against the new primary.
	ErrNotPrimary = errors.New("rpc: replica is not the primary")
	// ErrFenced means the caller presented a group epoch older than the
	// receiver's: the caller was deposed (a stale ex-primary replica or
	// manager) and must stop acting for the group.
	ErrFenced = errors.New("rpc: fenced by newer group epoch")
)

// RemoteError carries a failure returned by the remote object. It wraps the
// sentinel corresponding to its code so errors.Is works across the wire.
type RemoteError struct {
	Code    uint64
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error (code %d): %s", e.Code, e.Message)
}

// Unwrap maps the wire code back to the package sentinel.
func (e *RemoteError) Unwrap() error {
	for _, ce := range codeErrs {
		if ce.code == e.Code {
			return ce.err
		}
	}
	return nil
}

// codeErrs pairs each wire error code with the sentinel it carries: CodeOf
// tries them in order, and RemoteError.Unwrap maps a code back.
var codeErrs = []struct {
	code uint64
	err  error
}{
	{wire.CodeNoSuchObject, ErrNoSuchObject},
	{wire.CodeNoSuchFunction, ErrNoSuchFunction},
	{wire.CodeDisabled, ErrFunctionDisabled},
	{wire.CodeStaleBinding, ErrStaleBinding},
	{wire.CodeUnavailable, ErrUnavailable},
	{wire.CodeBadRequest, ErrBadRequest},
	{wire.CodeOverloaded, ErrOverloaded},
	{wire.CodeNotPrimary, ErrNotPrimary},
	{wire.CodeFenced, ErrFenced},
	{wire.CodeExpired, ErrExpired},
}

// CodeOf maps an error to the wire code used to transmit it. Unrecognised
// errors map to CodeInternal.
func CodeOf(err error) uint64 {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	for _, ce := range codeErrs {
		if errors.Is(err, ce.err) {
			return ce.code
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// A context error surfacing from object execution means the call's
		// propagated deadline (or the caller itself) expired mid-dispatch.
		return wire.CodeExpired
	}
	return wire.CodeInternal
}
