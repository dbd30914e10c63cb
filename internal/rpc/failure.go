package rpc

import (
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// The client's failure table. Every route to the wire — a single call, a
// backup read, a batch frame and each of its sub-calls — settles a failed
// attempt through classify and Client.failed, and this file is the only
// client code that reads a transport.RetryClass or a wire error code. A batch
// sub-call whose frame failed continues the single-call loop with its
// callState, so the frame counts as its first attempt.

// verdict is what a failed attempt means for the call.
type verdict uint8

const (
	verdictFail   verdict = iota // end the call with the failure itself
	verdictAbort                 // end a non-idempotent call with ErrAmbiguousResult
	verdictRetry                 // go again, charged to MaxAttempts
	verdictRebind                // re-resolve and go again, charged to MaxRebinds
)

// cacheEffect is what a failed attempt does to the cached binding.
type cacheEffect uint8

const (
	cacheKeep cacheEffect = iota // the endpoint is alive
	cacheTrim                    // drop the failed endpoint (Cache.InvalidateEndpoint)
	cacheDrop                    // drop the whole binding (Cache.Invalidate): the set changed
)

// failStat names the client counter a failed attempt bumps.
type failStat uint8

const (
	statNone      failStat = iota
	statSafe               // failures_safe
	statAmbiguous          // failures_ambiguous
	statShed               // overloaded_sheds
)

// classify is the failure table. err is the attempt's transport failure, or
// nil when the server answered with an error envelope carrying code.
func classify(err error, code uint64, idempotent bool) (verdict, cacheEffect, failStat) {
	ambiguous := verdictAbort
	if idempotent {
		ambiguous = verdictRetry
	}
	if err != nil {
		switch transport.Classify(err) {
		case transport.RetrySafe:
			return verdictRetry, cacheTrim, statSafe
		case transport.RetryAmbiguous:
			if idempotent {
				return verdictRetry, cacheTrim, statAmbiguous
			}
			return verdictAbort, cacheKeep, statAmbiguous
		}
		return verdictFail, cacheKeep, statNone
	}
	switch code {
	case wire.CodeOverloaded: // shed at admission: never dispatched
		return verdictRetry, cacheKeep, statShed
	case wire.CodeUnavailable: // alive, but may have executed without committing
		return ambiguous, cacheKeep, statAmbiguous
	case wire.CodeNotPrimary: // leadership moved: only the agent knows the new set
		return verdictRebind, cacheDrop, statNone
	case wire.CodeNoSuchObject, wire.CodeStaleBinding: // moved away; nothing executed
		return verdictRebind, cacheTrim, statNone
	}
	return verdictFail, cacheKeep, statNone
}

// answerErr returns nil when resp has the wanted kind, and otherwise the
// failure it carries: its error envelope, or a terminal unexpected kind.
func answerErr(resp *wire.Envelope, want wire.Kind) error {
	switch resp.Kind {
	case want:
		return nil
	case wire.KindError:
		return &RemoteError{Code: resp.Code, Message: resp.ErrorMsg}
	}
	return &transport.CallError{Class: transport.RetryNever,
		Err: fmt.Errorf("%w: unexpected envelope kind %s", ErrBadRequest, resp.Kind)}
}

// malformed marks a batch response the client cannot pair with its
// sub-calls: nothing is known about any of them, so it is ambiguous.
func malformed(err error) error {
	return &transport.CallError{Class: transport.RetryAmbiguous, Err: err}
}

// callState is one call's progress through the retry loop.
type callState struct {
	start      time.Time // the first attempt's start; Budget runs from here
	failures   int       // attempts charged to MaxAttempts
	rebinds    int       // attempts charged to MaxRebinds
	backoffs   int       // position in the backoff schedule
	lastFailed string    // endpoint of the last failed attempt; "" before any
	lastErr    error
}

// exhausted is the error of a call out of attempts, rebinds or budget.
func (st *callState) exhausted(loid naming.LOID, method string) error {
	return fmt.Errorf("invoke %s.%s after %d attempts and %d rebinds: %w",
		loid, method, st.failures+st.rebinds, st.rebinds, st.lastErr)
}

// failed applies classify's row to one failed attempt against endpoint: the
// row's counter, its cache effect (with a rebind marker under root when a
// binding went), then its budget charge. err is a transport failure or a
// *RemoteError. It returns nil when the call should go again, or the error
// the call ends with.
func (c *Client) failed(st *callState, p *RetryPolicy, root *obs.Span, loid naming.LOID, method string, idempotent bool, endpoint string, err error) error {
	terr, code := err, uint64(0)
	if re, ok := err.(*RemoteError); ok {
		terr, code = nil, re.Code
	}
	v, eff, s := classify(terr, code, idempotent)
	switch s {
	case statSafe:
		c.cSafe.Inc()
	case statAmbiguous:
		c.cAmbig.Inc()
	case statShed:
		c.cShed.Inc()
	}
	st.lastErr, st.lastFailed = err, endpoint

	switch cause := "stale binding"; eff {
	case cacheTrim:
		if terr != nil {
			cause = "transport failure"
		}
		if c.cache.InvalidateEndpoint(loid, endpoint) {
			c.cRebinds.Inc()
			markRebind(root, endpoint, cause)
		}
	case cacheDrop:
		c.cache.Invalidate(loid)
		c.cRebinds.Inc()
		markRebind(root, endpoint, "not primary")
	}

	switch v {
	case verdictRetry:
		if st.failures++; st.failures < p.MaxAttempts {
			c.cRetries.Inc()
			return nil
		}
		err = st.exhausted(loid, method)
	case verdictRebind:
		if st.rebinds++; st.rebinds <= p.MaxRebinds {
			return nil
		}
		err = st.exhausted(loid, method)
	case verdictAbort:
		c.cAborts.Inc()
		err = fmt.Errorf("invoke %s.%s: %w: %w", loid, method, ErrAmbiguousResult, err)
	default:
		if terr != nil {
			err = fmt.Errorf("invoke %s.%s: %w", loid, method, err)
		}
	}
	c.cErrors.Inc()
	return err
}
