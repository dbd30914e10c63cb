package rpc

import (
	"fmt"

	"godcdo/internal/obs"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// The client's failure table. Every failed attempt of the call loop — a
// single call's, a backup read's, a batch frame's and each of its
// sub-calls' — settles through classify and Client.failed, and this file is
// the only client code that reads a transport.RetryClass or a wire error
// code. A batch frame is an attempt of each of its sub-calls.

// verdict is what a failed attempt means for the call.
type verdict uint8

const (
	verdictFail   verdict = iota // end the call with the failure itself
	verdictAbort                 // end a non-idempotent call with ErrAmbiguousResult
	verdictRetry                 // go again, charged to MaxAttempts
	verdictRebind                // re-resolve and go again, charged to MaxRebinds
	verdictWait                  // back off, re-resolve and go again, charged to MaxRebinds, then to MaxAttempts
)

// cacheEffect is what a failed attempt does to the cached binding.
type cacheEffect uint8

const (
	cacheKeep cacheEffect = iota // the endpoint is alive
	cacheTrim                    // drop the failed endpoint (Cache.InvalidateEndpoint)
	cacheDrop                    // drop the whole binding (Cache.Invalidate): the set changed
)

// classify is the failure table. err is the attempt's transport failure, or
// nil when the server answered with an error envelope carrying code.
// unmoved reports that the attempt went out on the binding incarnation an
// earlier safe failure of the same call was against: the endpoint is still
// unreachable and the agent has published nothing new, so the call waits
// for the binding to move instead of spending an attempt on it.
func classify(err error, code uint64, idempotent, unmoved bool) (verdict, cacheEffect, stat) {
	ambiguous := verdictAbort
	if idempotent {
		ambiguous = verdictRetry
	}
	if err != nil {
		switch transport.Classify(err) {
		case transport.RetrySafe:
			if unmoved {
				return verdictWait, cacheDrop, statSafe
			}
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

// exhausted is the error of a call out of attempts, rebinds or budget.
func (pc *pending) exhausted() error {
	return fmt.Errorf("invoke %s.%s after %d attempts and %d rebinds: %w",
		pc.LOID, pc.Method, pc.failures+pc.rebinds, pc.rebinds, pc.lastErr)
}

// failed applies classify's row to pc's failed attempt: the row's counter,
// its cache effect (with a client.rebind marker under root when a binding
// went), then its budget charge, which leaves the call live for the next
// round or ends it. err is a transport failure or a *RemoteError.
func (c *Client) failed(pc *pending, p *RetryPolicy, root *obs.Span, err error) {
	terr, code := err, uint64(0)
	if re, ok := err.(*RemoteError); ok {
		terr, code = nil, re.Code
	}
	v, eff, s := classify(terr, code, pc.Idempotent, pc.safeInc != 0 && pc.safeInc == pc.inc)
	if s != statNone {
		c.count[s].Inc()
	}
	if s == statSafe {
		pc.safeInc = pc.inc
	}
	pc.lastErr, pc.lastFailed, pc.wait = err, pc.endpoint, v == verdictWait

	rebound := eff == cacheDrop
	switch eff {
	case cacheTrim:
		rebound = c.cache.InvalidateEndpoint(pc.LOID, pc.endpoint)
	case cacheDrop:
		c.cache.Invalidate(pc.LOID)
	}
	if rebound {
		c.count[statRebinds].Inc()
		if root != nil { // a zero-length client.rebind marker span
			cause := "stale binding"
			switch {
			case v == verdictWait:
				cause = "waiting for the binding"
			case eff == cacheDrop:
				cause = "not primary"
			case terr != nil:
				cause = "transport failure"
			}
			sp := root.Child(obs.StageClientRebind)
			sp.Annotate("endpoint", pc.endpoint)
			sp.Annotate("cause", cause)
			sp.Finish()
		}
	}

	switch v {
	case verdictWait:
		// A wait spends a rebind while any are left. After that it is an
		// attempt, and the call ends once it has made MaxAttempts, its
		// earlier waits included.
		if pc.rebinds < p.MaxRebinds {
			pc.rebinds++
			c.count[statRetries].Inc()
			return
		}
		if pc.failures++; pc.failures+pc.rebinds < p.MaxAttempts {
			c.count[statRetries].Inc()
			return
		}
		err = pc.exhausted()
	case verdictRetry:
		if pc.failures++; pc.failures < p.MaxAttempts {
			c.count[statRetries].Inc()
			return
		}
		err = pc.exhausted()
	case verdictRebind:
		if pc.rebinds++; pc.rebinds <= p.MaxRebinds {
			return
		}
		err = pc.exhausted()
	case verdictAbort:
		c.count[statAborts].Inc()
		err = fmt.Errorf("invoke %s.%s: %w: %w", pc.LOID, pc.Method, ErrAmbiguousResult, err)
	default:
		if terr != nil {
			err = fmt.Errorf("invoke %s.%s: %w", pc.LOID, pc.Method, err)
		}
	}
	c.end(pc, err)
}
