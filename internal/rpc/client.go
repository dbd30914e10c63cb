package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// RetryPolicy governs how Invoke reacts to failures: the per-attempt
// timeout, how many transport-level retries and stale-binding rebinds one
// call may consume, the backoff schedule between retries against the same
// endpoint, and an optional overall deadline budget.
//
// The zero value is intentionally NOT usable: CallTimeout must be positive
// or every attempt fails with transport.ErrInvalidTimeout. NewClient installs
// DefaultRetryPolicy, so zero values only arise when a caller builds a
// policy by hand — in which case a zero field means what it says (e.g.
// MaxRebinds: 0 really performs no rebinds) instead of silently meaning some
// hidden default, which is the bug the old CallTimeout/MaxRebinds fields had.
type RetryPolicy struct {
	// CallTimeout bounds each individual attempt. Must be positive.
	CallTimeout time.Duration
	// MaxAttempts is the total number of transport-level attempts one call
	// may make (first try included). Values below 1 are treated as 1.
	MaxAttempts int
	// MaxRebinds bounds how many times one call re-resolves after the
	// remote reports a stale binding (no-such-object after migration). Zero
	// means the first stale-binding failure is final.
	MaxRebinds int
	// BaseBackoff is the nominal delay before the first retry against an
	// endpoint that just failed. Zero disables backoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential schedule. Zero means uncapped.
	MaxBackoff time.Duration
	// Multiplier grows the nominal delay each consecutive backoff. Values
	// below 1 are treated as 1 (constant backoff).
	Multiplier float64
	// Jitter adds a uniformly random fraction of the nominal delay on top
	// of it (additive, so the realised delay is never below the nominal
	// schedule). 0.2 means up to +20%.
	Jitter float64
	// Budget, when positive, bounds the total wall-clock time one call may
	// spend across all attempts and backoffs; per-attempt timeouts shrink
	// to fit the remainder. Zero means unlimited.
	Budget time.Duration
}

// DefaultRetryPolicy returns the policy NewClient installs: the Legion
// 10-second per-attempt timeout and 1-second backoff the paper's discovery
// window derives from, three transport attempts, and two rebinds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		CallTimeout: 10 * time.Second,
		MaxAttempts: 3,
		MaxRebinds:  2,
		BaseBackoff: time.Second,
		MaxBackoff:  10 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// normalized clamps nonsensical values without silently replacing
// meaningful zeros (see the type comment).
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.MaxRebinds < 0 {
		p.MaxRebinds = 0
	}
	if p.Multiplier < 1 {
		p.Multiplier = 1
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.BaseBackoff < 0 {
		p.BaseBackoff = 0
	}
	return p
}

// backoff returns the realised delay before retry number n (0-based): the
// capped exponential nominal plus additive jitter drawn from rnd in [0, 1).
func (p RetryPolicy) backoff(n int, rnd float64) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	nominal := float64(p.BaseBackoff)
	for i := 0; i < n; i++ {
		nominal *= p.Multiplier
		if p.MaxBackoff > 0 && nominal >= float64(p.MaxBackoff) {
			break
		}
	}
	if p.MaxBackoff > 0 && nominal > float64(p.MaxBackoff) {
		nominal = float64(p.MaxBackoff)
	}
	return time.Duration(nominal + rnd*p.Jitter*nominal)
}

// Client invokes methods on objects named by LOID. It resolves addresses
// through a binding cache; when a call fails because the cached address no
// longer hosts the object (migration, re-instantiation, crash) it
// invalidates the binding, re-resolves through the binding agent, and
// retries under its RetryPolicy.
//
// Failure handling distinguishes three classes (transport.RetryClass):
// safe failures (the request provably never dispatched) are retried for any
// method; ambiguous failures (the request may have executed but the response
// was lost) are retried only by InvokeIdempotent — plain Invoke returns
// ErrAmbiguousResult so a non-idempotent function is never run twice; and
// non-retryable failures fail immediately.
type Client struct {
	cache  *naming.Cache
	dialer transport.Dialer

	// Retry is the policy applied to every call. NewClient sets it to
	// DefaultRetryPolicy(); mutate it before issuing calls.
	Retry RetryPolicy
	// Latency, when non-nil, records the end-to-end duration of each
	// successful call (including retries and backoffs).
	Latency *metrics.Sample
	// Tracer, when non-nil, roots one trace per call: a client.invoke span
	// with child spans for each bind, attempt, backoff, and rebind, and the
	// attempt's context propagated in the request envelope so server-side
	// spans join the same trace. Nil (the default) costs one pointer compare
	// and nothing else.
	Tracer *obs.Tracer

	// Per-stage histograms, installed by ObserveStages. Nil when stage
	// metering is off.
	histBind   *metrics.Histogram
	histInvoke *metrics.Histogram

	counters *metrics.CounterSet
	cCalls   *metrics.Counter
	cRebinds *metrics.Counter
	cErrors  *metrics.Counter
	cRetries *metrics.Counter
	cSafe    *metrics.Counter
	cAmbig   *metrics.Counter
	cAborts  *metrics.Counter
	cBackoff *metrics.Counter
	cShed    *metrics.Counter
	cIdem    *metrics.Counter
	cBkReads *metrics.Counter
	cBatches *metrics.Counter
	cBatched *metrics.Counter
	cBatchFB *metrics.Counter

	// noBatch records endpoints whose server rejected KindBatchRequest with
	// CodeBadRequest — a pre-batch build. InvokeBatch skips the batch framing
	// for them and goes straight to per-call invokes (the legacy fallback).
	noBatch sync.Map // endpoint string -> struct{}

	// readRR spreads policy-routed idempotent reads across a replica group
	// (position i of the rotation is the primary when i == 0, otherwise
	// backup i-1). One counter for the whole client is deliberate: a client
	// talking to several backup-ok groups still interleaves fairly enough,
	// and per-LOID state would cost a map lookup on the hot path.
	readRR atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	// targets caches each LOID's canonical Target string. Rendering the
	// string costs an allocation per call otherwise, and a client talks to a
	// small, stable set of objects, so the cache converges immediately.
	targets sync.Map // naming.LOID -> string
}

// targetString returns loid's canonical string, cached per LOID.
func (c *Client) targetString(loid naming.LOID) string {
	if v, ok := c.targets.Load(loid); ok {
		return v.(string)
	}
	s := loid.String()
	c.targets.Store(loid, s)
	return s
}

// NewClient returns a client over the given cache and dialer with
// DefaultRetryPolicy installed, so the zero values of RetryPolicy fields
// never silently stand in for defaults.
func NewClient(cache *naming.Cache, dialer transport.Dialer) *Client {
	cs := metrics.NewCounterSet()
	return &Client{
		cache:    cache,
		dialer:   dialer,
		Retry:    DefaultRetryPolicy(),
		counters: cs,
		cCalls:   cs.Counter(statCalls),
		cRebinds: cs.Counter(statRebinds),
		cErrors:  cs.Counter(statErrors),
		cRetries: cs.Counter(statRetries),
		cSafe:    cs.Counter(statSafeFailures),
		cAmbig:   cs.Counter(statAmbiguousFailures),
		cAborts:  cs.Counter(statAmbiguousAborts),
		cBackoff: cs.Counter(statBackoffs),
		cShed:    cs.Counter(statOverloadedSheds),
		cIdem:    cs.Counter(statIdempotentCalls),
		cBkReads: cs.Counter(statBackupReads),
		cBatches: cs.Counter(statBatches),
		cBatched: cs.Counter(statCallsBatched),
		cBatchFB: cs.Counter(statBatchFallbacks),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Metrics exposes the client's counters for report rendering.
func (c *Client) Metrics() *metrics.CounterSet { return c.counters }

// ObserveStages installs per-stage latency histograms from reg: client.bind
// times each binding resolution and client.invoke times each successful
// end-to-end call. A nil registry turns stage metering off.
func (c *Client) ObserveStages(reg *metrics.Registry) {
	if reg == nil {
		c.histBind, c.histInvoke = nil, nil
		return
	}
	c.histBind = reg.Histogram(obs.StageClientBind)
	c.histInvoke = reg.Histogram(obs.StageClientInvoke)
}

// Invoke calls the named exported function on the object loid with the given
// argument payload and returns the result payload. The function is treated
// as non-idempotent: an ambiguous failure (lost response, timeout after the
// request was sent) is returned as ErrAmbiguousResult instead of retried, so
// the function can never be executed twice by one Invoke.
//
// Failure semantics follow the paper (§3.2): a function may legitimately
// disappear between interface discovery and invocation, so callers must be
// prepared for ErrNoSuchFunction / ErrFunctionDisabled. Those errors are
// returned as-is (rebinding would not help — the object was reached). Only
// reachability failures trigger rebind-and-retry.
//
// ctx bounds the whole call: its absolute deadline rides in the request
// envelope so the server can refuse already-expired work, cancellation
// aborts retries and backoff sleeps, and the per-attempt timeout shrinks to
// fit ctx's remaining budget.
func (c *Client) Invoke(ctx context.Context, loid naming.LOID, method string, args []byte) ([]byte, error) {
	return c.invoke(ctx, loid, method, args, false)
}

// InvokeIdempotent is Invoke for functions the caller asserts are idempotent:
// ambiguous failures are retried under the policy (with backoff) because a
// duplicate execution is harmless.
func (c *Client) InvokeIdempotent(ctx context.Context, loid naming.LOID, method string, args []byte) ([]byte, error) {
	return c.invoke(ctx, loid, method, args, true)
}

func (c *Client) invoke(ctx context.Context, loid naming.LOID, method string, args []byte, idempotent bool) ([]byte, error) {
	if c.Tracer == nil {
		// Fast path: untraced calls must not pay a single allocation for the
		// obs layer (BenchmarkInvokeTracingOff gates this).
		return c.invokeInner(ctx, loid, method, args, idempotent, nil, obs.SpanContext{})
	}
	// Head sampling: the keep/drop decision is made once, here at the trace
	// root, and propagated on the wire so every node treats the distributed
	// trace the same way. A tracer without a sampler keeps everything.
	tctx := c.Tracer.MintContext()
	if !c.Tracer.Keep(tctx.TraceID) {
		return c.invokeUnsampled(ctx, loid, method, args, idempotent, tctx)
	}
	// Root the client.invoke span on the minted trace ID (a parent context
	// with no span ID parents nothing but pins the trace), so the sampled
	// trace carries the same ID the sampling decision was made on.
	root := c.Tracer.StartSpan(obs.StageClientInvoke, obs.SpanContext{TraceID: tctx.TraceID})
	root.Annotate("loid", loid.String())
	root.Annotate("method", method)
	result, err := c.invokeInner(ctx, loid, method, args, idempotent, root, obs.SpanContext{})
	root.Fail(err)
	root.Finish()
	return result, err
}

// invokeUnsampled is the dropped-trace path: no spans are created — the
// minted context rides the wire with the unsampled flag (a few uvarint
// appends into the request's existing metadata section) and the call is
// otherwise byte-for-byte the tracing-off instruction sequence. Only if the
// call completes slow or failed does it materialise a client.invoke record
// into the flight recorder, so the 1-in-10k outlier stays explainable while
// the other 9999 calls pay ~zero.
func (c *Client) invokeUnsampled(ctx context.Context, loid naming.LOID, method string, args []byte, idempotent bool, tctx obs.SpanContext) ([]byte, error) {
	start := time.Now()
	result, err := c.invokeInner(ctx, loid, method, args, idempotent, nil, tctx)
	if fl := c.Tracer.Flight(); fl != nil {
		dur := time.Since(start)
		if fl.ShouldRetain(dur, err != nil) {
			reason := obs.RetainSlow
			rec := obs.SpanRecord{
				TraceID:  tctx.TraceID,
				SpanID:   tctx.SpanID,
				Stage:    obs.StageClientInvoke,
				Start:    start,
				Duration: dur,
				Annots:   map[string]string{"loid": loid.String(), "method": method, "sampled": "false"},
			}
			if err != nil {
				reason = obs.RetainError
				rec.Err = err.Error()
			}
			fl.Retain(tctx.TraceID, reason, rec)
		}
	}
	return result, err
}

// invokeInner runs the retry/rebind loop. root is the call's client.invoke
// span, or nil when tracing is off; every span- or histogram-touching
// statement is guarded so the nil/nil configuration executes exactly the
// seed instruction sequence. tail, when valid (and root nil), is an
// unsampled trace context: it is stamped into each attempt's envelope with
// the unsampled flag so the server joins the drop decision, without any
// span machinery on this side.
func (c *Client) invokeInner(ctx context.Context, loid naming.LOID, method string, args []byte, idempotent bool, root *obs.Span, tail obs.SpanContext) ([]byte, error) {
	p := c.Retry.normalized()
	c.cCalls.Inc()
	if idempotent {
		c.cIdem.Inc()
	}
	start := time.Now()

	var lastErr error
	attemptFailures := 0 // transport-level failures consumed (bounded by MaxAttempts)
	rebinds := 0         // stale-binding re-resolves consumed (bounded by MaxRebinds)
	backoffs := 0        // position in the backoff schedule
	lastFailedEndpoint := ""

loop:
	for {
		if err := ctx.Err(); err != nil {
			c.cErrors.Inc()
			return nil, fmt.Errorf("invoke %s.%s: %w", loid, method, err)
		}
		var bindStart time.Time
		if c.histBind != nil {
			bindStart = time.Now()
		}
		var bindSpan *obs.Span
		if root != nil {
			bindSpan = root.Child(obs.StageClientBind)
		}
		binding, err := c.cache.Resolve(loid)
		if bindSpan != nil {
			bindSpan.Fail(err)
			bindSpan.Finish()
		}
		if c.histBind != nil {
			c.histBind.Observe(time.Since(bindStart))
		}
		if err != nil {
			c.cErrors.Inc()
			return nil, fmt.Errorf("resolve %s: %w", loid, err)
		}
		endpoint := binding.Address.Endpoint

		// Policy-routed reads: when the binding's distribution policy allows
		// reads off the primary, spread idempotent calls round-robin across
		// the whole group, wrapping the request in MethodReplRead so the
		// backup's replica wrapper invokes it locally on any role. Only the
		// first attempt routes away — after any failure or rebind the call
		// falls back to the primary path, whose failure handling (NotPrimary,
		// stale binding, transport classes) is already exact. The default
		// (nil or primary-only) policy pays one pointer compare here.
		callMethod, callArgs := method, args
		viaBackup := false
		if idempotent && attemptFailures == 0 && rebinds == 0 && binding.Policy != nil &&
			len(binding.Set.Backups) > 0 && binding.Policy.BackupReadsAllowed() {
			if idx := c.readRR.Add(1) % uint64(1+len(binding.Set.Backups)); idx > 0 {
				endpoint = binding.Set.Backups[idx-1]
				callMethod = MethodReplRead
				callArgs = EncodeReadArgs(method, args)
				viaBackup = true
			}
		}

		// Back off only when retrying the endpoint that just failed: a
		// rebind that produced a fresh endpoint is new information and is
		// tried immediately (this keeps the E4 discovery window equal to
		// the failed attempts, as the paper models it), whereas hammering
		// the same endpoint without delay would spin through the retry
		// budget inside a migration window.
		if lastFailedEndpoint != "" && endpoint == lastFailedEndpoint {
			c.rngMu.Lock()
			rnd := c.rng.Float64()
			c.rngMu.Unlock()
			if delay := p.backoff(backoffs, rnd); delay > 0 {
				c.cBackoff.Inc()
				var boSpan *obs.Span
				if root != nil {
					boSpan = root.Child(obs.StageClientBackoff)
				}
				if err := sleepCtx(ctx, delay); err != nil {
					boSpan.Finish()
					c.cErrors.Inc()
					return nil, fmt.Errorf("invoke %s.%s: %w", loid, method, err)
				}
				boSpan.Finish()
			}
			backoffs++
		}

		timeout := p.CallTimeout
		if p.Budget > 0 {
			remaining := p.Budget - time.Since(start)
			if remaining <= 0 {
				lastErr = joinErr(ErrBudgetExhausted, lastErr)
				break loop
			}
			if remaining < timeout {
				timeout = remaining
			}
		}

		req := &wire.Envelope{
			Kind:    wire.KindRequest,
			Target:  c.targetString(loid),
			Method:  callMethod,
			Payload: callArgs,
		}
		var attSpan *obs.Span
		if root != nil {
			// The attempt span is the parent of the server's dispatch span:
			// its context rides in the envelope's metadata section.
			attSpan = root.Child(obs.StageClientAttempt)
			attSpan.Annotate("endpoint", endpoint)
			ctx := attSpan.Context()
			req.TraceID = ctx.TraceID
			req.SpanID = ctx.SpanID
		} else if tail.Valid() {
			// Unsampled trace: propagate the context and the drop decision so
			// the server skips eager spans too, but can still tail-retain its
			// side of the call (parented on our minted span ID) if it turns
			// out slow or failed.
			req.TraceID = tail.TraceID
			req.SpanID = tail.SpanID
			req.TraceFlags = wire.TraceFlagUnsampled
		}
		resp, err := c.dialer.Call(ctx, endpoint, req, timeout)
		if attSpan != nil {
			attSpan.Fail(err)
			attSpan.Finish()
		}
		if err != nil {
			lastErr = err
			switch transport.Classify(err) {
			case transport.RetryNever:
				c.cErrors.Inc()
				return nil, fmt.Errorf("invoke %s.%s: %w", loid, method, err)
			case transport.RetryAmbiguous:
				c.cAmbig.Inc()
				if !idempotent {
					c.cAborts.Inc()
					c.cErrors.Inc()
					return nil, fmt.Errorf("invoke %s.%s: %w: %w", loid, method, ErrAmbiguousResult, err)
				}
			case transport.RetrySafe:
				c.cSafe.Inc()
			}
			attemptFailures++
			if attemptFailures >= p.MaxAttempts {
				break loop
			}
			// The endpoint is gone or wedged: the cached binding is suspect.
			if c.cache.InvalidateEndpoint(loid, endpoint) {
				c.cRebinds.Inc()
				markRebind(root, endpoint, "transport failure")
			}
			lastFailedEndpoint = endpoint
			c.cRetries.Inc()
			continue
		}

		switch resp.Kind {
		case wire.KindResponse:
			if viaBackup {
				c.cBkReads.Inc()
			}
			if c.Latency != nil {
				c.Latency.Observe(time.Since(start))
			}
			if c.histInvoke != nil {
				c.histInvoke.Observe(time.Since(start))
			}
			return resp.Payload, nil
		case wire.KindError:
			remote := &RemoteError{Code: resp.Code, Message: resp.ErrorMsg}
			if resp.Code == wire.CodeOverloaded {
				// The server shed the request at admission: it never
				// dispatched, so retrying is safe even for non-idempotent
				// methods — but only after backing off, and without touching
				// the binding (the endpoint is alive, just busy).
				lastErr = remote
				c.cShed.Inc()
				attemptFailures++
				if attemptFailures >= p.MaxAttempts {
					break loop
				}
				lastFailedEndpoint = endpoint // force backoff before the retry
				c.cRetries.Inc()
				continue
			}
			if resp.Code == wire.CodeUnavailable {
				// The object is alive but temporarily cannot serve — an
				// evolution blocking window, or a replica primary that cannot
				// commit state to its group. The function may have executed
				// locally without committing, so a non-idempotent call must
				// surface ambiguity; an idempotent one retries after backoff
				// against the same binding (the endpoint is healthy, the
				// condition is what has to pass).
				lastErr = remote
				c.cAmbig.Inc()
				if !idempotent {
					c.cAborts.Inc()
					c.cErrors.Inc()
					return nil, fmt.Errorf("invoke %s.%s: %w: %w", loid, method, ErrAmbiguousResult, remote)
				}
				attemptFailures++
				if attemptFailures >= p.MaxAttempts {
					break loop
				}
				lastFailedEndpoint = endpoint // force backoff before the retry
				c.cRetries.Inc()
				continue
			}
			if resp.Code == wire.CodeNotPrimary {
				// The endpoint is a backup replica: group leadership moved
				// since we cached the set. The function did not execute, so
				// drop the whole cached binding (the agent holds the new
				// set, trimming one member would not find the primary) and
				// re-resolve.
				lastErr = remote
				c.cache.Invalidate(loid)
				c.cRebinds.Inc()
				markRebind(root, endpoint, "not primary")
				rebinds++
				if rebinds > p.MaxRebinds {
					break loop
				}
				lastFailedEndpoint = endpoint
				continue
			}
			if resp.Code == wire.CodeNoSuchObject || resp.Code == wire.CodeStaleBinding {
				// The endpoint is alive but no longer hosts the object:
				// classic stale binding after migration. The function did
				// not execute, so rebinding and retrying is always safe.
				lastErr = remote
				if c.cache.InvalidateEndpoint(loid, endpoint) {
					c.cRebinds.Inc()
					markRebind(root, endpoint, "stale binding")
				}
				rebinds++
				if rebinds > p.MaxRebinds {
					break loop
				}
				lastFailedEndpoint = endpoint
				continue
			}
			c.cErrors.Inc()
			return nil, remote
		default:
			c.cErrors.Inc()
			return nil, fmt.Errorf("%w: unexpected envelope kind %s", ErrBadRequest, resp.Kind)
		}
	}

	c.cErrors.Inc()
	if lastErr == nil {
		lastErr = errors.New("rpc: exhausted retry attempts")
	}
	return nil, fmt.Errorf("invoke %s.%s after %d attempts and %d rebinds: %w",
		loid, method, attemptFailures+rebinds+1, rebinds, lastErr)
}

// markRebind records a zero-length client.rebind marker span under root
// (no-op when tracing is off — root nil).
func markRebind(root *obs.Span, endpoint, cause string) {
	if root == nil {
		return
	}
	sp := root.Child(obs.StageClientRebind)
	sp.Annotate("endpoint", endpoint)
	sp.Annotate("cause", cause)
	sp.Finish()
}

// joinErr wraps primary while preserving secondary in the message (the
// budget may expire while holding an earlier, more informative failure).
func joinErr(primary, secondary error) error {
	if secondary == nil {
		return primary
	}
	return fmt.Errorf("%w (last failure: %v)", primary, secondary)
}

// sleepCtx sleeps for d unless ctx ends first, in which case it returns
// ctx's error: a cancelled caller must not sit out a backoff delay.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
