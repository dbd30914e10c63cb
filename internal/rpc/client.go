package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
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
	// remote reports a stale binding (no-such-object after migration), or
	// waits for a binding that has not moved since a safe failure. Zero
	// means the first stale-binding failure is final. Once they are spent,
	// a wait is an attempt, and the call's earlier waits count against
	// MaxAttempts too.
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

// timeout returns the per-attempt timeout for a call that began at start:
// CallTimeout, shrunk to what is left of Budget, and false once the budget
// is spent.
func (p RetryPolicy) timeout(start time.Time) (time.Duration, bool) {
	if p.Budget <= 0 {
		return p.CallTimeout, true
	}
	remaining := p.Budget - time.Since(start)
	return min(p.CallTimeout, remaining), remaining > 0
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
// non-retryable failures fail immediately. classify (failure.go) is the one
// table of these rules and the wire codes beside them.
type Client struct {
	cache  *naming.Cache
	dialer transport.Dialer

	// Retry is the policy applied to every call. NewClient sets it to
	// DefaultRetryPolicy(); mutate it before issuing calls.
	Retry RetryPolicy
	// Latency, when non-nil, records the end-to-end duration of each
	// successful call (including retries and backoffs).
	Latency *metrics.Sample
	// Tracer, when non-nil, records each call as a client.invoke span with
	// child spans for each bind, attempt, backoff, and rebind, and the
	// attempt's context propagated in the request envelope so server-side
	// spans join the same trace. The call joins the trace its ctx carries
	// (obs.ContextWithSpan) and roots one otherwise. Nil (the default)
	// costs one pointer compare and nothing else.
	Tracer *obs.Tracer

	// Per-stage histograms, installed by ObserveStages. Nil when stage
	// metering is off.
	histBind   *metrics.Histogram
	histInvoke *metrics.Histogram

	counters *metrics.CounterSet
	count    [numStats]*metrics.Counter // counters[clientStatFields[k].name]

	// readRR spreads policy-routed idempotent reads across a replica group
	// (position i of the rotation is the primary when i == 0, otherwise
	// backup i-1). One counter for the whole client is deliberate: a client
	// talking to several backup-ok groups still interleaves fairly enough,
	// and per-LOID state would cost a map lookup on the hot path.
	readRR atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewClient returns a client over the given cache and dialer with
// DefaultRetryPolicy installed, so the zero values of RetryPolicy fields
// never silently stand in for defaults.
func NewClient(cache *naming.Cache, dialer transport.Dialer) *Client {
	c := &Client{
		cache:    cache,
		dialer:   dialer,
		Retry:    DefaultRetryPolicy(),
		counters: metrics.NewCounterSet(),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for k, f := range clientStatFields {
		c.count[k] = c.counters.Counter(f.name)
	}
	return c
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
	return c.invoke(ctx, BatchCall{LOID: loid, Method: method, Args: args}, false)
}

// InvokeIdempotent is Invoke for functions the caller asserts are idempotent:
// ambiguous failures are retried under the policy (with backoff) because a
// duplicate execution is harmless. The caller also asserts the function only
// reads, so when the binding's policy allows backup reads the first attempt
// may go to a backup.
func (c *Client) InvokeIdempotent(ctx context.Context, loid naming.LOID, method string, args []byte) ([]byte, error) {
	return c.invoke(ctx, BatchCall{LOID: loid, Method: method, Args: args, Idempotent: true}, true)
}

// invoke runs one call through the call loop as a batch of one, traced when
// a Tracer is set. backupOK lets its first attempt go to a backup when the
// binding's policy allows backup reads.
func (c *Client) invoke(ctx context.Context, call BatchCall, backupOK bool) ([]byte, error) {
	c.count[statCalls].Inc()
	if call.Idempotent {
		c.count[statIdempotent].Inc()
	}
	one := [1]pending{{BatchCall: call, backupOK: backupOK, start: time.Now()}}
	pc := &one[0]
	c.runTraced(ctx, one[:])
	if pc.Err == nil && c.Latency != nil {
		c.Latency.Observe(time.Since(pc.start))
	}
	if pc.Err == nil && c.histInvoke != nil {
		c.histInvoke.Observe(time.Since(pc.start))
	}
	return pc.Payload, pc.Err
}

// runTraced runs calls, one call or a batch, through the call loop under one
// client.invoke span when the client has a Tracer. The span joins the trace
// ctx carries (only kept traces put spans in ctx), or else roots a minted
// trace that the head sampler keeps or drops once, here at the trace root.
func (c *Client) runTraced(ctx context.Context, calls []pending) {
	if c.Tracer == nil || len(calls) == 0 {
		// Fast path: untraced calls must not pay a single allocation for the
		// obs layer (BenchmarkInvokeTracingOff gates this). An empty batch
		// has nothing to trace.
		c.run(ctx, calls, nil, obs.SpanContext{})
		return
	}
	parent := obs.SpanFromContext(ctx)
	if !parent.Valid() {
		tctx := c.Tracer.MintContext()
		if !c.Tracer.Keep(tctx.TraceID) {
			c.run(ctx, calls, nil, tctx)
			c.retainTail(calls, tctx)
			return
		}
		// Root the span on the minted trace ID (a parent context with no
		// span ID parents nothing but pins the trace), so the sampled trace
		// carries the same ID the sampling decision was made on.
		parent = obs.SpanContext{TraceID: tctx.TraceID}
	}
	root := c.Tracer.StartSpan(obs.StageClientInvoke, parent)
	if len(calls) == 1 {
		root.Annotate("loid", calls[0].LOID.String())
		root.Annotate("method", calls[0].Method)
	} else {
		root.Annotate("calls", strconv.Itoa(len(calls)))
	}
	c.run(ctx, calls, root, obs.SpanContext{})
	root.Fail(firstErr(calls))
	root.Finish()
}

// firstErr returns the first failed call's error, or nil.
func firstErr(calls []pending) error {
	for i := range calls {
		if calls[i].Err != nil {
			return calls[i].Err
		}
	}
	return nil
}

// retainTail is the dropped-trace path's only obs work: the calls ran with no
// spans, the minted context riding the wire with the unsampled flag, and only
// if they completed slow or failed does a client.invoke record reach the
// flight recorder, so the 1-in-10k outlier stays explainable while the other
// 9999 calls pay ~zero.
func (c *Client) retainTail(calls []pending, tctx obs.SpanContext) {
	fl := c.Tracer.Flight()
	start := calls[0].start
	dur, err := time.Since(start), firstErr(calls)
	if fl == nil || !fl.ShouldRetain(dur, err != nil) {
		return
	}
	reason := obs.RetainSlow
	rec := obs.SpanRecord{
		TraceID:  tctx.TraceID,
		SpanID:   tctx.SpanID,
		Stage:    obs.StageClientInvoke,
		Start:    start,
		Duration: dur,
		Annots:   map[string]string{"sampled": "false"},
	}
	if len(calls) == 1 {
		rec.Annots["loid"], rec.Annots["method"] = calls[0].LOID.String(), calls[0].Method
	} else {
		rec.Annots["calls"] = strconv.Itoa(len(calls))
	}
	if err != nil {
		reason = obs.RetainError
		rec.Err = err.Error()
	}
	fl.Retain(tctx.TraceID, reason, rec)
}

// pending is one call in the call loop: what it asks, its progress through
// the retry rules (failure.go), and, once done, its outcome.
type pending struct {
	BatchCall
	BatchResult
	done     bool
	backupOK bool // the first attempt may go to a backup

	// The next attempt, chosen by pick.
	endpoint string
	backup   bool   // a backup read, wrapped in MethodReplRead
	inc      uint64 // incarnation of the binding it goes out on

	start      time.Time // Budget runs from here
	sends      int       // attempts made
	failures   int       // attempts charged to MaxAttempts
	rebinds    int       // attempts charged to MaxRebinds
	backoffs   int       // position in the backoff schedule
	lastFailed string    // endpoint of the last failed attempt; "" before any
	lastErr    error
	safeInc    uint64 // incarnation the last safe failure was against; 0 before any
	wait       bool   // the last failure was a wait: back off before the next attempt
}

// end ends pc with err.
func (c *Client) end(pc *pending, err error) {
	c.count[statErrors].Inc()
	pc.Err, pc.done = err, true
}

// run is the call loop, for a single call and a batch alike. Each round
// resolves every live call and picks its endpoint, sends each endpoint's
// calls in one attempt (endpoints in parallel when there is more than one),
// and settles every call the attempt answered through the failure table;
// the calls it retries stay live for the next round. root is the calls'
// client.invoke span, or nil when untraced, and every span- or
// histogram-touching statement is guarded so the nil/nil configuration
// executes the seed instruction sequence; only a single call's resolves get
// client.bind spans, since a batch's would record one per sub-call per round.
// tail, when valid (and root nil), is an unsampled trace context stamped into
// every envelope with the unsampled flag so the server joins the drop decision.
func (c *Client) run(ctx context.Context, calls []pending, root *obs.Span, tail obs.SpanContext) {
	p := c.Retry.normalized()
	bind := root
	if len(calls) > 1 {
		bind = nil
	}
	for {
		first, live, mixed := "", 0, false
		for i := range calls {
			if pc := &calls[i]; !pc.done && c.pick(ctx, pc, bind) {
				if live == 0 {
					first = pc.endpoint
				}
				live++
				mixed = mixed || pc.endpoint != first
			}
		}
		switch {
		case live == 0:
			return
		case !mixed:
			c.send(ctx, p, first, calls, root, tail)
		default:
			c.scatter(ctx, p, calls, root, tail)
		}
	}
}

// scatter sends each endpoint's live calls from its own goroutine. Each
// works on a copy of its calls, copied back once all are answered, so that
// calls never leaves the caller's stack.
func (c *Client) scatter(ctx context.Context, p RetryPolicy, calls []pending, root *obs.Span, tail obs.SpanContext) {
	groups := make(map[string][]int)
	for i := range calls {
		if !calls[i].done {
			groups[calls[i].endpoint] = append(groups[calls[i].endpoint], i)
		}
	}
	copies := make(map[string][]pending, len(groups))
	var wg sync.WaitGroup
	for ep, idx := range groups {
		group := make([]pending, len(idx))
		for k, i := range idx {
			group[k] = calls[i]
		}
		copies[ep] = group
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.send(ctx, p, ep, group, root, tail)
		}()
	}
	wg.Wait()
	for ep, idx := range groups {
		for k, i := range idx {
			calls[i] = copies[ep][k]
		}
	}
}

// pick resolves pc's binding and chooses the endpoint of its next attempt:
// for a backup-ok call's first attempt under a policy that allows backup
// reads, the group's members round-robin, so that a backup's share goes
// wrapped in MethodReplRead for its replica wrapper to invoke locally on any
// role; otherwise, and after any failure, the primary. The default (nil or
// primary-only) policy pays one pointer compare here. A cancelled context or
// a resolve failure ends the call instead.
func (c *Client) pick(ctx context.Context, pc *pending, root *obs.Span) bool {
	if err := ctx.Err(); err != nil {
		c.end(pc, fmt.Errorf("invoke %s.%s: %w", pc.LOID, pc.Method, err))
		return false
	}
	var bindStart time.Time
	if c.histBind != nil {
		bindStart = time.Now()
	}
	var bindSpan *obs.Span
	if root != nil {
		bindSpan = root.Child(obs.StageClientBind)
	}
	binding, err := c.cache.Resolve(pc.LOID)
	if bindSpan != nil {
		bindSpan.Fail(err)
		bindSpan.Finish()
	}
	if c.histBind != nil {
		c.histBind.Observe(time.Since(bindStart))
	}
	if err != nil {
		c.end(pc, fmt.Errorf("resolve %s: %w", pc.LOID, err))
		return false
	}
	pc.endpoint, pc.inc, pc.backup = binding.Address.Endpoint, binding.Address.Incarnation, false
	if pc.backupOK && pc.sends == 0 && binding.Policy != nil &&
		len(binding.Set.Backups) > 0 && binding.Policy.BackupReadsAllowed() {
		if idx := c.readRR.Add(1) % uint64(1+len(binding.Set.Backups)); idx > 0 {
			pc.endpoint, pc.backup = binding.Set.Backups[idx-1], true
		}
	}
	return true
}

// send makes the next attempt of every live call in calls, all bound for
// endpoint. It backs off first, by the longest delay any of their schedules
// asks for: a call backs off when it goes back to the endpoint that just
// failed it, or after a wait for the binding. A rebind that produced a fresh
// endpoint is new information and is tried immediately (this keeps the E4
// discovery window equal to the failed attempts, as the paper models it),
// whereas hammering the same endpoint without delay would spin through the
// retry budget inside a migration window. Calls whose Budget is spent end;
// the rest travel as one plain request, or as batch frames of up to
// wire.MaxBatchCalls.
func (c *Client) send(ctx context.Context, p RetryPolicy, endpoint string, calls []pending, root *obs.Span, tail obs.SpanContext) {
	var delay time.Duration
	for i := range calls {
		if pc := &calls[i]; !pc.done && pc.lastFailed != "" && (pc.lastFailed == endpoint || pc.wait) {
			c.rngMu.Lock()
			rnd := c.rng.Float64()
			c.rngMu.Unlock()
			if d := p.backoff(pc.backoffs, rnd); d > 0 {
				c.count[statBackoffs].Inc()
				delay = max(delay, d)
			}
			pc.backoffs++
		}
	}
	var err error
	if delay > 0 {
		var boSpan *obs.Span
		if root != nil {
			boSpan = root.Child(obs.StageClientBackoff)
		}
		err = sleepCtx(ctx, delay)
		boSpan.Finish()
	}

	timeout, live, last := p.CallTimeout, 0, 0
	for i := range calls {
		pc := &calls[i]
		if pc.done {
			continue
		}
		t, ok := p.timeout(pc.start)
		switch {
		case err != nil:
			c.end(pc, fmt.Errorf("invoke %s.%s: %w", pc.LOID, pc.Method, err))
		case !ok:
			pc.lastErr = joinErr(ErrBudgetExhausted, pc.lastErr)
			c.end(pc, pc.exhausted())
		default:
			timeout, live, last = min(timeout, t), live+1, i
		}
	}
	if live == 1 {
		c.sendOne(ctx, &p, &calls[last], timeout, root, tail)
		return
	}
	for i := 0; live > 0; live -= wire.MaxBatchCalls {
		i = c.sendFrame(ctx, &p, endpoint, calls, i, min(live, wire.MaxBatchCalls), timeout, root, tail)
	}
}

// request returns the method and payload pc's attempt carries. A backup
// read's are MethodReplRead and its wrapper, written into a frame-pool
// buffer that is also returned for the caller to release.
func (pc *pending) request() (method string, payload, wrapper []byte) {
	if !pc.backup {
		return pc.Method, pc.Args, nil
	}
	a := ReadArgs{Method: pc.Method, Args: pc.Args}
	wrapper = appendReadArgs(wire.GetBuf(readArgsSize(a))[:0], a)
	return MethodReplRead, wrapper, wrapper
}

// sendOne makes pc's attempt as one request envelope, with its spans when
// root is set.
func (c *Client) sendOne(ctx context.Context, p *RetryPolicy, pc *pending, timeout time.Duration, root *obs.Span, tail obs.SpanContext) {
	req := wire.GetEnvelope()
	method, payload, wrapper := pc.request()
	req.Kind, req.Target, req.Method, req.Payload = wire.KindRequest, targetOf(pc.LOID), method, payload
	attSpan := stampTrace(req, pc.endpoint, root, tail)
	result, err := attempt(ctx, c.dialer, pc.endpoint, req, wrapper, timeout)
	if attSpan != nil {
		attSpan.Fail(err)
		attSpan.Finish()
	}
	c.settle(pc, p, root, result, err)
}

// stampTrace puts an attempt's trace position on req, one request or a batch
// frame: under root, a client.attempt span's (the parent of the server's
// dispatch spans), which the caller finishes; else an unsampled trace's, so
// the server skips eager spans but can still tail-retain a slow or failed call.
func stampTrace(req *wire.Envelope, endpoint string, root *obs.Span, tail obs.SpanContext) *obs.Span {
	if root != nil {
		attSpan := root.Child(obs.StageClientAttempt)
		attSpan.Annotate("endpoint", endpoint)
		sc := attSpan.Context()
		req.TraceID, req.SpanID = sc.TraceID, sc.SpanID
		return attSpan
	}
	if tail.Valid() {
		req.TraceID, req.SpanID, req.TraceFlags = tail.TraceID, tail.SpanID, wire.TraceFlagUnsampled
	}
	return nil
}

// settle records the outcome of pc's attempt: its result, or its failure
// through the failure table.
func (c *Client) settle(pc *pending, p *RetryPolicy, root *obs.Span, payload []byte, err error) {
	pc.sends++
	switch {
	case err != nil:
		c.failed(pc, p, root, err)
	case pc.backup:
		c.count[statBackupReads].Inc()
		fallthrough
	default:
		pc.Payload, pc.done = payload, true
	}
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
