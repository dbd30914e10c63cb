package rpc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/wire"
)

// Scatter-gather invocation. InvokeBatch carries N sub-calls to their
// endpoints in as few frames as possible: sub-calls are grouped by resolved
// endpoint, each group travels as one KindBatchRequest frame (riding the
// transport's write coalescing), and groups to different endpoints fly
// concurrently. The single-call failure semantics hold per sub-call by
// construction: the frame is each sub-call's first attempt, its failure
// settles through the same failure table as a single call's (failure.go),
// and a sub-call the table retries continues the single-call loop from
// there, with the budgets the frame already spent. Non-idempotent sub-calls
// therefore keep at-most-once semantics exactly as a single Invoke does.

// BatchCall names one sub-call of a batch: the target object, the exported
// function, its argument payload, and whether the caller asserts the
// function is idempotent (granting the retry machine permission to re-run it
// through ambiguous failures, per InvokeIdempotent).
type BatchCall struct {
	LOID       naming.LOID
	Method     string
	Args       []byte
	Idempotent bool
}

// BatchResult carries one sub-call's outcome: the result payload, or the
// error classified exactly as the single-call API would classify it
// (ErrAmbiguousResult, RemoteError wrapping the rpc sentinels, etc.).
type BatchResult struct {
	Payload []byte
	Err     error
}

// InvokeBatch invokes all calls and returns one result per call, in order.
// Sub-calls to the same endpoint travel together in one batch frame;
// distinct endpoints are contacted concurrently. It never returns an error
// itself — per-sub-call failures land in the corresponding BatchResult.
//
// For repeated batches, the reusable Batch builder amortises the slice
// allocations this convenience wrapper pays per call.
func (c *Client) InvokeBatch(ctx context.Context, calls []BatchCall) []BatchResult {
	results := make([]BatchResult, len(calls))
	c.invokeBatch(ctx, calls, results)
	return results
}

// Batch accumulates sub-calls for one scatter-gather invocation and reuses
// its internal slices across Invoke/Reset cycles, so a steady-state caller
// pays no per-batch allocations for the bookkeeping. Not safe for concurrent
// use; build one Batch per calling goroutine.
type Batch struct {
	c       *Client
	calls   []BatchCall
	results []BatchResult
}

// NewBatch returns an empty reusable batch bound to this client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Add appends a non-idempotent sub-call (at-most-once semantics, as Invoke).
func (b *Batch) Add(loid naming.LOID, method string, args []byte) {
	b.calls = append(b.calls, BatchCall{LOID: loid, Method: method, Args: args})
}

// AddIdempotent appends an idempotent sub-call (retried through ambiguous
// failures, as InvokeIdempotent).
func (b *Batch) AddIdempotent(loid naming.LOID, method string, args []byte) {
	b.calls = append(b.calls, BatchCall{LOID: loid, Method: method, Args: args, Idempotent: true})
}

// Len reports the number of accumulated sub-calls.
func (b *Batch) Len() int { return len(b.calls) }

// Reset empties the batch for reuse, keeping capacity.
func (b *Batch) Reset() { b.calls = b.calls[:0] }

// Invoke runs the accumulated sub-calls and returns one result per Add, in
// Add order. The returned slice is owned by the Batch and overwritten by the
// next Invoke; callers needing to retain it across invocations must copy.
func (b *Batch) Invoke(ctx context.Context) []BatchResult {
	if cap(b.results) < len(b.calls) {
		b.results = make([]BatchResult, len(b.calls))
	}
	b.results = b.results[:len(b.calls)]
	for i := range b.results {
		b.results[i] = BatchResult{}
	}
	b.c.invokeBatch(ctx, b.calls, b.results)
	return b.results
}

// invokeBatch groups calls by endpoint and dispatches each group; results
// lands one outcome per call, positionally.
func (c *Client) invokeBatch(ctx context.Context, calls []BatchCall, results []BatchResult) {
	if len(calls) == 0 {
		return
	}
	c.cBatched.Add(uint64(len(calls)))

	// Resolve every sub-call up front. Resolution failures are terminal for
	// that sub-call (exactly as a single invoke's resolve failure is); the
	// rest proceed. endpoints[i] == "" marks a settled slot.
	endpoints := make([]string, len(calls))
	idx := make([]int, 0, len(calls))
	first, mixed := "", false
	for i := range calls {
		binding, err := c.cache.Resolve(calls[i].LOID)
		if err != nil {
			c.cErrors.Inc()
			results[i].Err = fmt.Errorf("resolve %s: %w", calls[i].LOID, err)
			continue
		}
		ep := binding.Address.Endpoint
		if first == "" {
			first = ep
		}
		endpoints[i], mixed = ep, mixed || ep != first
		idx = append(idx, i)
	}

	// Common case: every live sub-call targets one endpoint — dispatch
	// inline with no group map and no goroutines.
	if !mixed {
		c.invokeGroup(ctx, first, calls, idx, results)
		return
	}

	// Mixed-LOID scatter: one group per endpoint, gathered concurrently.
	groups := make(map[string][]int)
	for i, ep := range endpoints {
		if ep != "" {
			groups[ep] = append(groups[ep], i)
		}
	}
	var wg sync.WaitGroup
	for ep, idx := range groups {
		wg.Add(1)
		go func(ep string, idx []int) {
			defer wg.Done()
			c.invokeGroup(ctx, ep, calls, idx, results)
		}(ep, idx)
	}
	wg.Wait()
}

// invokeGroup sends the sub-calls named by idx to one endpoint, chunking at
// the wire format's batch-size bound.
func (c *Client) invokeGroup(ctx context.Context, endpoint string, calls []BatchCall, idx []int, results []BatchResult) {
	for len(idx) > wire.MaxBatchCalls {
		c.invokeChunk(ctx, endpoint, calls, idx[:wire.MaxBatchCalls], results)
		idx = idx[wire.MaxBatchCalls:]
	}
	c.invokeChunk(ctx, endpoint, calls, idx, results)
}

// invokeChunk sends the sub-calls in idx to endpoint as one batch frame and
// settles each from its own outcome: a sub-response, the sub's error
// envelope, or the frame's failure. A failed sub-call goes through
// Client.failed like any attempt; on a retry or rebind verdict it continues
// the single-call loop with the frame counted as its first attempt. A chunk
// of one, or a call whose Budget is already spent, skips the frame and
// enters that loop directly.
func (c *Client) invokeChunk(ctx context.Context, endpoint string, calls []BatchCall, idx []int, results []BatchResult) {
	p := c.Retry.normalized()
	start := time.Now()
	timeout, ok := p.timeout(start)
	framed := len(idx) > 1 && ok
	var subs []wire.Envelope
	var frameErr error
	if framed {
		subs, frameErr = c.sendBatch(ctx, endpoint, calls, idx, timeout)
	}
	for k, i := range idx {
		call := &calls[i]
		st := callState{start: start}
		if framed {
			err := frameErr
			if err == nil {
				if err = answerErr(&subs[k], wire.KindResponse); err == nil {
					results[i].Payload = subs[k].Payload
					continue
				}
			}
			if results[i].Err = c.failed(&st, &p, nil, call.LOID, call.Method, call.Idempotent, endpoint, err); results[i].Err != nil {
				continue
			}
		}
		c.cBatchFB.Inc()
		results[i].Payload, results[i].Err = c.invoke(ctx, call.LOID, call.Method, call.Args, call.Idempotent, call.Idempotent, st)
	}
}

// sendBatch performs one batch frame exchange and returns one sub-response
// per sub-call in idx, or the whole frame's failure: a transport error, the
// outer error envelope, or a malformed or mis-sized run.
func (c *Client) sendBatch(ctx context.Context, endpoint string, calls []BatchCall, idx []int, timeout time.Duration) ([]wire.Envelope, error) {
	c.cBatches.Inc()

	// Build the batch run in a pooled buffer. Sub-envelope IDs are the
	// 1-based positions within this chunk; the outer envelope owns the
	// transport correlation ID and deadline metadata.
	sizeHint := 64
	for _, i := range idx {
		sizeHint += len(calls[i].Args) + len(calls[i].Method) + 32
	}
	runBuf := wire.GetBuf(sizeHint)
	run := wire.AppendBatchHeader(runBuf[:0], len(idx))
	scratch := wire.GetBuf(512)[:0]
	for k, i := range idx {
		sub := wire.Envelope{
			Kind:    wire.KindRequest,
			ID:      uint64(k + 1),
			Target:  targetOf(calls[i].LOID),
			Method:  calls[i].Method,
			Payload: calls[i].Args,
		}
		run, scratch = wire.AppendBatchEntry(run, &sub, scratch)
	}
	req := &wire.Envelope{Kind: wire.KindBatchRequest, Payload: run}

	resp, err := c.dialer.Call(ctx, endpoint, req, timeout)
	// The dialer has fully serialised the request by the time Call returns
	// (success or failure), so the run buffers can recycle now.
	wire.PutBuf(scratch)
	wire.PutBuf(runBuf)
	if err == nil {
		err = answerErr(resp, wire.KindBatchResponse)
	}
	if err != nil {
		return nil, err
	}
	subs, err := wire.DecodeBatchRun(resp.Payload, nil)
	if err == nil && len(subs) != len(idx) {
		err = fmt.Errorf("%w: batch response carried %d results for %d calls",
			ErrBadRequest, len(subs), len(idx))
	}
	if err != nil {
		return nil, malformed(err)
	}
	return subs, nil
}
