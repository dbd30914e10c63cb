package rpc

import (
	"context"
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/wire"
)

// Scatter-gather invocation. InvokeBatch runs N calls through the call loop
// that runs a single call (client.go): each round sends every endpoint's
// live calls in one attempt, so sub-calls to the same endpoint travel
// together in a KindBatchRequest frame (riding the transport's write
// coalescing) and endpoints are contacted concurrently. A sub-call's
// failure settles through the same failure table as a single call's
// (failure.go), and a retried sub-call rides the next round's frame with
// the budgets it has already spent. Non-idempotent sub-calls therefore keep
// at-most-once semantics exactly as a single Invoke does.

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
// distinct endpoints are contacted concurrently. An idempotent sub-call
// routes like InvokeIdempotent: its first attempt may go to a backup. It
// never returns an error itself — per-sub-call failures land in the
// corresponding BatchResult.
//
// For repeated batches, the reusable Batch builder amortises the slice
// allocations this convenience wrapper pays per call.
func (c *Client) InvokeBatch(ctx context.Context, calls []BatchCall) []BatchResult {
	b := Batch{c: c, calls: make([]pending, 0, len(calls))}
	for _, call := range calls {
		b.add(call)
	}
	return b.Invoke(ctx)
}

// Batch accumulates sub-calls for one scatter-gather invocation and reuses
// its internal slices across Invoke/Reset cycles, so a steady-state caller
// pays no per-batch allocations for the bookkeeping. Not safe for concurrent
// use; build one Batch per calling goroutine.
type Batch struct {
	c       *Client
	calls   []pending
	results []BatchResult
}

// NewBatch returns an empty reusable batch bound to this client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Add appends a non-idempotent sub-call (at-most-once semantics, as Invoke).
func (b *Batch) Add(loid naming.LOID, method string, args []byte) {
	b.add(BatchCall{LOID: loid, Method: method, Args: args})
}

// AddIdempotent appends an idempotent sub-call (retried through ambiguous
// failures and routed to backups, as InvokeIdempotent).
func (b *Batch) AddIdempotent(loid naming.LOID, method string, args []byte) {
	b.add(BatchCall{LOID: loid, Method: method, Args: args, Idempotent: true})
}

func (b *Batch) add(call BatchCall) { b.calls = append(b.calls, pending{BatchCall: call}) }

// Len reports the number of accumulated sub-calls.
func (b *Batch) Len() int { return len(b.calls) }

// Reset empties the batch for reuse, keeping capacity.
func (b *Batch) Reset() { b.calls = b.calls[:0] }

// Invoke runs the accumulated sub-calls and returns one result per Add, in
// Add order. The returned slice is owned by the Batch and overwritten by the
// next Invoke; callers needing to retain it across invocations must copy.
func (b *Batch) Invoke(ctx context.Context) []BatchResult {
	b.c.count[statBatched].Add(uint64(len(b.calls)))
	start := time.Now()
	for i := range b.calls {
		b.calls[i] = pending{BatchCall: b.calls[i].BatchCall, backupOK: b.calls[i].Idempotent, start: start}
	}
	b.c.runTraced(ctx, b.calls)
	if cap(b.results) < len(b.calls) {
		b.results = make([]BatchResult, len(b.calls))
	}
	b.results = b.results[:len(b.calls)]
	for i := range b.calls {
		b.results[i] = b.calls[i].BatchResult
		if b.calls[i].sends > 1 {
			b.c.count[statBatchFallbacks].Inc()
		}
	}
	return b.results
}

// sendFrame sends n live calls of calls, from index i on, to endpoint as
// one batch frame and settles each from its own outcome: a sub-response,
// the sub's error envelope, or the frame's failure. It returns the index
// after the last call it sent.
func (c *Client) sendFrame(ctx context.Context, p *RetryPolicy, endpoint string, calls []pending, i, n int, timeout time.Duration, root *obs.Span, tail obs.SpanContext) int {
	c.count[statBatches].Inc()

	// Build the batch run in a pooled buffer. Sub-envelope IDs are the
	// 1-based positions within this frame; the outer envelope owns the
	// transport correlation ID and deadline metadata.
	sizeHint := 64
	for k, m := i, 0; m < n; k++ {
		if pc := &calls[k]; !pc.done {
			sizeHint += len(pc.Args) + len(pc.Method) + 32
			m++
		}
	}
	runBuf := wire.GetBuf(sizeHint)
	run := wire.AppendBatchHeader(runBuf[:0], n)
	scratch := wire.GetBuf(512)[:0]
	next := i
	for id := uint64(1); id <= uint64(n); next++ {
		if pc := &calls[next]; !pc.done {
			sub := wire.Envelope{Kind: wire.KindRequest, ID: id, Target: targetOf(pc.LOID)}
			var wrapper []byte
			sub.Method, sub.Payload, wrapper = pc.request()
			run, scratch = wire.AppendBatchEntry(run, &sub, scratch)
			if wrapper != nil {
				wire.PutBuf(wrapper)
			}
			id++
		}
	}
	req := wire.GetEnvelope()
	req.Kind, req.Payload = wire.KindBatchRequest, run
	// The frame carries the batch's trace; the server stamps it on each
	// sub-call, so every sub-call's dispatch span joins it.
	attSpan := stampTrace(req, endpoint, root, tail)
	answer, err := attempt(ctx, c.dialer, endpoint, req, nil, timeout)
	if attSpan != nil {
		attSpan.Fail(err)
		attSpan.Finish()
	}
	// The frame holds copies of the arguments and wrappers, and the dialer
	// is done with it once Call returns.
	wire.PutBuf(scratch)
	wire.PutBuf(runBuf)
	var subs []wire.Envelope
	if err == nil {
		if subs, err = wire.DecodeBatchRunPooled(answer); err == nil {
			// Released once every sub-call has settled. Sub-results alias
			// answer, which is the caller's, not the run.
			defer wire.PutBatchRun(subs)
			if len(subs) != n {
				err = fmt.Errorf("%w: batch response carried %d results for %d calls", ErrBadRequest, len(subs), n)
			}
		}
		if err != nil {
			err = malformed(err)
		}
	}
	for k, j := i, 0; k < next; k++ {
		switch pc := &calls[k]; {
		case pc.done:
		case err != nil:
			c.settle(pc, p, root, nil, err)
		default:
			c.settle(pc, p, root, subs[j].Payload, answerErr(&subs[j], wire.KindResponse))
			j++
		}
	}
	return next
}
