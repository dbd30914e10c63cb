package rpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

func TestInvokeBatchRoundTrip(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())

	calls := make([]BatchCall, 16)
	for i := range calls {
		calls[i] = BatchCall{LOID: loid, Method: "m", Args: []byte{byte(i)}}
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	if len(results) != 16 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
		if want := fmt.Sprintf("m:%c", byte(i)); string(r.Payload) != want {
			t.Fatalf("sub %d payload = %q, want %q", i, r.Payload, want)
		}
	}
	st := env.client.Stats()
	if st.Batches != 1 || st.CallsBatched != 16 || st.BatchFallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 batch / 16 batched / 0 fallbacks", st)
	}
	if st.Calls != 0 {
		t.Fatalf("Calls = %d, want 0 (batched sub-calls are not single calls)", st.Calls)
	}
}

func TestInvokeBatchMixedEndpointsScattersConcurrently(t *testing.T) {
	// Two objects on two nodes, interleaved in one batch: the batch must
	// scatter one frame per endpoint and gather all results positionally.
	env := newTestEnv(t, "n1")
	disp2 := NewDispatcher()
	srv2, err := env.net.Listen("n2", disp2)
	if err != nil {
		t.Fatal(err)
	}
	l1 := naming.LOID{Instance: 1}
	l2 := naming.LOID{Instance: 2}
	env.host(l1, echoObject())
	disp2.Host(l2, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return append([]byte("n2:"), args...), nil
	}))
	env.agent.Register(l2, naming.Address{Endpoint: srv2.Endpoint()})

	calls := make([]BatchCall, 8)
	for i := range calls {
		if i%2 == 0 {
			calls[i] = BatchCall{LOID: l1, Method: "e", Args: []byte{byte(i)}}
		} else {
			calls[i] = BatchCall{LOID: l2, Method: "x", Args: []byte{byte(i)}}
		}
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
		want := fmt.Sprintf("e:%c", byte(i))
		if i%2 == 1 {
			want = fmt.Sprintf("n2:%c", byte(i))
		}
		if string(r.Payload) != want {
			t.Fatalf("sub %d payload = %q, want %q", i, r.Payload, want)
		}
	}
	if st := env.client.Stats(); st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (one frame per endpoint)", st.Batches)
	}
}

func TestBatchBuilderReusesAcrossInvokes(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())

	b := env.client.NewBatch()
	for round := 0; round < 3; round++ {
		b.Reset()
		for i := 0; i < 4; i++ {
			b.AddIdempotent(loid, "m", []byte{byte(round), byte(i)})
		}
		if b.Len() != 4 {
			t.Fatalf("Len = %d", b.Len())
		}
		results := b.Invoke(context.Background())
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("round %d sub %d: %v", round, i, r.Err)
			}
			if len(r.Payload) != 4 || r.Payload[3] != byte(i) {
				t.Fatalf("round %d sub %d payload = %q", round, i, r.Payload)
			}
		}
	}
	if st := env.client.Stats(); st.Batches != 3 || st.CallsBatched != 12 {
		t.Fatalf("stats = %+v, want 3 batches / 12 batched", st)
	}
}

func TestInvokeBatchChunksAtWireLimit(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())

	n := wire.MaxBatchCalls + 6
	calls := make([]BatchCall, n)
	for i := range calls {
		calls[i] = BatchCall{LOID: loid, Method: "m", Args: []byte{byte(i)}}
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
	}
	if st := env.client.Stats(); st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (chunked at %d)", st.Batches, wire.MaxBatchCalls)
	}
}

func TestInvokeBatchPerSubErrorClassification(t *testing.T) {
	// One batch mixing a success, a terminal application error, and a
	// shed-like retryable: each sub-call settles independently.
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		switch method {
		case "ok":
			return []byte("fine"), nil
		case "gone":
			return nil, ErrNoSuchFunction
		default:
			return nil, ErrFunctionDisabled
		}
	}))

	calls := []BatchCall{
		{LOID: loid, Method: "ok"},
		{LOID: loid, Method: "gone"},
		{LOID: loid, Method: "off"},
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	if results[0].Err != nil || string(results[0].Payload) != "fine" {
		t.Fatalf("sub 0 = %+v", results[0])
	}
	if !errors.Is(results[1].Err, ErrNoSuchFunction) {
		t.Fatalf("sub 1 err = %v, want ErrNoSuchFunction", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrFunctionDisabled) {
		t.Fatalf("sub 2 err = %v, want ErrFunctionDisabled", results[2].Err)
	}
	if st := env.client.Stats(); st.BatchFallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 (application errors are terminal)", st.BatchFallbacks)
	}
}

func TestInvokeBatchStaleBindingRebindsPerSub(t *testing.T) {
	// The batch lands on a node that no longer hosts one of the LOIDs: that
	// sub-call alone rebinds and retries through the single-call machine.
	env := newTestEnv(t, "n1")
	disp2 := NewDispatcher()
	srv2, err := env.net.Listen("n2", disp2)
	if err != nil {
		t.Fatal(err)
	}
	l1 := naming.LOID{Instance: 1}
	l2 := naming.LOID{Instance: 2}
	env.host(l1, echoObject())
	env.host(l2, echoObject()) // cached binding will say n1...

	// Warm the cache for both, then migrate l2 to n2 behind the cache's back.
	if _, err := env.cache.Resolve(l2); err != nil {
		t.Fatal(err)
	}
	env.disp.Evict(l2)
	disp2.Host(l2, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return []byte("migrated"), nil
	}))
	env.agent.Register(l2, naming.Address{Endpoint: srv2.Endpoint()})

	calls := []BatchCall{
		{LOID: l1, Method: "m", Args: []byte("x")},
		{LOID: l2, Method: "m", Args: []byte("y")},
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	if results[0].Err != nil || string(results[0].Payload) != "m:x" {
		t.Fatalf("sub 0 = %+v", results[0])
	}
	if results[1].Err != nil || string(results[1].Payload) != "migrated" {
		t.Fatalf("sub 1 = %+v (stale sub-call did not rebind)", results[1])
	}
	st := env.client.Stats()
	if st.Rebinds == 0 || st.BatchFallbacks != 1 {
		t.Fatalf("stats = %+v, want ≥1 rebind and exactly 1 fallback", st)
	}
}

func TestInvokeBatchAmbiguousFrameAbortsNonIdempotent(t *testing.T) {
	// The whole batch response is lost: idempotent sub-calls re-run through
	// the retry machine and succeed; non-idempotent ones must surface
	// ErrAmbiguousResult — the frame may have executed them.
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())

	faults := transport.NewFaults(7)
	faults.SetEndpoint(env.server.Endpoint(), transport.FaultConfig{DropResponse: 1, Budget: 1})
	env.client.dialer = transport.NewFaultDialer(env.net.Dialer(), faults)
	env.client.Retry.CallTimeout = 20 * time.Millisecond

	calls := []BatchCall{
		{LOID: loid, Method: "w", Args: []byte("1")}, // non-idempotent
		{LOID: loid, Method: "r", Args: []byte("2"), Idempotent: true},
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	if !errors.Is(results[0].Err, ErrAmbiguousResult) {
		t.Fatalf("non-idempotent sub err = %v, want ErrAmbiguousResult", results[0].Err)
	}
	if results[1].Err != nil || string(results[1].Payload) != "r:2" {
		t.Fatalf("idempotent sub = %+v, want retried success", results[1])
	}
	st := env.client.Stats()
	if st.AmbiguousFailures == 0 || st.AmbiguousAborts != 1 || st.BatchFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokeBatchResolveFailureIsPerSub(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())

	calls := []BatchCall{
		{LOID: loid, Method: "m", Args: []byte("x")},
		{LOID: naming.LOID{Instance: 404}, Method: "m"},
	}
	results := env.client.InvokeBatch(context.Background(), calls)
	if results[0].Err != nil {
		t.Fatalf("sub 0: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, naming.ErrNotBound) {
		t.Fatalf("sub 1 err = %v, want ErrNotBound", results[1].Err)
	}
}

func TestInvokeBatchEmpty(t *testing.T) {
	env := newTestEnv(t, "n1")
	if results := env.client.InvokeBatch(context.Background(), nil); len(results) != 0 {
		t.Fatalf("results = %v", results)
	}
}
