package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/wire"
)

// TestTCPPooledFrameConcurrentReuse hammers the pooled read/encode path with
// concurrent callers and payloads spanning multiple pool size classes. Run
// under -race this catches a frame released while its bytes are still
// aliased; the content checks catch reuse corruption that -race cannot see.
func TestTCPPooledFrameConcurrentReuse(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	sizes := []int{0, 7, 300, 600, 5000, 70000}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				size := sizes[(g+i)%len(sizes)]
				payload := bytes.Repeat([]byte{byte(g*31 + i)}, size)
				resp, err := d.Call(context.Background(), srv.Endpoint(),
					&wire.Envelope{Kind: wire.KindRequest, Payload: payload}, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- fmt.Errorf("goroutine %d call %d: payload corrupted (%d bytes vs %d)",
						g, i, len(resp.Payload), len(payload))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPStripedDialerOpensStripes verifies concurrent calls spread over the
// configured stripe count — no more, no fewer once warm.
func TestTCPStripedDialerOpensStripes(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 4
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("x")}, 5*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := d.Stats()
	if st.OpenConns != 4 {
		t.Fatalf("OpenConns = %d, want 4 (one per stripe)", st.OpenConns)
	}
	if st.Dials < 4 {
		// Concurrent callers may race extra dials whose losers are discarded;
		// at least one dial per stripe must have happened.
		t.Fatalf("Dials = %d, want >= 4", st.Dials)
	}
	d.mu.Lock()
	nEndpoints := len(d.conns)
	d.mu.Unlock()
	if nEndpoints != 1 {
		t.Fatalf("endpoint entries = %d, want 1 (stripes share one entry)", nEndpoints)
	}
}

// TestTCPStripeFailover kills one stripe's connection and verifies the
// endpoint keeps serving: surviving stripes carry calls and the dead stripe
// is redialed lazily, with no error surfacing to later callers.
func TestTCPStripeFailover(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	// Warm both stripes.
	for i := 0; i < 2; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("warm")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.OpenConns != 2 {
		t.Fatalf("OpenConns = %d, want 2 after warmup", st.OpenConns)
	}

	// Kill one stripe out from under the dialer.
	d.mu.Lock()
	var victim *tcpClientConn
	for _, ep := range d.conns {
		for _, cc := range ep.stripes {
			if cc != nil {
				victim = cc
				break
			}
		}
	}
	d.mu.Unlock()
	if victim == nil {
		t.Fatal("no live stripe to kill")
	}
	_ = victim.conn.Close()

	// Wait for the read loop to notice and drop the stripe.
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().OpenConns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead stripe never dropped: OpenConns = %d", d.Stats().OpenConns)
		}
		time.Sleep(time.Millisecond)
	}

	// Every later call succeeds: the survivor carries its share and the dead
	// stripe redials on first use.
	for i := 0; i < 8; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("after")}, 5*time.Second); err != nil {
			t.Fatalf("call %d after stripe death: %v", i, err)
		}
	}
	if st := d.Stats(); st.OpenConns != 2 || st.Dials != 3 {
		t.Fatalf("OpenConns = %d Dials = %d, want 2 and 3 (one redial)", st.OpenConns, st.Dials)
	}
}

// TestTCPCoalescingCountsBatches verifies the batch counters on both sides:
// every frame is accounted and flushes never exceed frames.
func TestTCPCoalescingCountsBatches(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()

	const calls = 64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("b")}, 5*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	ds := d.Stats()
	if ds.BatchedFrames != calls {
		t.Fatalf("dialer BatchedFrames = %d, want %d", ds.BatchedFrames, calls)
	}
	if ds.BatchFlushes == 0 || ds.BatchFlushes > ds.BatchedFrames {
		t.Fatalf("dialer BatchFlushes = %d out of range (frames %d)", ds.BatchFlushes, ds.BatchedFrames)
	}
	// The server's combiner counts a batch after its flush returns, so a
	// response can reach the caller before it is counted. Close waits for
	// every handler and writer, after which the counters are final.
	_ = srv.Close()
	ss := srv.Stats()
	if ss.BatchedFrames != calls {
		t.Fatalf("server BatchedFrames = %d, want %d", ss.BatchedFrames, calls)
	}
	if ss.BatchFlushes == 0 || ss.BatchFlushes > ss.BatchedFrames {
		t.Fatalf("server BatchFlushes = %d out of range (frames %d)", ss.BatchFlushes, ss.BatchedFrames)
	}
}

// TestTCPFirstCallsSeeFullyBuiltConn races many first calls against the dial
// that creates each stripe: a caller that picks up a freshly published
// connection must find its writer already in place, so every frame goes
// through the coalescer. Under -race this also catches any field of the
// connection assigned after it became visible to other callers.
func TestTCPFirstCallsSeeFullyBuiltConn(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler())
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			d := NewTCPDialer()
			d.Stripes = stripes
			defer d.Close()

			const calls = 64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if _, err := d.Call(context.Background(), srv.Endpoint(),
						&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("f")}, 5*time.Second); err != nil {
						t.Error(err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got := d.Stats().BatchedFrames; got != calls {
				t.Fatalf("dialer BatchedFrames = %d, want %d (a call bypassed the coalescer)", got, calls)
			}
		})
	}
}

// recyclingHandler answers by method: "self" returns the request itself
// turned into a response, "echo" a pooled response aliasing the request
// payload, "drop" the Dropped sentinel, and "block" its own request once the
// server shuts down. It records every request envelope it saw, to be read
// back only once the server has closed — to check that each was released.
type recyclingHandler struct {
	mu      sync.Mutex
	seen    []*wire.Envelope
	ids     map[uint64]bool
	dupIDs  int
	entered chan struct{}
}

func (h *recyclingHandler) Handle(ctx context.Context, req *wire.Envelope) *wire.Envelope {
	h.mu.Lock()
	h.seen = append(h.seen, req)
	if h.ids[req.ID] {
		h.dupIDs++
	}
	h.ids[req.ID] = true
	h.mu.Unlock()
	switch req.Method {
	case "self":
		req.Kind = wire.KindResponse
		return req
	case "drop":
		return Dropped
	case "block":
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-ctx.Done()
		req.Kind = wire.KindResponse
		return req
	default:
		resp := wire.GetEnvelope()
		resp.Kind, resp.Payload = wire.KindResponse, req.Payload
		return resp
	}
}

// released reports how many recorded request envelopes read as released,
// out of how many were recorded. Call only after the server has closed, so
// every handler and release happened before.
func (h *recyclingHandler) released() (released, total int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ev := range h.seen {
		if ev.Kind == wire.Kind(wire.PoisonByte) {
			released++
		}
	}
	return released, len(h.seen)
}

// TestTCPServerRecyclesEachRequestOnce drives the server's pooled request
// envelopes through every way a call can end — a handler returning its own
// request, a pooled response aliasing it, a dropped response, and a shutdown
// with calls parked in a handler and at the worker bound — with poison
// checks on. Poison mode quarantines each released envelope and panics on a
// second release, so every call must see its own ID and payload, and every
// request envelope must read as released exactly once when the server is
// done. Run under -race by `make race`.
func TestTCPServerRecyclesEachRequestOnce(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	t.Run("calls", func(t *testing.T) {
		h := &recyclingHandler{ids: make(map[uint64]bool)}
		srv, err := ListenTCP("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		d := NewTCPDialer()
		d.Stripes = 2
		d.TimeoutEvictAfter = 1 << 30 // dropped calls time out; keep the conns
		defer d.Close()

		const callers, calls = 8, 40
		methods := []string{"self", "echo", "self", "echo", "drop"}
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					method := methods[(g+i)%len(methods)]
					payload := []byte(fmt.Sprintf("caller %d call %d", g, i))
					req := &wire.Envelope{Kind: wire.KindRequest, Method: method, Payload: payload}
					timeout := 5 * time.Second
					if method == "drop" {
						timeout = 20 * time.Millisecond
					}
					resp, err := d.Call(context.Background(), srv.Endpoint(), req, timeout)
					if method == "drop" {
						if !errors.Is(err, ErrTimeout) {
							t.Errorf("dropped call: err = %v, want ErrTimeout", err)
						}
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if resp.ID != req.ID || !bytes.Equal(resp.Payload, payload) {
						t.Errorf("%s call got ID %d payload %q, want ID %d payload %q",
							method, resp.ID, resp.Payload, req.ID, payload)
					}
				}
			}(g)
		}
		wg.Wait()
		_ = srv.Close()
		released, total := h.released()
		if total != callers*calls || released != total {
			t.Fatalf("%d of %d request envelopes released, want all %d", released, total, callers*calls)
		}
		if h.dupIDs != 0 {
			t.Fatalf("%d requests reached the handler with an ID already seen", h.dupIDs)
		}
	})

	t.Run("shutdown", func(t *testing.T) {
		h := &recyclingHandler{ids: make(map[uint64]bool), entered: make(chan struct{}, 1)}
		// One worker: the first call parks in the handler, the second parks
		// the read loop at the worker bound with its envelope decoded.
		srv, err := ListenTCPOptions("127.0.0.1:0", h, TCPServerOptions{MaxWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := NewTCPDialer()
		defer d.Close()
		const calls = 4
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("blocked %d", i))
				resp, err := d.Call(context.Background(), srv.Endpoint(),
					&wire.Envelope{Kind: wire.KindRequest, Method: "block", Payload: payload}, 5*time.Second)
				// A response racing the close may still arrive; it must be
				// this call's own.
				if err == nil && !bytes.Equal(resp.Payload, payload) {
					t.Errorf("call %d got payload %q", i, resp.Payload)
				}
			}(i)
		}
		<-h.entered
		time.Sleep(20 * time.Millisecond) // let the read loop reach the worker bound
		_ = srv.Close()
		wg.Wait()
		// The handler sees the first call and, if the freed worker slot wins
		// the read loop's race against shutdown, the next; the envelope the
		// read loop drops at the bound is released without a handler.
		if released, total := h.released(); released != total || total == 0 {
			t.Fatalf("%d of %d handled request envelopes released, want all", released, total)
		}
	})
}

// TestTCPServerWorkerPoolBounds verifies MaxWorkers caps handler concurrency
// while every pipelined call still completes.
func TestTCPServerWorkerPoolBounds(t *testing.T) {
	var cur, peak atomic.Int64
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCPOptions("127.0.0.1:0", handler, TCPServerOptions{MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 4 // several read loops competing for the shared worker pool
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Call(context.Background(), srv.Endpoint(),
				&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("w")}, 10*time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("handler concurrency peaked at %d, want <= 2 (MaxWorkers)", p)
	}
}

// TestTCPNilHandlerResponseFastPath pins the nil-response error envelope
// through the coalescing writer: the client must get a real CodeInternal
// error, not a hang or connection drop.
func TestTCPNilHandlerResponseFastPath(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()

	resp, err := d.Call(context.Background(), srv.Endpoint(),
		&wire.Envelope{Kind: wire.KindRequest, Method: "m"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError || resp.Code != wire.CodeInternal {
		t.Fatalf("resp = %+v, want KindError/CodeInternal", resp)
	}
}

// gatedSink is an io.Writer whose Write blocks until released, then either
// succeeds or fails — the scaffolding for deterministic batch tests.
type gatedSink struct {
	entered chan struct{} // signalled when a Write starts blocking
	release chan error    // what the blocked Write returns
	wrote   [][]byte
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}, 8), release: make(chan error, 8)}
}

func (g *gatedSink) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	if err := <-g.release; err != nil {
		return 0, err
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	g.wrote = append(g.wrote, cp)
	return len(p), nil
}

// TestFrameWriterCoalescesWhileBlocked pins the batching mechanism: frames
// that arrive while a flush is in flight go out together in the next flush.
func TestFrameWriterCoalescesWhileBlocked(t *testing.T) {
	sink := newGatedSink()
	var flushes, frames atomic.Uint64
	w := newFrameWriter(bufio.NewWriter(sink), 16, &flushes, &frames, nil, nil)

	enc := func(s string) []byte { b := wire.GetBuf(len(s)); copy(b, s); return b }
	// The first enqueuer becomes the combiner and blocks inside the gated
	// flush, so it runs on its own goroutine.
	first := make(chan error, 1)
	go func() { first <- w.Enqueue(outFrame{buf: enc("first")}) }()
	<-sink.entered // flush of batch 1 is now blocked in the sink
	// These lose the combine lock to the blocked flusher and return at once;
	// its post-flush recheck picks both up as one batch.
	if err := w.Enqueue(outFrame{buf: enc("second")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Enqueue(outFrame{buf: enc("third")}); err != nil {
		t.Fatal(err)
	}
	sink.release <- nil // batch 1 completes
	<-sink.entered      // batch 2 (second+third together) reaches the sink
	sink.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	w.Stop()

	if got := flushes.Load(); got != 2 {
		t.Fatalf("flushes = %d, want 2", got)
	}
	if got := frames.Load(); got != 3 {
		t.Fatalf("frames = %d, want 3", got)
	}
	if len(sink.wrote) != 2 {
		t.Fatalf("sink saw %d writes, want 2", len(sink.wrote))
	}
	if !bytes.Contains(sink.wrote[1], []byte("second")) || !bytes.Contains(sink.wrote[1], []byte("third")) {
		t.Fatalf("second flush missing coalesced frames: %q", sink.wrote[1])
	}
}

// TestFrameWriterFailsQueuedFramesSafe pins the failure-attribution split:
// frames queued behind a write error are reported never-written (the callers
// can retry safely), while the frame being written is left to the ambiguous
// connection-death path.
func TestFrameWriterFailsQueuedFramesSafe(t *testing.T) {
	sink := newGatedSink()
	var flushes, frames atomic.Uint64
	var mu sync.Mutex
	var failed []uint64
	var diedErr error
	w := newFrameWriter(bufio.NewWriter(sink), 16, &flushes, &frames,
		func(err error) {
			mu.Lock()
			diedErr = err
			mu.Unlock()
		},
		func(id uint64, err error) {
			mu.Lock()
			failed = append(failed, id)
			mu.Unlock()
		})

	enc := func(s string) []byte { b := wire.GetBuf(len(s)); copy(b, s); return b }
	first := make(chan error, 1)
	go func() { first <- w.Enqueue(outFrame{buf: enc("doomed"), id: 1}) }()
	<-sink.entered // frame 1's flush is in flight, its enqueuer combining
	if err := w.Enqueue(outFrame{buf: enc("queued-a"), id: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Enqueue(outFrame{buf: enc("queued-b"), id: 3}); err != nil {
		t.Fatal(err)
	}
	sink.release <- errors.New("wire cut") // frame 1's flush fails
	if err := <-first; err != nil {
		// Frame 1 entered the queue before the death, so its Enqueue reports
		// success; the failure reaches its caller through the ambiguous
		// connection-death path instead.
		t.Fatalf("doomed enqueue = %v, want nil (failure is attributed via conn death)", err)
	}
	w.Stop()

	mu.Lock()
	defer mu.Unlock()
	if diedErr == nil {
		t.Fatal("onDead never fired")
	}
	if len(failed) != 2 || failed[0] != 2 || failed[1] != 3 {
		t.Fatalf("never-written ids = %v, want [2 3] (frame 1 is ambiguous, not safe)", failed)
	}
	if err := w.Enqueue(outFrame{buf: enc("late"), id: 4}); !errors.Is(err, errWriterClosed) {
		t.Fatalf("enqueue after death = %v, want errWriterClosed", err)
	}
}

// TestTCPStripePickSkipsDeadConn pins the stripe-selection fix: a stripe
// whose connection is marked dead (the window between a writer error and its
// removal from the slot) must be skipped while a live alternative exists,
// instead of being handed out to fail the call.
func TestTCPStripePickSkipsDeadConn(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	d.Stripes = 2
	defer d.Close()

	// Warm both stripes (the rr cursor dials a fresh slot per call).
	for i := 0; i < 2; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(),
			&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("warm")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, addr, err := ParseEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	ep := d.conns[srv.Endpoint()]
	d.mu.Unlock()
	if ep == nil || len(ep.stripes) != 2 || ep.stripes[0] == nil || ep.stripes[1] == nil {
		t.Fatalf("expected 2 warm stripes, got %+v", ep)
	}
	dead, live := ep.stripes[0], ep.stripes[1]
	dead.deadFlag.Store(true)

	// Every pick — wherever the rr cursor lands — must return the live conn.
	for i := 0; i < 8; i++ {
		cc, err := d.getConn(srv.Endpoint(), addr)
		if err != nil {
			t.Fatalf("getConn: %v", err)
		}
		if cc == dead {
			t.Fatalf("pick %d returned the dead stripe", i)
		}
		if cc != live {
			t.Fatalf("pick %d returned an unexpected conn", i)
		}
	}
	// And real calls keep flowing through the survivor.
	if _, err := d.Call(context.Background(), srv.Endpoint(),
		&wire.Envelope{Kind: wire.KindRequest, Payload: []byte("after")}, 5*time.Second); err != nil {
		t.Fatalf("call after dead-stripe skip: %v", err)
	}
}
