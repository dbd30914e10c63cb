package transport

import (
	"context"

	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"godcdo/internal/wire"
)

func echoHandler() Handler {
	return HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		return &wire.Envelope{
			Kind:    wire.KindResponse,
			Target:  req.Target,
			Method:  req.Method,
			Payload: req.Payload,
		}
	})
}

func TestParseEndpoint(t *testing.T) {
	cases := []struct {
		in      string
		scheme  Scheme
		rest    string
		wantErr bool
	}{
		{"tcp:127.0.0.1:80", SchemeTCP, "127.0.0.1:80", false},
		{"inproc:node-1", SchemeInproc, "node-1", false},
		{"udp:127.0.0.1:80", "", "", true},
		{"tcp:", "", "", true},
		{"garbage", "", "", true},
		{"", "", "", true},
	}
	for _, c := range cases {
		scheme, rest, err := ParseEndpoint(c.in)
		if c.wantErr {
			if !errors.Is(err, ErrBadEndpoint) {
				t.Errorf("ParseEndpoint(%q) err = %v, want ErrBadEndpoint", c.in, err)
			}
			continue
		}
		if err != nil || scheme != c.scheme || rest != c.rest {
			t.Errorf("ParseEndpoint(%q) = (%q,%q,%v)", c.in, scheme, rest, err)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := NewTCPDialer()
	defer d.Close()

	req := &wire.Envelope{Kind: wire.KindRequest, Target: "loid:1.1.1", Method: "ping", Payload: []byte("abc")}
	resp, err := d.Call(context.Background(), srv.Endpoint(), req, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindResponse || string(resp.Payload) != "abc" || resp.Method != "ping" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.ID != req.ID {
		t.Fatalf("response ID %d != request ID %d", resp.ID, req.ID)
	}
}

func TestTCPConcurrentCallsShareConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := NewTCPDialer()
	defer d.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Payload: payload}, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload) != string(payload) {
				errs <- fmt.Errorf("payload mismatch: got %q want %q", resp.Payload, payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	d.mu.Lock()
	nconns := len(d.conns)
	d.mu.Unlock()
	if nconns != 1 {
		t.Fatalf("dialer holds %d connections, want 1 (pooled)", nconns)
	}
}

// TestTCPSlowHandlerDoesNotBlockPipelinedCalls holds eight slow calls in the
// handler on one connection, after a warm-up that leaves a handler goroutine
// parked for reuse, and requires a fast call on the same connection to get
// through. A server that dispatched on its read loop would stall the second
// slow call, and this test fails rather than hangs when it does.
func TestTCPSlowHandlerDoesNotBlockPipelinedCalls(t *testing.T) {
	const slow = 8
	block := make(chan struct{})
	entered := make(chan struct{}, slow)
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Method == "slow" {
			entered <- struct{}{}
			<-block
		}
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	// Cleanups run last-registered first, so a failing test releases the
	// slow handlers before srv.Close waits for them.
	var release sync.Once
	unblock := func() { release.Do(func() { close(block) }) }
	t.Cleanup(unblock)
	d := NewTCPDialer()
	t.Cleanup(func() { _ = d.Close() })

	call := func(method string, timeout time.Duration) error {
		_, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Method: method}, timeout)
		return err
	}
	for i := 0; i < 10; i++ {
		if err := call("fast", 2*time.Second); err != nil {
			t.Fatalf("warm-up call: %v", err)
		}
	}
	slowDone := make(chan error, slow)
	for i := 0; i < slow; i++ {
		go func() { slowDone <- call("slow", 10*time.Second) }()
	}
	deadline := time.After(2 * time.Second)
	for i := 0; i < slow; i++ {
		select {
		case <-entered:
		case <-deadline:
			t.Fatalf("only %d of %d slow calls reached the handler: requests wait behind a blocked handler", i, slow)
		}
	}
	if err := call("fast", 2*time.Second); err != nil {
		t.Fatalf("fast call blocked behind slow calls: %v", err)
	}
	unblock()
	for i := 0; i < slow; i++ {
		if err := <-slowDone; err != nil {
			t.Fatalf("slow call failed: %v", err)
		}
	}
}

func TestTCPCallTimeout(t *testing.T) {
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		time.Sleep(time.Second)
		return &wire.Envelope{Kind: wire.KindResponse}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()

	_, err = d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest}, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestTCPServerCloseFailsInflightCalls(t *testing.T) {
	started := make(chan struct{}, 1)
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		started <- struct{}{}
		time.Sleep(100 * time.Millisecond)
		return &wire.Envelope{Kind: wire.KindResponse}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	d := NewTCPDialer()
	defer d.Close()

	done := make(chan error, 1)
	go func() {
		_, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest}, 5*time.Second)
		done <- err
	}()
	<-started
	_ = srv.Close()
	if err := <-done; err == nil {
		t.Fatal("in-flight call succeeded despite server close")
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	d := NewTCPDialer()
	d.DialTimeout = 200 * time.Millisecond
	defer d.Close()
	_, err := d.Call(context.Background(), "tcp:127.0.0.1:1", &wire.Envelope{Kind: wire.KindRequest}, time.Second)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPDialerRejectsWrongScheme(t *testing.T) {
	d := NewTCPDialer()
	defer d.Close()
	if _, err := d.Call(context.Background(), "inproc:x", &wire.Envelope{}, time.Second); !errors.Is(err, ErrBadEndpoint) {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}

func TestTCPDialerClosed(t *testing.T) {
	d := NewTCPDialer()
	_ = d.Close()
	if _, err := d.Call(context.Background(), "tcp:127.0.0.1:1", &wire.Envelope{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPNilHandlerResponse(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(func(context.Context, *wire.Envelope) *wire.Envelope { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	resp, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindError || resp.Code != wire.CodeInternal {
		t.Fatalf("resp = %+v, want internal error", resp)
	}
}

func TestTCPServerDropsDesynchronisedStream(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, addr, err := ParseEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Garbage that is not a valid frame: the server must drop the
	// connection rather than misparse the stream.
	if _, err := conn.Write([]byte("this is not a frame at all........")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a garbage stream")
	}

	// The listener survives and keeps serving clean clients.
	d := NewTCPDialer()
	defer d.Close()
	if _, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest}, 2*time.Second); err != nil {
		t.Fatalf("server wedged after garbage stream: %v", err)
	}
}

func TestTCPServerDropsCorruptEnvelope(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, addr, err := ParseEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A well-formed frame whose payload is not a decodable envelope.
	if err := wire.WriteFrame(conn, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a corrupt envelope")
	}
}

func TestInprocRoundTrip(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := n.Listen("node-1", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	d := n.Dialer()
	resp, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Payload: []byte("x")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "x" {
		t.Fatalf("payload = %q", resp.Payload)
	}
}

func TestInprocDuplicateNameRejected(t *testing.T) {
	n := NewInprocNetwork()
	if _, err := n.Listen("dup", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("dup", echoHandler()); !errors.Is(err, ErrBadEndpoint) {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}

func TestInprocCloseUnregisters(t *testing.T) {
	n := NewInprocNetwork()
	srv, _ := n.Listen("gone", echoHandler())
	_ = srv.Close()
	d := n.Dialer()
	if _, err := d.Call(context.Background(), "inproc:gone", &wire.Envelope{}, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	// Name is reusable after Close.
	if _, err := n.Listen("gone", echoHandler()); err != nil {
		t.Fatalf("relisten after close: %v", err)
	}
}

func TestInprocDialerClosed(t *testing.T) {
	n := NewInprocNetwork()
	d := n.Dialer()
	_ = d.Close()
	if _, err := d.Call(context.Background(), "inproc:x", &wire.Envelope{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPDialerRejectsNonPositiveTimeout(t *testing.T) {
	d := NewTCPDialer()
	defer d.Close()
	for _, timeout := range []time.Duration{0, -time.Second} {
		_, err := d.Call(context.Background(), "tcp:127.0.0.1:1", &wire.Envelope{Kind: wire.KindRequest}, timeout)
		if !errors.Is(err, ErrInvalidTimeout) {
			t.Fatalf("timeout %v: err = %v, want ErrInvalidTimeout", timeout, err)
		}
		if Classify(err) != RetryNever {
			t.Fatalf("timeout %v classified %v, want never", timeout, Classify(err))
		}
	}
}

func TestInprocDialerRejectsNonPositiveTimeout(t *testing.T) {
	n := NewInprocNetwork()
	if _, err := n.Listen("tz", echoHandler()); err != nil {
		t.Fatal(err)
	}
	d := n.Dialer()
	_, err := d.Call(context.Background(), "inproc:tz", &wire.Envelope{Kind: wire.KindRequest}, 0)
	if !errors.Is(err, ErrInvalidTimeout) {
		t.Fatalf("err = %v, want ErrInvalidTimeout", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want RetryClass
	}{
		{ErrBadEndpoint, RetryNever},
		{ErrClosed, RetryNever},
		{ErrInvalidTimeout, RetryNever},
		{ErrUnreachable, RetrySafe},
		{ErrTimeout, RetryAmbiguous},
		{errors.New("mystery"), RetryAmbiguous},
		{safeErr(fmt.Errorf("%w: wrapped", ErrTimeout)), RetrySafe},               // explicit class wins
		{ambiguousErr(fmt.Errorf("%w: wrapped", ErrUnreachable)), RetryAmbiguous}, // explicit class wins
		{fmt.Errorf("outer: %w", safeErr(ErrReset)), RetrySafe},                   // class survives wrapping
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestTCPDialerEvictsWedgedConnection(t *testing.T) {
	// A handler that never answers "wedge" simulates a connection whose
	// peer has stopped responding without closing the socket.
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Method == "wedge" {
			return Dropped
		}
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := NewTCPDialer()
	d.TimeoutEvictAfter = 2
	defer d.Close()

	for i := 0; i < 2; i++ {
		if _, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Method: "wedge"}, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("wedge call %d: err = %v, want ErrTimeout", i, err)
		}
	}
	st := d.Stats()
	if st.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", st.Timeouts)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (threshold reached)", st.Evictions)
	}
	d.mu.Lock()
	nconns := len(d.conns)
	d.mu.Unlock()
	if nconns != 0 {
		t.Fatalf("dialer still pools %d connections after eviction", nconns)
	}

	// The next call redials a fresh connection and succeeds.
	if _, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Method: "ok"}, time.Second); err != nil {
		t.Fatalf("call after eviction: %v", err)
	}
	if st := d.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (redial after eviction)", st.Dials)
	}
}

func TestTCPDialerCountsOrphanedResponses(t *testing.T) {
	release := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Method == "late" {
			<-release
		}
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := NewTCPDialer()
	defer d.Close()

	_, err = d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Method: "late"}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Let the server finish; its response now has no waiting caller.
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().OrphanedResponses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("orphaned responses never counted; stats = %+v", d.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A successful call resets the consecutive-timeout streak: no eviction.
	if _, err := d.Call(context.Background(), srv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest, Method: "ok"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
}

func TestMultiDialerRouting(t *testing.T) {
	n := NewInprocNetwork()
	if _, err := n.Listen("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	tcpSrv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()

	md := NewMultiDialer(map[Scheme]Dialer{
		SchemeInproc: n.Dialer(),
		SchemeTCP:    NewTCPDialer(),
	})
	defer md.Close()

	if _, err := md.Call(context.Background(), "inproc:a", &wire.Envelope{Kind: wire.KindRequest}, time.Second); err != nil {
		t.Fatalf("inproc via multi: %v", err)
	}
	if _, err := md.Call(context.Background(), tcpSrv.Endpoint(), &wire.Envelope{Kind: wire.KindRequest}, time.Second); err != nil {
		t.Fatalf("tcp via multi: %v", err)
	}
	if _, err := md.Call(context.Background(), "bogus", &wire.Envelope{}, time.Second); !errors.Is(err, ErrBadEndpoint) {
		t.Fatalf("err = %v, want ErrBadEndpoint", err)
	}
}
