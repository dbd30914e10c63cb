package transport

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"godcdo/internal/wire"
)

// TestCallLeavesRequestToCaller holds every dialer to the rule that lets
// callers pool their request envelopes: once Call returns, with a response
// or a timeout, the dialer holds neither req nor its payload. Each case
// overwrites the payload and releases req through ReleaseRequest as soon as
// Call returns. The handler must still have seen the original bytes: in the
// "late" case it reads the request only after that. A caller answered with
// its own request (the handler returns req) must still hold it intact. Poison
// checks are on, so a wrong release shows as poison. Run under -race by
// `make race`.
func TestCallLeavesRequestToCaller(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	saw := make(chan []byte, 1)
	gate := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, req *wire.Envelope) *wire.Envelope {
		if req.Method == "late" {
			<-gate // the caller has timed out and released by now
		}
		saw <- bytes.Clone(req.Payload)
		req.Kind = wire.KindResponse
		return req
	})

	tcpSrv, err := ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate() // before Close, which waits for the handler
	tcp := NewTCPDialer()
	defer tcp.Close()
	net := NewInprocNetwork()
	inSrv, err := net.Listen("self", handler)
	if err != nil {
		t.Fatal(err)
	}
	dropResponses := NewFaults(1)
	dropResponses.SetDefault(FaultConfig{DropResponse: 1})

	for _, tc := range []struct {
		name     string
		dialer   Dialer
		endpoint string
		method   string
		timeout  time.Duration
	}{
		{"tcp", tcp, tcpSrv.Endpoint(), "self", 5 * time.Second},
		{"tcp timeout, handler reads late", tcp, tcpSrv.Endpoint(), "late", 30 * time.Millisecond},
		{"inproc", net.Dialer(), inSrv.Endpoint(), "self", 5 * time.Second},
		{"fault over inproc, response dropped", NewFaultDialer(net.Dialer(), dropResponses), inSrv.Endpoint(), "self", 20 * time.Millisecond},
		{"fault over tcp, response dropped", NewFaultDialer(tcp, dropResponses), tcpSrv.Endpoint(), "self", 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := []byte("request bytes of " + tc.name)
			want := bytes.Clone(payload)
			req := wire.GetEnvelope()
			req.Kind, req.Method, req.Payload = wire.KindRequest, tc.method, payload
			resp, err := tc.dialer.Call(context.Background(), tc.endpoint, req, tc.timeout)
			timedOut := tc.timeout < time.Second
			if timedOut != errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want a timeout: %v", err, timedOut)
			}

			for i := range payload {
				payload[i] = 0xEE // the caller reuses its buffer
			}
			ReleaseRequest(req, resp)
			if tc.method == "late" {
				openGate()
			}

			if got := <-saw; !bytes.Equal(got, want) {
				t.Fatalf("handler saw %q, want %q", got, want)
			}
			if timedOut {
				return
			}
			if resp.Kind != wire.KindResponse {
				t.Fatalf("response reads as kind %v after the release", resp.Kind)
			}
			if resp != req && !bytes.Equal(resp.Payload, want) {
				t.Fatalf("response payload %q, want %q", resp.Payload, want)
			}
		})
	}
}
