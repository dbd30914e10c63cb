package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// TestBackupReadEchoKeepsItsResult drives 1,000 backup-ok reads of an echo
// function over inproc with poison checks on. The client writes each backup
// read's repl.read wrapper into a frame-pool buffer and releases it with
// the attempt, except when the result aliases it: an in-process backup
// whose function echoes its arguments hands the wrapper's own bytes back as
// the result. Releasing that wrapper would poison the result. Run under
// -race by `make race`.
func TestBackupReadEchoKeepsItsResult(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	env := newTestEnv(t, "primary")
	backupDisp := NewDispatcher()
	backup, err := env.net.Listen("backup", backupDisp)
	if err != nil {
		t.Fatal(err)
	}
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 3}
	echo := ObjectFunc(func(_ string, args []byte) ([]byte, error) { return args, nil })
	env.disp.Host(loid, echo)
	// The backup unwraps repl.read and runs the echo locally, as a replica
	// does.
	var backupReads atomic.Int64
	replRead := Method[ReadArgs, []byte]{Name: MethodReplRead, Idempotent: true, Args: ReadArgsCodec, Result: RawCodec}
	backupDisp.Host(loid, Serve(replRead.Handle(func(_ context.Context, a ReadArgs) ([]byte, error) {
		backupReads.Add(1)
		return echo.InvokeMethod(a.Method, a.Args)
	})))
	env.agent.RegisterSet(loid, naming.ReplicaSet{Primary: env.server.Endpoint(), Backups: []string{backup.Endpoint()}})
	env.agent.RegisterPolicy(loid, policy.DistributionPolicy{Degree: 2,
		ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual})

	for i := 0; i < 1000; i++ {
		args := binary.LittleEndian.AppendUint64([]byte("read "), uint64(i))
		out, err := env.client.InvokeIdempotent(context.Background(), loid, "echo", args)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(out, args) {
			t.Fatalf("read %d returned %x, want %x", i, out, args)
		}
	}
	if n := backupReads.Load(); n < 400 {
		t.Fatalf("the backup served %d of 1000 reads, want about half", n)
	}
}

// TestResponsesOutliveTheirRelease holds the caller to the response release
// contract: every attempt recycles its response envelope once it has taken
// the payload, and nothing the caller returns may read the envelope, or a
// buffer it owned, after that. Poison checks are on and every result is kept
// until the end, then checked, so a released envelope or run shows as
// poison or as a reused buffer. The calls cover a raw Invoke over TCP,
// inproc and a FaultDialer over inproc that drops responses, batch
// sub-results (over inproc they alias the server's pooled response run), a
// RemoteError's message, and a handler that answers with its own request
// (released once, not twice). Run under -race by `make race`.
func TestResponsesOutliveTheirRelease(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	env := newTestEnv(t, "release")
	tcpSrv, err := transport.ListenTCP("127.0.0.1:0", env.disp)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	self, err := env.net.Listen("self", transport.HandlerFunc(func(_ context.Context, req *wire.Envelope) *wire.Envelope {
		req.Kind = wire.KindResponse
		return req
	}))
	if err != nil {
		t.Fatal(err)
	}
	tcp := transport.NewTCPDialer()
	defer tcp.Close()
	multi := transport.NewMultiDialer(map[transport.Scheme]transport.Dialer{
		transport.SchemeTCP: tcp, transport.SchemeInproc: env.net.Dialer()})
	env.client = NewClient(env.cache, multi)
	env.client.Retry.BaseBackoff, env.client.Retry.MaxBackoff = time.Millisecond, time.Millisecond
	faults := transport.NewFaults(7)
	faults.SetDefault(transport.FaultConfig{DropResponse: 0.3})
	lossy := NewClient(env.cache, transport.NewFaultDialer(env.net.Dialer(), faults))
	lossy.Retry.CallTimeout, lossy.Retry.MaxAttempts = 5*time.Millisecond, 20
	lossy.Retry.BaseBackoff, lossy.Retry.MaxBackoff = time.Millisecond, time.Millisecond

	refuse := ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return nil, fmt.Errorf("%w: %s refused %s", ErrNoSuchFunction, method, args)
	})
	type object struct {
		name     string
		loid     naming.LOID
		endpoint string
		obj      Object
	}
	var objects []object
	for i, ep := range []string{env.server.Endpoint(), tcpSrv.Endpoint()} {
		objects = append(objects,
			object{"echo@" + ep, naming.LOID{Domain: 4, Class: 1, Instance: uint64(i)}, ep, echoObject()},
			object{"refuse@" + ep, naming.LOID{Domain: 4, Class: 2, Instance: uint64(i)}, ep, refuse})
	}
	objects = append(objects, object{"self", naming.LOID{Domain: 4, Class: 3}, self.Endpoint(), nil})
	for _, o := range objects {
		if o.obj != nil {
			env.disp.Host(o.loid, o.obj)
		}
		env.agent.Register(o.loid, naming.Address{Endpoint: o.endpoint})
	}

	// want is what a call of o with args must return: its result, or the
	// message of the remote error it must fail with.
	want := func(o object, args []byte) (result []byte, msg string) {
		switch {
		case o.obj == nil:
			return args, ""
		case strings.HasPrefix(o.name, "refuse"):
			return nil, fmt.Sprintf("%v: call refused %s", ErrNoSuchFunction, args)
		}
		return append([]byte("call:"), args...), ""
	}
	var checks []func() error
	keep := func(route string, o object, args, got []byte, err error) {
		result, msg := want(o, args)
		checks = append(checks, func() error {
			var re *RemoteError
			switch {
			case msg != "" && (!errors.As(err, &re) || re.Message != msg):
				return fmt.Errorf("%s %s: got %v, want a remote error %q", route, o.name, err, msg)
			case msg == "" && err != nil:
				return fmt.Errorf("%s %s: %v", route, o.name, err)
			case !bytes.Equal(got, result):
				return fmt.Errorf("%s %s returned %q, want %q", route, o.name, got, result)
			}
			return nil
		})
	}

	ctx := context.Background()
	for i := 0; i < 100; i++ {
		for _, o := range objects {
			args := fmt.Appendf(nil, "%s #%d", o.name, i)
			got, err := env.client.Invoke(ctx, o.loid, "call", args)
			keep("invoke", o, args, got, err)
			if o.endpoint != tcpSrv.Endpoint() {
				got, err = lossy.InvokeIdempotent(ctx, o.loid, "call", args)
				keep("lossy invoke", o, args, got, err)
			}
		}
		batch := env.client.NewBatch()
		var batched []object
		var batchArgs [][]byte
		for _, o := range objects[:4] {
			for j := 0; j < 4; j++ {
				args := fmt.Appendf(nil, "%s #%d.%d", o.name, i, j)
				batch.Add(o.loid, "call", args)
				batched, batchArgs = append(batched, o), append(batchArgs, args)
			}
		}
		for k, r := range slices.Clone(batch.Invoke(ctx)) {
			keep("batch", batched[k], batchArgs[k], r.Payload, r.Err)
		}
	}
	for _, check := range checks {
		if err := check(); err != nil {
			t.Fatal(err)
		}
	}
	if faults.Stats().DroppedResponses == 0 {
		t.Fatal("the lossy dialer dropped no response")
	}
}

// TestBatchRunsOutliveTheirRelease holds both ends of a batch frame to the
// batch-run release contract: the dispatcher and the client each decode a
// frame's run of sub-envelopes into a pooled run and release it once, after
// the last read of its entries, on every path; a released run holds nothing
// of its frame. Poison checks are on, so a run released twice panics and a
// run read after its release reads as poison, and wire.FramePoolStats's
// RunsHeld shows a run never released. Run under -race by `make race`.
func TestBatchRunsOutliveTheirRelease(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)
	held := func() int64 { return wire.FramePoolStats().RunsHeld }
	ctx := context.Background()

	env := newTestEnv(t, "runs")
	tcpSrv, err := transport.ListenTCP("127.0.0.1:0", env.disp)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	tcp := transport.NewTCPDialer()
	defer tcp.Close()
	env.client = NewClient(env.cache, transport.NewMultiDialer(map[transport.Scheme]transport.Dialer{
		transport.SchemeTCP: tcp, transport.SchemeInproc: env.net.Dialer()}))
	loids := map[string]naming.LOID{}
	for i, ep := range []string{env.server.Endpoint(), tcpSrv.Endpoint()} {
		loids[ep] = naming.LOID{Domain: 5, Class: 1, Instance: uint64(i)}
		env.disp.Host(loids[ep], echoObject())
		env.agent.Register(loids[ep], naming.Address{Endpoint: ep})
	}

	t.Run("results outlive 1000 later batches", func(t *testing.T) {
		type kept struct {
			want []byte
			got  BatchResult
		}
		var all []kept
		batch := env.client.NewBatch()
		before := held()
		for i := 0; i < 1001; i++ {
			batch.Reset()
			var wants [][]byte
			for ep, loid := range loids {
				for j := 0; j < 8; j++ {
					args := fmt.Appendf(nil, "%s #%d.%d", ep, i, j)
					batch.Add(loid, "call", args)
					wants = append(wants, append([]byte("call:"), args...))
				}
			}
			for k, r := range batch.Invoke(ctx) {
				all = append(all, kept{wants[k], r})
			}
		}
		if got := held(); got != before {
			t.Fatalf("%d batch runs left unreleased", got-before)
		}
		for _, k := range all {
			if k.got.Err != nil || !bytes.Equal(k.got.Payload, k.want) {
				t.Fatalf("kept result %q, %v; want %q", k.got.Payload, k.got.Err, k.want)
			}
		}
	})

	// okRun is a well-formed response run of n sub-responses; liar answers
	// every batch frame with the run it is given.
	okRun := func(n int) []byte {
		run := wire.AppendBatchHeader(nil, n)
		for id := 1; id <= n; id++ {
			run, _ = wire.AppendBatchEntry(run, &wire.Envelope{Kind: wire.KindResponse, ID: uint64(id), Payload: []byte("ok")}, nil)
		}
		return run
	}
	run2 := okRun(2)
	var answer atomic.Pointer[[]byte]
	liar, err := env.net.Listen("liar", transport.HandlerFunc(func(_ context.Context, req *wire.Envelope) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindBatchResponse, ID: req.ID, Payload: *answer.Load()}
	}))
	if err != nil {
		t.Fatal(err)
	}
	liarLOID := naming.LOID{Domain: 5, Class: 2}
	env.agent.Register(liarLOID, naming.Address{Endpoint: liar.Endpoint()})
	for _, tc := range []struct {
		name string
		resp []byte
	}{
		{"a malformed response run", run2[:len(run2)-1]},
		{"a response run with the wrong count", okRun(1)},
		{"a well-formed response run", run2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			answer.Store(&tc.resp)
			before := held()
			batch := env.client.NewBatch()
			batch.Add(liarLOID, "w", nil)
			batch.Add(liarLOID, "w", nil)
			results := batch.Invoke(ctx)
			if got := held(); got != before {
				t.Fatalf("RunsHeld moved %d -> %d", before, got)
			}
			for _, r := range results {
				switch {
				case bytes.Equal(tc.resp, run2) && (r.Err != nil || string(r.Payload) != "ok"):
					t.Fatalf("sub-result %q, %v; want ok", r.Payload, r.Err)
				case !bytes.Equal(tc.resp, run2) && !errors.Is(r.Err, ErrAmbiguousResult):
					t.Fatalf("sub-result %q, %v; want ErrAmbiguousResult", r.Payload, r.Err)
				}
			}
		})
	}

	t.Run("a malformed request run", func(t *testing.T) {
		before := held()
		req := &wire.Envelope{Kind: wire.KindBatchRequest, Payload: run2[:len(run2)-1]}
		resp := env.disp.Handle(ctx, req)
		if resp.Kind != wire.KindError || resp.Code != wire.CodeBadRequest {
			t.Fatalf("malformed run answered %+v, want CodeBadRequest", resp)
		}
		if got := held(); got != before {
			t.Fatalf("RunsHeld moved %d -> %d", before, got)
		}
	})

	t.Run("a batch that expires mid-run", func(t *testing.T) {
		expiring, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := naming.LOID{Domain: 5, Class: 3}
		env.disp.Host(stop, ObjectFunc(func(string, []byte) ([]byte, error) { cancel(); return nil, nil }))
		run := wire.AppendBatchHeader(nil, 3)
		for id := uint64(1); id <= 3; id++ {
			run, _ = wire.AppendBatchEntry(run, &wire.Envelope{Kind: wire.KindRequest, ID: id, Target: stop.String(), Method: "m"}, nil)
		}
		before := held()
		resp := env.disp.Handle(expiring, &wire.Envelope{Kind: wire.KindBatchRequest, Payload: run})
		if got := held(); got != before {
			t.Fatalf("RunsHeld moved %d -> %d", before, got)
		}
		subs, err := wire.DecodeBatchRunPooled(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 3 || subs[0].Kind != wire.KindResponse || subs[1].Code != wire.CodeExpired || subs[2].Code != wire.CodeExpired {
			t.Fatalf("expired batch answered %+v", subs)
		}
		wire.PutBatchRun(subs)
	})

	// A released run holds nothing of its frame: cleared for the pool, or
	// poisoned in quarantine, where a second release panics.
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("release clears the run, poison=%v", poison), func(t *testing.T) {
			wire.SetPoisonChecks(poison)
			defer wire.SetPoisonChecks(true)
			run, err := wire.DecodeBatchRunPooled(run2)
			if err != nil {
				t.Fatal(err)
			}
			released := run[:cap(run)]
			wire.PutBatchRun(run)
			for i, ev := range released {
				if ev.Payload != nil || poison != (ev.Kind == wire.Kind(wire.PoisonByte)) ||
					!poison && !reflect.ValueOf(ev).IsZero() {
					t.Fatalf("released entry %d holds %+v", i, ev)
				}
			}
			if !poison {
				return
			}
			defer func() {
				if recover() == nil {
					t.Fatal("second release did not panic")
				}
			}()
			wire.PutBatchRun(run)
		})
	}
}
