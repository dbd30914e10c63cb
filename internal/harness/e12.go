package harness

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/legion"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

const (
	// e12Callers and e12CallsPerCaller shape the healthy closed-loop load
	// the sampler decides over, mirroring E10's design.
	e12Callers        = 64
	e12CallsPerCaller = 250
	e12Warmup         = 20
	e12Payload        = 64
	// e12SampleRate is the production-shaped head-sampling rate under test.
	e12SampleRate = 0.01
	// e12FlightThreshold marks a call slow; injected slow calls sleep well
	// past it so retention is never borderline.
	e12FlightThreshold = 10 * time.Millisecond
	e12SlowSleep       = 25 * time.Millisecond
	// e12SlowCalls and e12ErrorCalls are the injected incidents the flight
	// recorder must retain at 100% despite 1% head sampling.
	e12SlowCalls  = 24
	e12ErrorCalls = 24
)

// e12Env is one measurement environment: a TCP node and a driving client,
// each with its own obs plane so "client side" and "server side" retention
// are genuinely distinct recorders connected only by the wire.
type e12Env struct {
	node      *legion.Node
	dialer    *transport.TCPDialer
	client    *rpc.Client
	clientObs *obs.Obs
	serverObs *obs.Obs
	loid      naming.LOID
}

func (e *e12Env) close() {
	_ = e.dialer.Close()
	_ = e.node.Close()
}

// e12Setup builds the environment with the full observability plane (1%
// head sampling + flight recorder) on both sides of the wire.
func e12Setup(name string) (*e12Env, error) {
	mkObs := func() *obs.Obs {
		return obs.NewWithOptions(obs.Options{
			SampleRate:      e12SampleRate,
			FlightCapacity:  obs.DefaultFlightCapacity,
			FlightThreshold: e12FlightThreshold,
		})
	}
	serverObs := mkObs()
	agent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{
		Name:    name,
		Agent:   agent,
		TCPAddr: "127.0.0.1:0",
		Obs:     serverObs,
	})
	if err != nil {
		return nil, err
	}
	loid := naming.LOID{Domain: 12, Class: 1, Instance: 1}
	if _, err := node.HostObject(loid, rpc.ObjectFunc(func(method string, args []byte) ([]byte, error) {
		switch method {
		case "slow":
			time.Sleep(e12SlowSleep)
			return args, nil
		case "fail":
			return nil, fmt.Errorf("injected failure")
		default:
			return args, nil
		}
	})); err != nil {
		_ = node.Close()
		return nil, err
	}
	node.Dispatcher().Host(rpc.ObsLOID, &rpc.ObsService{Obs: serverObs})

	clientObs := mkObs()
	dialer := transport.NewTCPDialer()
	client := rpc.NewClient(naming.NewCache(agent, vclock.Real{}, 0), dialer)
	client.Retry.CallTimeout = 5 * time.Second
	client.Tracer = clientObs.Tracer
	return &e12Env{
		node: node, dialer: dialer, client: client,
		clientObs: clientObs, serverObs: serverObs, loid: loid,
	}, nil
}

// e12Drive runs the closed-loop healthy load.
func e12Drive(env *e12Env, calls int) error {
	payload := bytes.Repeat([]byte{0xC3}, e12Payload)
	var wg sync.WaitGroup
	errCh := make(chan error, e12Callers)
	for w := 0; w < e12Callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				out, err := env.client.Invoke(context.Background(), env.loid, "echo", payload)
				if err != nil {
					errCh <- err
					return
				}
				if len(out) != e12Payload {
					errCh <- fmt.Errorf("echo returned %d bytes", len(out))
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// e12CountRetained tallies a flight recorder's retained traces by the
// method annotation on their spans, returning how many distinct traces
// carry each method and the set of trace IDs seen per method.
func e12CountRetained(fl *obs.FlightRecorder, method string) map[uint64]bool {
	ids := make(map[uint64]bool)
	for _, ft := range fl.Recent(0) {
		for _, sp := range ft.Spans {
			if sp.Annots["method"] == method {
				ids[ft.TraceID] = true
				break
			}
		}
	}
	return ids
}

// RunE12 exercises the production observability plane: with 1% head
// sampling and a tail-retention flight recorder on both sides of the wire,
// a loaded fleet must keep roughly 1% of its traces and still capture
// *every* injected slow and errored call as a complete cross-node trace,
// because tail retention is independent of the head-sampling decision.
// What the plane costs is priced by the benchmark's workloads, not here.
func RunE12() (*Report, error) {
	env, err := e12Setup("e12")
	if err != nil {
		return nil, err
	}
	defer env.close()

	for _, calls := range []int{e12Warmup, e12CallsPerCaller} {
		if err := e12Drive(env, calls); err != nil {
			return nil, fmt.Errorf("healthy load: %w", err)
		}
	}

	// Inject incidents: slow calls sleep past the flight threshold, fail
	// calls error remotely. At 1% sampling, ~99% of these are head-dropped —
	// retention must not care.
	ctx := context.Background()
	for i := 0; i < e12SlowCalls; i++ {
		if _, err := env.client.Invoke(ctx, env.loid, "slow", nil); err != nil {
			return nil, fmt.Errorf("injected slow call: %w", err)
		}
	}
	for i := 0; i < e12ErrorCalls; i++ {
		if _, err := env.client.Invoke(ctx, env.loid, "fail", nil); err == nil {
			return nil, fmt.Errorf("injected failure call unexpectedly succeeded")
		}
	}

	// Client-side retention, read directly.
	cSlow := e12CountRetained(env.clientObs.GetFlight(), "slow")
	cFail := e12CountRetained(env.clientObs.GetFlight(), "fail")
	// Server-side retention, read the way an operator would: over RPC via
	// the obs service.
	oc := &rpc.ObsClient{Dialer: env.dialer, Endpoint: env.node.Endpoint(), Timeout: 5 * time.Second}
	rep, err := oc.Flight(ctx, 0, 0, false)
	if err != nil {
		return nil, fmt.Errorf("obs.flight: %w", err)
	}
	sSlow, sFail := make(map[uint64]bool), make(map[uint64]bool)
	for _, ft := range rep.Traces {
		for _, sp := range ft.Spans {
			switch sp.Annots["method"] {
			case "slow":
				sSlow[ft.TraceID] = true
			case "fail":
				sFail[ft.TraceID] = true
			}
		}
	}
	// Cross-wire coherence: every server-retained incident trace must carry
	// the trace ID the client minted (and retained under).
	coherent := 0
	for id := range sSlow {
		if cSlow[id] {
			coherent++
		}
	}
	for id := range sFail {
		if cFail[id] {
			coherent++
		}
	}

	decisions, kept := env.clientObs.Tracer.Sampler().Stats()
	sampledFrac := 0.0
	if decisions > 0 {
		sampledFrac = float64(kept) / float64(decisions)
	}

	table := metrics.NewTable(
		"E12 — observability plane under load: 1% head sampling + tail retention",
		"metric", "sampled+flight")
	table.AddRow("head sampling decisions (kept/total)",
		fmt.Sprintf("%d/%d (%.2f%%)", kept, decisions, 100*sampledFrac))
	table.AddRow("injected slow calls retained (server/client)",
		fmt.Sprintf("%d/%d of %d", len(sSlow), len(cSlow), e12SlowCalls))
	table.AddRow("injected errored calls retained (server/client)",
		fmt.Sprintf("%d/%d of %d", len(sFail), len(cFail), e12ErrorCalls))

	totalIncidents := e12SlowCalls + e12ErrorCalls
	checks := []Check{
		check("100% of injected slow calls in the server flight recorder",
			len(sSlow) == e12SlowCalls, "%d of %d", len(sSlow), e12SlowCalls),
		check("100% of injected errored calls in the server flight recorder",
			len(sFail) == e12ErrorCalls, "%d of %d", len(sFail), e12ErrorCalls),
		check("100% of injected incidents in the client flight recorder",
			len(cSlow) == e12SlowCalls && len(cFail) == e12ErrorCalls,
			"slow %d/%d, fail %d/%d", len(cSlow), e12SlowCalls, len(cFail), e12ErrorCalls),
		check("client and server retain incidents under the same trace IDs",
			coherent == totalIncidents, "%d of %d coherent", coherent, totalIncidents),
		check("head sampling keeps roughly 1% of traces (0.2%-3%)",
			decisions > 1000 && sampledFrac > 0.002 && sampledFrac < 0.03,
			"%d of %d (%.2f%%)", kept, decisions, 100*sampledFrac),
	}

	return &Report{
		ID:    "E12",
		Title: "tail-sampled tracing and flight recorder under production load",
		Table: table,
		Notes: []string{
			fmt.Sprintf("healthy load: %d closed-loop callers x %d calls (after %d warm-up calls each), %d-byte echo over TCP loopback",
				e12Callers, e12CallsPerCaller, e12Warmup, e12Payload),
			fmt.Sprintf("sampled plane: %.0f%% head sampling, flight recorder threshold %v, client and server each run their own recorder joined only by the wire's keep/drop bit",
				100*e12SampleRate, e12FlightThreshold),
			fmt.Sprintf("incidents: %d slow calls (%v sleep) and %d errored calls injected after the load; retention is asserted via the obs.flight RPC on the server and directly on the client",
				e12SlowCalls, e12SlowSleep, e12ErrorCalls),
		},
		Checks: checks,
	}, nil
}
