package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// e7Seed fixes the fault schedule so the experiment is reproducible: the
// same calls see the same losses on every run.
const e7Seed = 42

// e7Calls is the number of invokes per loss rate. Large enough that every
// non-zero rate deterministically injects at least one loss under e7Seed.
const e7Calls = 60

// E7's object answers every call with the method's name, unframed: get is
// the idempotent read the sweep retries, inc the non-idempotent probe.
var (
	e7Get = rpc.Function[rpc.None, []byte]{Name: "get", Idempotent: true, Args: rpc.NoneCodec, Result: rpc.RawCodec}
	e7Inc = rpc.Function[rpc.None, []byte]{Name: "inc", Args: rpc.NoneCodec, Result: rpc.RawCodec}
)

// RunE7 measures invoke latency and success under injected message loss.
// The paper's stale-binding study (§4, Cost) treats lost messages and
// timeouts as the mechanism by which clients discover reconfiguration; E7
// quantifies the client-side half of that story on today's stack: a retry
// policy with exponential backoff masks response loss for idempotent
// methods, while ambiguous failures on non-idempotent methods are surfaced
// rather than retried, preserving at-most-once execution.
//
// Sweep: drop-response rates {0%, 10%, 30%} through a seeded FaultDialer,
// 60 idempotent invokes each, reporting success count, retries, and
// latency. Then an at-most-once probe: a non-idempotent method under a
// guaranteed response drop must execute exactly once and report ambiguity.
func RunE7() (*Report, error) {
	// Metrics-only observability shared by every sweep: the breakdown shows
	// how injected loss stretches client.invoke while server.dispatch stays
	// flat.
	o := obs.NewMetricsOnly()
	table := metrics.NewTable(
		"E7 — invoke under injected response loss",
		"drop rate", "calls", "ok", "retries", "mean", "p95")

	type sweep struct {
		rate      float64
		successes int
		retries   uint64
		mean, p95 time.Duration
	}
	rates := []float64{0, 0.1, 0.3}
	sweeps := make([]sweep, 0, len(rates))
	for _, rate := range rates {
		env, err := newE7Env(e7Seed, o)
		if err != nil {
			return nil, err
		}
		env.faults.SetEndpoint(env.server.Endpoint(), transport.FaultConfig{DropResponse: rate})

		sample := metrics.NewSample(fmt.Sprintf("invoke@%.0f%%", rate*100))
		env.client.Latency = sample
		ok := 0
		for i := 0; i < e7Calls; i++ {
			if _, err := e7Get.Call(context.Background(), env.client, env.loid, rpc.None{}); err == nil {
				ok++
			}
		}
		sum := sample.Summarize()
		st := env.client.Stats()
		sweeps = append(sweeps, sweep{rate: rate, successes: ok, retries: st.Retries, mean: sum.Mean, p95: sum.P95})
		table.AddRow(fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", e7Calls), fmt.Sprintf("%d", ok),
			fmt.Sprintf("%d", st.Retries),
			metrics.FormatDuration(sum.Mean), metrics.FormatDuration(sum.P95))
	}

	// At-most-once probe: with the response to a non-idempotent call
	// guaranteed lost, the client must not re-send — the method body runs
	// exactly once and the caller is told the outcome is ambiguous.
	env, err := newE7Env(e7Seed, o)
	if err != nil {
		return nil, err
	}
	env.faults.SetEndpoint(env.server.Endpoint(), transport.FaultConfig{DropResponse: 1, Budget: 1})
	_, probeErr := e7Inc.Call(context.Background(), env.client, env.loid, rpc.None{})
	ambiguous := errors.Is(probeErr, rpc.ErrAmbiguousResult)
	execsAfterDrop := env.executed.Load()
	// The budget is spent, so a follow-up call completes normally.
	_, retryErr := e7Inc.Call(context.Background(), env.client, env.loid, rpc.None{})
	table.AddRow("at-most-once probe", "2", "1",
		fmt.Sprintf("%d", env.client.Stats().Retries),
		"-", "-")

	clean, lossy := sweeps[0], sweeps[len(sweeps)-1]
	checks := []Check{
		check("clean run: every call succeeds with zero retries",
			clean.successes == e7Calls && clean.retries == 0,
			"ok=%d/%d retries=%d", clean.successes, e7Calls, clean.retries),
	}
	for _, s := range sweeps[1:] {
		checks = append(checks, check(
			fmt.Sprintf("%.0f%% loss: retry policy masks every loss", s.rate*100),
			s.successes == e7Calls && s.retries > 0,
			"ok=%d/%d retries=%d", s.successes, e7Calls, s.retries))
	}
	checks = append(checks,
		check("injected loss raises invoke latency",
			lossy.p95 > clean.p95,
			"p95 clean=%v lossy=%v", clean.p95, lossy.p95),
		check("non-idempotent method never executed twice under response drop",
			ambiguous && execsAfterDrop == 1,
			"ambiguous=%v executions=%d err=%v", ambiguous, execsAfterDrop, probeErr),
		check("spent fault budget: follow-up call completes",
			retryErr == nil && env.executed.Load() == 2,
			"err=%v executions=%d", retryErr, env.executed.Load()),
	)

	return &Report{
		ID:     "E7",
		Title:  "invoke latency and success under injected faults; at-most-once for non-idempotent methods",
		Table:  table,
		Extras: []*metrics.Table{stageBreakdown(o.Metrics)},
		Notes: []string{
			fmt.Sprintf("real measurements over inproc transport wrapped in a seeded FaultDialer (seed %d)", e7Seed),
			"idempotent sweep: InvokeIdempotent retries ambiguous losses with exponential backoff",
			"probe row: Invoke on a non-idempotent method under guaranteed response loss (1 ambiguous abort, then 1 clean call)",
			"stage breakdown aggregates all sweeps: loss stretches client.invoke (end-to-end, retries included) while server.dispatch stays flat",
		},
		Checks: checks,
	}, nil
}

// e7Env is one client/server pair with a fault-injecting dialer in between.
type e7Env struct {
	server   *transport.InprocServer
	faults   *transport.Faults
	client   *rpc.Client
	loid     naming.LOID
	executed *atomic.Int64
}

func newE7Env(seed int64, o *obs.Obs) (*e7Env, error) {
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	disp := rpc.NewDispatcher()
	srv, err := net.Listen("e7-host", disp)
	if err != nil {
		return nil, err
	}
	if o != nil {
		disp.SetObs(o)
	}

	var executed atomic.Int64
	loid := naming.LOID{Domain: 1, Class: 7, Instance: 1}
	disp.Host(loid, rpc.ObjectFunc(func(method string, args []byte) ([]byte, error) {
		executed.Add(1)
		return []byte(method), nil
	}))
	agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})

	faults := transport.NewFaults(seed)
	client := rpc.NewClient(cache, transport.NewFaultDialer(net.Dialer(), faults))
	if o != nil {
		client.ObserveStages(o.Metrics)
	}
	// Short timeouts keep the experiment fast: a dropped response costs one
	// CallTimeout; backoffs stay in the low milliseconds.
	client.Retry = rpc.RetryPolicy{
		CallTimeout: 20 * time.Millisecond,
		MaxAttempts: 8,
		MaxRebinds:  2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
	return &e7Env{server: srv, faults: faults, client: client, loid: loid, executed: &executed}, nil
}
