package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

const (
	// e15AllocBatches is how many batches back the allocs/sub-call
	// measurement.
	e15AllocBatches = 500
	// e15Payload matches E10's echo payload size.
	e15Payload = 64
	// e15DefaultBatchSize is the sub-calls-per-frame the experiment ships
	// with; dcdo-bench -batch overrides it via SetBatchSize.
	e15DefaultBatchSize = 16
)

// e15BatchSize is the batch size under test. Package-level so the bench CLI
// can vary it; reads race nothing because experiments run sequentially.
var e15BatchSize = e15DefaultBatchSize

// SetBatchSize overrides the batch size E15 measures (the dcdo-bench -batch
// flag). Values below 1 restore the experiment default; values above
// wire.MaxBatchCalls are clamped to it.
func SetBatchSize(n int) {
	if n < 1 {
		n = e15DefaultBatchSize
	}
	if n > wire.MaxBatchCalls {
		n = wire.MaxBatchCalls
	}
	e15BatchSize = n
}

// e15AllocsPerSubCall measures whole-process allocations per batched
// sub-call, sequentially (the E10 methodology: runtime mallocs across
// client, transport goroutines, and server in this process).
func e15AllocsPerSubCall(env *e10Env) (float64, error) {
	payload := bytes.Repeat([]byte{0x3C}, e15Payload)
	size := e15BatchSize
	b := env.client.NewBatch()
	run := func() error {
		b.Reset()
		for i := 0; i < size; i++ {
			b.Add(env.loid, "echo", payload)
		}
		for i, r := range b.Invoke(context.Background()) {
			if r.Err != nil {
				return fmt.Errorf("sub %d: %w", i, r.Err)
			}
		}
		return nil
	}
	for i := 0; i < 50; i++ { // warm pools, caches, and connections
		if err := run(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < e15AllocBatches; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(e15AllocBatches*size), nil
}

// e15CounterObject is the fault drill's stateful target: "add" is the
// non-idempotent method (each execution increments), "get" the idempotent
// read. The execution count is ground truth for the at-most-once check.
type e15CounterObject struct {
	mu  sync.Mutex
	val int
}

func (o *e15CounterObject) Dispatch(method string, args []byte) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch method {
	case "add":
		o.val++
		return strconv.AppendInt(nil, int64(o.val), 10), nil
	case "get":
		return strconv.AppendInt(nil, int64(o.val), 10), nil
	default:
		return nil, rpc.ErrNoSuchFunction
	}
}

// e15FaultDrill proves the per-sub-call failure classification under seeded
// faults: batches mixing non-idempotent "add"s and idempotent "get"s run
// through a lossy dialer. Idempotent sub-calls must all eventually succeed
// (the retry machine re-runs them); non-idempotent ones must each settle as
// exactly-acked or explicitly ambiguous, and the counter's final value must
// sit inside [acked, acked+ambiguous] — at-most-once, proven against ground
// truth.
type e15DrillResult struct {
	gets, getFailures     int
	acked, ambiguous      int
	otherAddErrors        int
	final                 int
	fallbacks, ambAborted uint64
}

func e15FaultDrill(seed int64) (*e15DrillResult, error) {
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	disp := rpc.NewDispatcher()
	srv, err := net.Listen("e15-drill", disp)
	if err != nil {
		return nil, err
	}
	loid := naming.LOID{Domain: 15, Class: 2, Instance: 1}
	obj := &e15CounterObject{}
	disp.Host(loid, rpc.ObjectFunc(obj.Dispatch))
	agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})

	faults := transport.NewFaults(seed)
	faults.SetEndpoint(srv.Endpoint(), transport.FaultConfig{
		DropResponse: 0.25, // executed, response lost: the ambiguous case
		DropRequest:  0.15, // never executed, looks identical to the client
		Budget:       40,
	})
	client := rpc.NewClient(cache, transport.NewFaultDialer(net.Dialer(), faults))
	client.Retry.CallTimeout = 10 * time.Millisecond
	client.Retry.MaxAttempts = 10
	client.Retry.BaseBackoff = 0

	res := &e15DrillResult{}
	b := client.NewBatch()
	for round := 0; round < 40; round++ {
		b.Reset()
		for i := 0; i < 4; i++ {
			b.Add(loid, "add", nil)
			b.AddIdempotent(loid, "get", nil)
		}
		for i, r := range b.Invoke(context.Background()) {
			isAdd := i%2 == 0
			switch {
			case !isAdd:
				res.gets++
				if r.Err != nil {
					res.getFailures++
				}
			case r.Err == nil:
				res.acked++
			case errors.Is(r.Err, rpc.ErrAmbiguousResult):
				res.ambiguous++
			default:
				res.otherAddErrors++
			}
		}
	}

	// Read ground truth after the fault budget is provably spent.
	out, err := client.InvokeIdempotent(context.Background(), loid, "get", nil)
	if err != nil {
		return nil, fmt.Errorf("final get: %w", err)
	}
	res.final, err = strconv.Atoi(string(out))
	if err != nil {
		return nil, fmt.Errorf("final get payload %q: %w", out, err)
	}
	st := client.Stats()
	res.fallbacks, res.ambAborted = st.BatchFallbacks, st.AmbiguousAborts
	return res, nil
}

// RunE15 exercises the batched scatter-gather invoke API: under seeded
// faults, the per-sub-call failure classification must keep batched
// non-idempotent calls at-most-once. It also reports allocations per
// sub-call beside the single-call path's (informational: TestAllocBudgets
// holds both to budget, and the benchmark's rpc_batch workload is the
// admissible throughput number).
func RunE15() (*Report, error) {
	env, err := e10Setup("e15")
	if err != nil {
		return nil, err
	}
	defer env.close()

	singleAllocs, err := e10AllocsPerOp(env)
	if err != nil {
		return nil, fmt.Errorf("single allocs: %w", err)
	}
	batchAllocs, err := e15AllocsPerSubCall(env)
	if err != nil {
		return nil, fmt.Errorf("batch allocs: %w", err)
	}

	drill, err := e15FaultDrill(15)
	if err != nil {
		return nil, fmt.Errorf("fault drill: %w", err)
	}

	addsSettled := drill.acked+drill.ambiguous > 0 && drill.otherAddErrors == 0
	inBounds := drill.acked <= drill.final && drill.final <= drill.acked+drill.ambiguous

	table := metrics.NewTable(
		fmt.Sprintf("E15 — batched scatter-gather invoke (batch=%d) vs single-call fast path", e15BatchSize),
		"metric", "single-call", "batched")
	table.AddRow("allocs per sub-call (whole process)",
		fmt.Sprintf("%.1f", singleAllocs), fmt.Sprintf("%.2f", batchAllocs))
	table.AddRow("fault drill: adds acked / ambiguous / counter",
		"-", fmt.Sprintf("%d / %d / %d", drill.acked, drill.ambiguous, drill.final))
	table.AddRow("fault drill: idempotent gets (failed/total)",
		"-", fmt.Sprintf("%d/%d", drill.getFailures, drill.gets))

	checks := []Check{
		check("seeded faults: every idempotent sub-call eventually succeeded",
			drill.getFailures == 0, "%d/%d gets failed", drill.getFailures, drill.gets),
		check("seeded faults: non-idempotent sub-calls settle acked-or-ambiguous only",
			addsSettled, "%d acked, %d ambiguous, %d other errors", drill.acked, drill.ambiguous, drill.otherAddErrors),
		check("at-most-once: acked <= counter <= acked+ambiguous",
			inBounds, "%d <= %d <= %d", drill.acked, drill.final, drill.acked+drill.ambiguous),
		check("classification exercised: ambiguous aborts and fallbacks both occurred",
			drill.ambiguous > 0 && drill.fallbacks > 0, "%d ambiguous, %d fallbacks", drill.ambiguous, drill.fallbacks),
	}

	return &Report{
		ID:    "E15",
		Title: "batched scatter-gather invoke: one frame per 16 sub-calls, zero-copy borrowed args",
		Table: table,
		Notes: []string{
			fmt.Sprintf("allocs: whole-process runtime.Mallocs delta over %d sequential %d-call batches of %d-byte echoes over TCP loopback (both wire directions), default server (sub-calls borrow their args from the frame); informational — TestAllocBudgets holds the budgets and the benchmark's rpc_batch workload prices the path",
				e15AllocBatches, e15BatchSize, e15Payload),
			"fault drill: seeded lossy dialer (25% responses dropped, 15% requests dropped, budget 40) over batches mixing non-idempotent adds with idempotent gets; counter object is ground truth for at-most-once",
		},
		Checks: checks,
	}, nil
}
