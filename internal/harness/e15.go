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

	"godcdo/internal/legion"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

const (
	// e15Callers matches E10's concurrency level so the two experiments'
	// throughput numbers compare directly.
	e15Callers = 64
	// e15CallsPerCaller is the per-trial sub-call count per caller (a
	// multiple of any sane batch size).
	e15CallsPerCaller = 256
	// e15WarmupPerCaller primes connections, pools, and the binding cache.
	e15WarmupPerCaller = 32
	// e15Payload matches E10's echo payload size.
	e15Payload = 64
	// e15Trials runs interleaved single/batch trial pairs and keeps the
	// best-ratio pair (the E12 methodology; see e12ThroughputPair).
	e15Trials = 4
	// e15ThroughputFloor is the pass threshold for batch/single throughput
	// at e15Callers: the batch API's reason to exist is a ≥2x win over the
	// already-fast single-call path.
	e15ThroughputFloor = 2.0
	// e15AllocBatches is how many batches back the allocs/sub-call
	// measurement.
	e15AllocBatches = 500
	// e15Stripes is the dialer's stripe ceiling (adaptive growth may open
	// up to this many).
	e15Stripes = 4
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

// e15Env is one measurement environment: a TCP node with the batch-era
// server features on (zero-copy borrowed args) and a client whose dialer may
// grow stripes adaptively.
type e15Env struct {
	node   *legion.Node
	dialer *transport.TCPDialer
	client *rpc.Client
	loid   naming.LOID
}

func (e *e15Env) close() {
	_ = e.dialer.Close()
	_ = e.node.Close()
}

func e15Setup(name string) (*e15Env, error) {
	agent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{
		Name:         name,
		Agent:        agent,
		TCPAddr:      "127.0.0.1:0",
		BorrowedArgs: true,
	})
	if err != nil {
		return nil, err
	}
	loid := naming.LOID{Domain: 15, Class: 1, Instance: 1}
	if _, err := node.HostObject(loid, rpc.ObjectFunc(func(_ string, args []byte) ([]byte, error) {
		return args, nil
	})); err != nil {
		_ = node.Close()
		return nil, err
	}
	dialer := transport.NewTCPDialer()
	dialer.Stripes = e15Stripes
	dialer.AdaptiveStripes = true
	client := rpc.NewClient(naming.NewCache(agent, vclock.Real{}, 0), dialer)
	client.Retry.CallTimeout = 5 * time.Second
	return &e15Env{node: node, dialer: dialer, client: client, loid: loid}, nil
}

// e15DriveSingle runs e15Callers closed-loop goroutines issuing calls
// sequential single-call invokes each.
func e15DriveSingle(env *e15Env, calls int) error {
	payload := bytes.Repeat([]byte{0xB6}, e15Payload)
	var wg sync.WaitGroup
	errCh := make(chan error, e15Callers)
	for w := 0; w < e15Callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				out, err := env.client.Invoke(context.Background(), env.loid, "echo", payload)
				if err != nil {
					errCh <- err
					return
				}
				if len(out) != e15Payload {
					errCh <- fmt.Errorf("echo returned %d bytes, want %d", len(out), e15Payload)
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

// e15DriveBatch runs e15Callers closed-loop goroutines, each issuing the
// same sub-call volume as e15DriveSingle but packed into reusable batches of
// e15BatchSize.
func e15DriveBatch(env *e15Env, subCalls int) error {
	payload := bytes.Repeat([]byte{0xC7}, e15Payload)
	size := e15BatchSize
	var wg sync.WaitGroup
	errCh := make(chan error, e15Callers)
	for w := 0; w < e15Callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := env.client.NewBatch()
			for done := 0; done < subCalls; done += size {
				n := size
				if rem := subCalls - done; rem < n {
					n = rem
				}
				b.Reset()
				for i := 0; i < n; i++ {
					b.Add(env.loid, "echo", payload)
				}
				results := b.Invoke(context.Background())
				for i, r := range results {
					if r.Err != nil {
						errCh <- fmt.Errorf("batch sub %d: %w", i, r.Err)
						return
					}
					if len(r.Payload) != e15Payload {
						errCh <- fmt.Errorf("batch sub %d returned %d bytes", i, len(r.Payload))
						return
					}
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

// e15ThroughputPair interleaves single and batch trials — single, batch,
// single, batch, … — and keeps the pair with the best batch/single ratio,
// for the same weather-window reasons as e12ThroughputPair.
func e15ThroughputPair(env *e15Env) (singleOps, batchOps float64, err error) {
	measure := func(drive func(*e15Env, int) error) (float64, error) {
		runtime.GC()
		start := time.Now()
		if err := drive(env, e15CallsPerCaller); err != nil {
			return 0, err
		}
		return float64(e15Callers*e15CallsPerCaller) / time.Since(start).Seconds(), nil
	}
	if err := e15DriveSingle(env, e15WarmupPerCaller); err != nil {
		return 0, 0, err
	}
	if err := e15DriveBatch(env, e15WarmupPerCaller); err != nil {
		return 0, 0, err
	}
	for trial := 0; trial < e15Trials; trial++ {
		sops, err := measure(e15DriveSingle)
		if err != nil {
			return 0, 0, fmt.Errorf("single throughput: %w", err)
		}
		bops, err := measure(e15DriveBatch)
		if err != nil {
			return 0, 0, fmt.Errorf("batch throughput: %w", err)
		}
		if singleOps == 0 || bops/sops > batchOps/singleOps {
			singleOps, batchOps = sops, bops
		}
	}
	return singleOps, batchOps, nil
}

// e15AllocsPerSubCall measures whole-process allocations per batched
// sub-call, sequentially (the E10 methodology: runtime mallocs across
// client, transport goroutines, and server in this process).
func e15AllocsPerSubCall(env *e15Env) (float64, error) {
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

// RunE15 measures the batched scatter-gather invoke API against the
// single-call fast path it rides on: sub-call throughput at 64 callers with
// 16-call batches, allocations per sub-call, and — under seeded faults — the
// per-sub-call failure classification that keeps batched non-idempotent
// calls at-most-once.
func RunE15() (*Report, error) {
	env, err := e15Setup("e15")
	if err != nil {
		return nil, err
	}
	defer env.close()

	singleOps, batchOps, err := e15ThroughputPair(env)
	if err != nil {
		return nil, err
	}
	singleAllocs, err := e10AllocsPerOp(&e10Env{node: env.node, dialer: env.dialer, client: env.client, loid: env.loid})
	if err != nil {
		return nil, fmt.Errorf("single allocs: %w", err)
	}
	batchAllocs, err := e15AllocsPerSubCall(env)
	if err != nil {
		return nil, fmt.Errorf("batch allocs: %w", err)
	}
	dialerStats := env.dialer.Stats()

	drill, err := e15FaultDrill(15)
	if err != nil {
		return nil, fmt.Errorf("fault drill: %w", err)
	}

	ratio := batchOps / singleOps
	allocCut := 100 * (1 - batchAllocs/singleAllocs)
	addsSettled := drill.acked+drill.ambiguous > 0 && drill.otherAddErrors == 0
	inBounds := drill.acked <= drill.final && drill.final <= drill.acked+drill.ambiguous

	table := metrics.NewTable(
		fmt.Sprintf("E15 — batched scatter-gather invoke (batch=%d) vs single-call fast path", e15BatchSize),
		"metric", "single-call", "batched")
	table.AddRow(fmt.Sprintf("pipelined throughput, %d callers (sub-calls/s)", e15Callers),
		fmt.Sprintf("%.0f", singleOps), fmt.Sprintf("%.0f", batchOps))
	table.AddRow("allocs per sub-call (whole process)",
		fmt.Sprintf("%.1f", singleAllocs), fmt.Sprintf("%.2f", batchAllocs))
	table.AddRow("fault drill: adds acked / ambiguous / counter",
		"-", fmt.Sprintf("%d / %d / %d", drill.acked, drill.ambiguous, drill.final))
	table.AddRow("fault drill: idempotent gets (failed/total)",
		"-", fmt.Sprintf("%d/%d", drill.getFailures, drill.gets))

	checks := []Check{
		check(fmt.Sprintf("batched throughput >= %.1fx single-call at %d callers", e15ThroughputFloor, e15Callers),
			ratio >= e15ThroughputFloor, "%.0f vs %.0f sub-calls/s (%.2fx)", batchOps, singleOps, ratio),
		check("batch allocs/sub-call cut by >= 50% vs single-call",
			allocCut >= 50, "%.1f -> %.2f allocs (-%.0f%%)", singleAllocs, batchAllocs, allocCut),
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
			fmt.Sprintf("throughput: best interleaved pair of %d trials, %d closed-loop callers x %d sub-calls, %d-byte echo over TCP loopback; server runs BorrowedArgs (zero-copy), dialer adaptive up to %d stripes (%d growth dials this run)",
				e15Trials, e15Callers, e15CallsPerCaller, e15Payload, e15Stripes, dialerStats.GrowthDials),
			fmt.Sprintf("allocs: whole-process runtime.Mallocs delta over %d sequential %d-call batches (both wire directions)", e15AllocBatches, e15BatchSize),
			"fault drill: seeded lossy dialer (25% responses dropped, 15% requests dropped, budget 40) over batches mixing non-idempotent adds with idempotent gets; counter object is ground truth for at-most-once",
		},
		Checks: checks,
	}, nil
}
