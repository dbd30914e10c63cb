package harness

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"godcdo/internal/legion"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

const (
	// e10Callers is the pipelined-load concurrency level.
	e10Callers = 64
	// e10CallsPerCaller bounds the measured pipelined run.
	e10CallsPerCaller = 250
	// e10WarmupPerCaller primes connections, pools, and the binding cache.
	e10WarmupPerCaller = 20
	// e10AllocCalls is the sequential-call count behind the allocs/op
	// measurement.
	e10AllocCalls = 2000
	// e10Stripes is the dialer's per-endpoint connection count.
	e10Stripes = 2
	// e10Payload is the echo payload size: small enough that framing and
	// syscall overhead dominates.
	e10Payload = 64
)

// e10Env is the measurement environment: a TCP node hosting an echo object
// and a client whose dialer opens e10Stripes connection stripes.
type e10Env struct {
	node   *legion.Node
	dialer *transport.TCPDialer
	client *rpc.Client
	loid   naming.LOID
}

func (e *e10Env) close() {
	_ = e.dialer.Close()
	_ = e.node.Close()
}

// e10Setup builds the environment on a default-configured node called name
// (E15 reuses it).
func e10Setup(name string) (*e10Env, error) {
	agent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{Name: name, Agent: agent, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	loid := naming.LOID{Domain: 10, Class: 1, Instance: 1}
	if _, err := node.HostObject(loid, rpc.ObjectFunc(func(_ string, args []byte) ([]byte, error) {
		return args, nil
	})); err != nil {
		_ = node.Close()
		return nil, err
	}
	dialer := transport.NewTCPDialer()
	dialer.Stripes = e10Stripes
	client := rpc.NewClient(naming.NewCache(agent, vclock.Real{}, 0), dialer)
	client.Retry.CallTimeout = 5 * time.Second
	return &e10Env{node: node, dialer: dialer, client: client, loid: loid}, nil
}

// e10Drive runs e10Callers closed-loop goroutines for calls each against
// env, erroring on any failed or short echo.
func e10Drive(env *e10Env, calls int) error {
	payload := bytes.Repeat([]byte{0xA5}, e10Payload)
	var wg sync.WaitGroup
	errCh := make(chan error, e10Callers)
	for w := 0; w < e10Callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				out, err := env.client.Invoke(context.Background(), env.loid, "echo", payload)
				if err != nil {
					errCh <- err
					return
				}
				if len(out) != e10Payload {
					errCh <- fmt.Errorf("echo returned %d bytes, want %d", len(out), e10Payload)
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

// e10AllocsPerOp measures whole-process allocations per sequential invoke:
// the runtime.MemStats.Mallocs delta across client, transport goroutines,
// and server, since all live in this process. testing.AllocsPerRun reads the
// same process-wide counter; this harness variant exists because it runs
// outside a test binary.
func e10AllocsPerOp(env *e10Env) (float64, error) {
	payload := bytes.Repeat([]byte{0x5A}, e10Payload)
	call := func() error {
		out, err := env.client.Invoke(context.Background(), env.loid, "echo", payload)
		if err != nil {
			return err
		}
		if len(out) != e10Payload {
			return fmt.Errorf("echo returned %d bytes", len(out))
		}
		return nil
	}
	for i := 0; i < 200; i++ { // warm pools, caches, and connections
		if err := call(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < e10AllocCalls; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(e10AllocCalls), nil
}

// RunE10 exercises the TCP transport over real loopback: pooled frames,
// write coalescing, and connection striping. The paper's performance study
// is about mechanism overhead, so the substrate must not dominate it; E10
// checks that pipelined load (64 concurrent callers) actually coalesces
// frames into shared flushes and spreads over the configured stripes, and
// reports the throughput and per-invoke allocations it measured.
func RunE10() (*Report, error) {
	env, err := e10Setup("e10")
	if err != nil {
		return nil, err
	}
	defer env.close()

	if err := e10Drive(env, e10WarmupPerCaller); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	runtime.GC() // collect setup garbage outside the timed region
	start := time.Now()
	if err := e10Drive(env, e10CallsPerCaller); err != nil {
		return nil, fmt.Errorf("pipelined load: %w", err)
	}
	ops := float64(e10Callers*e10CallsPerCaller) / time.Since(start).Seconds()
	allocs, err := e10AllocsPerOp(env)
	if err != nil {
		return nil, fmt.Errorf("allocs: %w", err)
	}
	st := env.dialer.Stats()

	table := metrics.NewTable(
		"E10 — TCP transport: pooled frames, write coalescing, striping (loopback, real time)",
		"metric", "value")
	table.AddRow(fmt.Sprintf("pipelined throughput, %d callers (ops/s)", e10Callers), fmt.Sprintf("%.0f", ops))
	table.AddRow("single-call invoke (allocs/op, whole process)", fmt.Sprintf("%.1f", allocs))
	table.AddRow("endpoint connections", fmt.Sprintf("%d stripes", st.OpenConns))
	table.AddRow("write batching (frames/flush ×100)", fmt.Sprintf("%d", batchX100(st.BatchedFrames, st.BatchFlushes)))

	return &Report{
		ID:    "E10",
		Title: "TCP transport: pooled frames, write coalescing, connection striping",
		Table: table,
		Notes: []string{
			fmt.Sprintf("throughput: one run of %d closed-loop callers x %d calls, %d-byte echo over TCP loopback (informational; the benchmark/ rpc_pipelined workload is the admissible number)",
				e10Callers, e10CallsPerCaller, e10Payload),
			fmt.Sprintf("allocs/op: whole-process runtime.MemStats.Mallocs delta over %d sequential invokes (covers both wire directions)", e10AllocCalls),
		},
		Checks: []Check{
			check("requests actually coalesce (avg batch > 1 frame/flush)",
				st.BatchFlushes > 0 && st.BatchedFrames > st.BatchFlushes,
				"%d frames over %d flushes", st.BatchedFrames, st.BatchFlushes),
			check(fmt.Sprintf("dialer opened %d stripes to the endpoint", e10Stripes),
				st.OpenConns == e10Stripes, "OpenConns = %d", st.OpenConns),
		},
	}, nil
}

// batchX100 returns frames-per-flush scaled by 100.
func batchX100(frames, flushes uint64) uint64 {
	if flushes == 0 {
		return 0
	}
	return frames * 100 / flushes
}
