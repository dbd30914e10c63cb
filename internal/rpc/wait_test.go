package rpc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
)

// waitEnv binds an object on n1, partitions n1, and hosts the object on n2
// too, so publishing n2 is the whole failover. The client's policy is E13's:
// two attempts, sixteen rebinds, 1–4 ms backoff.
func waitEnv(t *testing.T, maxRebinds int) (*testEnv, naming.LOID, string) {
	t.Helper()
	env := newTestEnv(t, "n1")
	disp2 := NewDispatcher()
	srv2, err := env.net.Listen("n2", disp2)
	if err != nil {
		t.Fatal(err)
	}
	loid := naming.LOID{Instance: 19}
	env.host(loid, echoObject())
	disp2.Host(loid, ObjectFunc(func(method string, args []byte) ([]byte, error) {
		return append([]byte("n2:"), args...), nil
	}))
	faults := transport.NewFaults(19)
	faults.Partition(env.server.Endpoint())
	env.client.dialer = transport.NewFaultDialer(env.net.Dialer(), faults)
	env.client.Retry = RetryPolicy{CallTimeout: time.Second, MaxAttempts: 2, MaxRebinds: maxRebinds,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
	return env, loid, srv2.Endpoint()
}

// A call whose endpoint is partitioned keeps asking the agent, backing off,
// until the binding moves, and then succeeds on the new endpoint: after the
// first safe failure, failures against the same binding spend rebinds, not
// the two attempts.
func TestSafeFailureWaitsForTheBinding(t *testing.T) {
	env, loid, moved := waitEnv(t, 16)
	published := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		env.agent.Register(loid, naming.Address{Endpoint: moved})
		close(published)
	}()

	out, err := env.client.Invoke(context.Background(), loid, "debit", []byte("7"))
	<-published
	if err != nil {
		t.Fatalf("invoke across the failover: %v", err)
	}
	if string(out) != "n2:7" {
		t.Fatalf("out = %q, want n2:7 from the new endpoint", out)
	}
	st := env.client.Stats()
	if st.SafeFailures < 3 || st.Backoffs < 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want several safe failures waited out with backoff", st)
	}
}

// A binding that never moves ends the wait once MaxRebinds is spent: one
// attempt, then MaxRebinds waits, then one more wait, which is an attempt
// past MaxAttempts and ends the call.
func TestWaitForBindingEndsAtMaxRebinds(t *testing.T) {
	env, loid, _ := waitEnv(t, 3)

	_, err := env.client.Invoke(context.Background(), loid, "debit", []byte("7"))
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want the partition's ErrUnreachable", err)
	}
	if !strings.Contains(err.Error(), "after 5 attempts and 3 rebinds") {
		t.Fatalf("err = %v, want it to end after 5 attempts and 3 rebinds", err)
	}
	st := env.client.Stats()
	if st.SafeFailures != 5 || st.Retries != 4 || st.Backoffs != 4 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 5 safe failures, 4 retries, 4 backoffs, 1 error", st)
	}
}

// A Budget does not lift the counts: past its rebinds, a wait spends the
// call's attempts, and the call ends at MaxAttempts long before the budget.
func TestWaitWithBudgetEndsAtMaxAttempts(t *testing.T) {
	env, loid, _ := waitEnv(t, 1)
	env.client.Retry.MaxAttempts, env.client.Retry.Budget = 4, 10*time.Second

	_, err := env.client.Invoke(context.Background(), loid, "debit", []byte("7"))
	if errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want the partition's ErrUnreachable", err)
	}
	if !strings.Contains(err.Error(), "after 4 attempts and 1 rebinds") {
		t.Fatalf("err = %v, want it to end after 4 attempts and 1 rebinds", err)
	}
	if st := env.client.Stats(); st.SafeFailures != 4 || st.Retries != 3 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 4 safe failures, 3 retries, 1 error", st)
	}
}
