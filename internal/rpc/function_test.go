package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
)

var (
	testRead  = Function[string, uint64](testLen)
	testWrite = Function[string, uint64]{Name: "test.write", Args: testLen.Args, Result: testLen.Result}
)

// funcCaller is the containing object a body sees: CallInternal runs the
// named function of its table.
type funcCaller map[string]registry.Func

func (c funcCaller) CallInternal(name string, args []byte) ([]byte, error) {
	f, ok := c[name]
	if !ok {
		return nil, ErrNoSuchFunction
	}
	return f(c, args)
}

func (funcCaller) State() *objstate.State { return nil }

// A declared body refuses a payload its Args codec cannot decode before it
// runs, and an intra-object call through the declaration round-trips.
func TestFunctionBodyAndInternalCall(t *testing.T) {
	var ran atomic.Int64
	c := funcCaller{testRead.Name: testRead.Func(func(_ registry.Caller, s string) (uint64, error) {
		ran.Add(1)
		return uint64(len(s)), nil
	})}
	if n, err := testRead.CallInternal(c, "hello"); err != nil || n != 5 {
		t.Fatalf("CallInternal = %d, %v; want 5", n, err)
	}
	for _, bad := range [][]byte{nil, {9}} {
		if _, err := c[testRead.Name](c, bad); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("payload %x: err = %v, want ErrBadRequest", bad, err)
		}
	}
	if ran.Load() != 1 {
		t.Fatalf("body ran %d times, want 1", ran.Load())
	}
	if _, err := testWrite.CallInternal(c, "x"); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("undeclared callee: err = %v, want ErrNoSuchFunction", err)
	}
}

// An idempotent function's call takes InvokeIdempotent's route, backup
// reads included; any other takes Invoke's, to the primary only.
func TestFunctionCallRoutesByDeclaration(t *testing.T) {
	env := newTestEnv(t, "primary")
	backupDisp := NewDispatcher()
	backup, err := env.net.Listen("backup", backupDisp)
	if err != nil {
		t.Fatal(err)
	}
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 3}
	answer := ObjectFunc(func(string, []byte) ([]byte, error) { return testLen.Result.Encode(3), nil })
	env.disp.Host(loid, answer)
	var backupCalls atomic.Int64
	backupDisp.Host(loid, ObjectFunc(func(m string, a []byte) ([]byte, error) {
		backupCalls.Add(1)
		return answer(m, a)
	}))
	env.agent.RegisterSet(loid, naming.ReplicaSet{Primary: env.server.Endpoint(), Backups: []string{backup.Endpoint()}})
	env.agent.RegisterPolicy(loid, policy.DistributionPolicy{Degree: 2,
		ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual})

	ctx := context.Background()
	calls := func(f Function[string, uint64]) (idempotent uint64) {
		before := env.client.Stats()
		for i := 0; i < 8; i++ {
			if n, err := f.Call(ctx, env.client, loid, "abc"); err != nil || n != 3 {
				t.Fatalf("%s: Call = %d, %v; want 3", f.Name, n, err)
			}
		}
		return env.client.Stats().IdempotentCalls - before.IdempotentCalls
	}
	if got := calls(testWrite); got != 0 || backupCalls.Load() != 0 {
		t.Fatalf("non-idempotent calls: %d idempotent, %d reached the backup; want 0 and 0", got, backupCalls.Load())
	}
	if got := calls(testRead); got != 8 || backupCalls.Load() == 0 {
		t.Fatalf("idempotent calls: %d idempotent, %d reached the backup; want 8 and some", got, backupCalls.Load())
	}
}
