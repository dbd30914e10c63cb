package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/wire"
)

var testLen = Method[string, uint64]{Name: "test.len", Idempotent: true,
	Args: NewCodec((*wire.Encoder).PutString, (*wire.Decoder).String), Result: NewCodec((*wire.Encoder).PutUvarint, (*wire.Decoder).Uvarint)}

func TestMethodServesAndCalls(t *testing.T) {
	env := newTestEnv(t, "node")
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 1}
	var ran atomic.Int64
	env.host(loid, Serve(testLen.Handle(func(_ context.Context, s string) (uint64, error) {
		ran.Add(1)
		return uint64(len(s)), nil
	})))

	n, err := testLen.Call(context.Background(), env.client, loid, "hello")
	if err != nil || n != 5 {
		t.Fatalf("Call = %d, %v; want 5", n, err)
	}
	// A payload the Args codec refuses never reaches the handler.
	if _, err := env.client.Invoke(context.Background(), loid, testLen.Name, []byte{9}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated payload: err = %v, want ErrBadRequest", err)
	}
	if _, err := env.client.Invoke(context.Background(), loid, "test.bogus", nil); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("unknown name: err = %v, want ErrNoSuchFunction", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", ran.Load())
	}
}

// An idempotent declaration retries like InvokeIdempotent but never routes
// to a backup: backups serve dynamic functions only.
func TestMethodCallNeverRoutesToBackup(t *testing.T) {
	env := newTestEnv(t, "primary")
	backupDisp := NewDispatcher()
	backup, err := env.net.Listen("backup", backupDisp)
	if err != nil {
		t.Fatal(err)
	}
	loid := naming.LOID{Domain: 1, Class: 1, Instance: 2}
	env.disp.Host(loid, Serve(testLen.Handle(func(_ context.Context, s string) (uint64, error) {
		return uint64(len(s)), nil
	})))
	var backupCalls atomic.Int64
	backupDisp.Host(loid, ObjectFunc(func(string, []byte) ([]byte, error) {
		backupCalls.Add(1)
		return testLen.Result.Encode(0), nil
	}))
	env.agent.RegisterSet(loid, naming.ReplicaSet{Primary: env.server.Endpoint(), Backups: []string{backup.Endpoint()}})
	env.agent.RegisterPolicy(loid, policy.DistributionPolicy{Degree: 2,
		ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual})

	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if n, err := testLen.Call(ctx, env.client, loid, "abc"); err != nil || n != 3 {
			t.Fatalf("Call = %d, %v; want 3 from the primary", n, err)
		}
	}
	if backupCalls.Load() != 0 {
		t.Fatalf("Method.Call reached the backup %d times", backupCalls.Load())
	}
	for i := 0; i < 8; i++ {
		if _, err := env.client.InvokeIdempotent(ctx, loid, testLen.Name, testLen.Args.Encode("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if backupCalls.Load() == 0 {
		t.Fatal("InvokeIdempotent never routed a read to the backup")
	}
}

// TestUvarintCodecIsExact holds UvarintCodec.Decode to the bytes Encode
// writes: every encoding round-trips, and a payload with bytes after the
// uvarint, a non-minimal encoding, an overflowing one or an empty one is
// refused.
func TestUvarintCodecIsExact(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 63, ^uint64(0)} {
		if got, err := UvarintCodec.Decode(UvarintCodec.Encode(v)); err != nil || got != v {
			t.Errorf("round trip of %d = %d, %v", v, got, err)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{0x14, 0xff, 0xff},
		{0x14, 0x00},
		{0x80, 0x00},
		{0x94, 0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if v, err := UvarintCodec.Decode(bad); err == nil {
			t.Errorf("Decode(%x) = %d, want an error", bad, v)
		}
	}
}
