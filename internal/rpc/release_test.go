package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
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
