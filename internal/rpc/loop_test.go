package rpc

import (
	"context"
	"fmt"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
)

// A batch's retried sub-calls ride the next round's frame, not single
// calls: a 16-call batch whose first frame fails safe completes every
// sub-call in a second frame.
func TestSafeFrameFailureRetriesAsOneFrame(t *testing.T) {
	env := newTestEnv(t, "n1")
	loid := naming.LOID{Instance: 1}
	env.host(loid, echoObject())
	faults := transport.NewFaults(1)
	faults.SetEndpoint(env.server.Endpoint(), transport.FaultConfig{ResetBeforeWrite: 1, Budget: 1})
	env.client.dialer = transport.NewFaultDialer(env.net.Dialer(), faults)

	b := env.client.NewBatch()
	for i := 0; i < 16; i++ {
		b.Add(loid, "m", []byte{byte('a' + i)})
	}
	for i, r := range b.Invoke(context.Background()) {
		if want := fmt.Sprintf("m:%c", 'a'+i); r.Err != nil || string(r.Payload) != want {
			t.Fatalf("sub %d = %q, %v; want %q", i, r.Payload, r.Err, want)
		}
	}
	st := env.client.Stats()
	if st.Batches != 2 || st.Calls != 0 {
		t.Fatalf("%d frames and %d single calls, want 2 frames and none", st.Batches, st.Calls)
	}
	if st.SafeFailures != 16 || st.Retries != 16 || st.BatchFallbacks != 16 || st.CallsBatched != 16 {
		t.Fatalf("stats = %+v, want 16 safe failures, retries and fallbacks", st)
	}
}
