package godcdo_test

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
	"godcdo/internal/workload"
)

// raceEnabled is set by race_test.go when the race detector is on; its
// instrumentation allocates, so allocation budgets mean nothing under it.
var raceEnabled bool

// inprocInvoke hosts a generated 20-function DCDO on one inproc node and
// returns a call of one of its leaves from a second node's client. o, when
// non-nil, is installed on both nodes. withPolicy attaches the default
// DistributionPolicy to the binding and invokes idempotently, which is the
// path that consults it. Both nodes are closed when tb finishes.
func inprocInvoke(tb testing.TB, prefix string, o *obs.Obs, withPolicy bool) func() error {
	tb.Helper()
	agent := naming.NewAgent(vclock.Real{})
	net := transport.NewInprocNetwork()
	newNode := func(role string) *legion.Node {
		node, err := legion.NewNode(legion.NodeConfig{Name: prefix + "-" + role, Agent: agent, Inproc: net, Obs: o})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = node.Close() })
		return node
	}
	server, client := newNode("server"), newNode("client")
	obj, _ := buildDCDO(tb, registry.New(), workload.Spec{Prefix: prefix, Functions: 20, Components: 2}, 1)
	loid := obj.LOID()
	if _, err := server.HostObject(loid, obj); err != nil {
		tb.Fatal(err)
	}
	if withPolicy {
		agent.RegisterPolicy(loid, policy.Default())
	}
	target := workload.LeafName(prefix, 0, 0)
	invoke := client.Client().Invoke
	if withPolicy {
		invoke = client.Client().InvokeIdempotent
	}
	return func() error {
		_, err := invoke(context.Background(), loid, target, nil)
		return err
	}
}

// unsampledObs traces at a sample rate low enough that no trace in any
// plausible run is kept, with the flight recorder armed: every call takes
// the unsampled path.
func unsampledObs() *obs.Obs {
	return obs.NewWithOptions(obs.Options{
		SampleRate:      1e-9,
		FlightCapacity:  obs.DefaultFlightCapacity,
		FlightThreshold: obs.DefaultFlightThreshold,
	})
}

// deltaSource returns a state shaped like a replicated counter object — a
// counter beside a 4 KiB resident value — and a generation after which only
// the counter changed.
func deltaSource() (*objstate.State, uint64) {
	st := objstate.New()
	st.Set("counter", make([]byte, 8))
	st.Set("blob", make([]byte, 4096))
	base := st.Generation()
	st.Set("counter", []byte{1, 0, 0, 0, 0, 0, 0, 0})
	return st, base
}

// TestAllocBudgets holds the hot paths to their allocation ceilings.
// testing.AllocsPerRun reads the process-wide MemStats.Mallocs, exactly as
// -benchmem does, so client, transport goroutines and server all count.
//
//   - tracing off: the obs layer is zero-cost when disabled;
//   - unsampled: at 1% sampling 99% of calls take this path, so it stays
//     near the tracing-off cost;
//   - encode / decode / framing / TCP invoke: the pooled-frame transport's
//     wins. A frame round trip over bufio allocates nothing; a request
//     decode allocates nothing either, since Target and Method come from
//     the wire package's intern table;
//   - TCP invoke (1): the detached response payload, which is the
//     caller's result. Both of the client's envelopes are pooled, the
//     response released once its payload is taken, and the server serves
//     the call on a parked handler goroutine, so it starts none. A DCDO
//     over TCP (2) adds the DFM's per-call release closure;
//   - unreplicated: a degree-1 object never constructs a Replica;
//   - default policy: the policy plane costs a nil check and a comparison;
//   - delta append / apply (0): a backup's state delta encoded into a
//     buffer kept across shipments, and applied over keys the receiver
//     holds, overwriting their values in place;
//   - 16-call batch (1): the detached response run, which the 16 results
//     alias, the same one allocation a single call pays. Both ends decode
//     their batch run into pooled storage (DESIGN.md "Batched invoke");
//   - replicated write (2): a degree-3 inproc bump, its delta shipped to
//     both backups from one reused frame and applied in place, each backup
//     acking with an empty payload (DESIGN.md "Replicated write ledger"
//     names each allocation left);
//   - backup read (1): an idempotent read on a backup-ok LOID, which the
//     client spreads over the primary and, wrapped in a pooled repl.read
//     payload, the two backups (1500 runs, so each member serves a third).
//
// Every budget is its measured count, so any new allocation on a measured
// path fails the test.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	env := &wire.Envelope{Kind: wire.KindRequest, ID: 42, Target: "loid:1.2.3", Method: "price", Payload: make([]byte, 256)}
	encoded := env.Encode()
	for _, tc := range []struct {
		name   string
		budget float64
		runs   int
		setup  func(t *testing.T) func() error
	}{
		{"tracing-off", 1, 2000, func(t *testing.T) func() error { return inprocInvoke(t, "obsoff", nil, false) }},
		{"unsampled", 1, 2000, func(t *testing.T) func() error { return inprocInvoke(t, "obsuns", unsampledObs(), false) }},
		{"wire-encode", 1, 2000, func(t *testing.T) func() error {
			return func() error { env.Encode(); return nil }
		}},
		{"wire-decode", 0, 2000, func(t *testing.T) func() error {
			return func() error { _, err := wire.DecodeEnvelope(encoded); return err }
		}},
		{"wire-decode-pooled", 0, 2000, func(t *testing.T) func() error {
			return func() error {
				ev, err := wire.DecodeEnvelopePooled(encoded)
				wire.PutEnvelope(ev)
				return err
			}
		}},
		{"frame-roundtrip", 0, 2000, func(t *testing.T) func() error {
			var net bytes.Buffer
			bw, br := bufio.NewWriter(&net), bufio.NewReader(&net)
			return func() error {
				if err := wire.WriteFrameBuffered(bw, encoded); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				frame, err := wire.ReadFramePooled(br)
				wire.PutBuf(frame)
				return err
			}
		}},
		{"tcp-invoke", 1, 1000, func(t *testing.T) func() error {
			client, loid := tcpEchoClient(t, 4, legion.NodeConfig{Name: "alloc-tcp"})
			payload := make([]byte, 64)
			return func() error { _, err := client.Invoke(context.Background(), loid, "echo", payload); return err }
		}},
		{"dcdo-tcp", 2, 1000, func(t *testing.T) func() error { return tcpDCDOEcho(t) }},
		{"unreplicated", 1, 2000, func(t *testing.T) func() error { return inprocInvoke(t, "reploff", nil, false) }},
		{"default-policy", 1, 2000, func(t *testing.T) func() error { return inprocInvoke(t, "polbench", nil, true) }},
		{"delta-append", 0, 2000, func(t *testing.T) func() error {
			st, base := deltaSource()
			buf, _, _ := st.AppendDelta(nil, 0, true)
			return func() error { buf, _, _ = st.AppendDelta(buf[:0], base, false); return nil }
		}},
		{"delta-apply", 0, 2000, func(t *testing.T) func() error {
			st, base := deltaSource()
			framed, _, _ := st.AppendDelta(nil, base, false)
			delta, err := wire.NewDecoder(framed).Bytes()
			if err != nil {
				t.Fatal(err)
			}
			dst, _ := deltaSource()
			val := make([]byte, 8)
			return func() error { dst.Set("counter", val); return dst.ApplyDelta(delta) }
		}},
		{"batch-16", 1, 300, func(t *testing.T) func() error { return batchInvoke(t, 16) }},
		{"repl-write", 2, 1000, func(t *testing.T) func() error {
			g := newReplGroup(t, "allocw")
			return func() error { return g.invoke("bump") }
		}},
		{"backup-read", 1, 1500, func(t *testing.T) func() error { return newReplGroup(t, "allocr").backupReads() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := tc.setup(t)
			for i := 0; i < 100; i++ { // warm pools, caches and connections
				if err := call(); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			got := testing.AllocsPerRun(tc.runs, func() {
				if e := call(); e != nil && err == nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > tc.budget {
				t.Fatalf("%s: %.0f allocs/op, budget %.0f", tc.name, got, tc.budget)
			}
			t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, tc.budget)
		})
	}
}
