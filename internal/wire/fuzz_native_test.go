package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// Native fuzz targets (go test -fuzz), complementing the testing/quick
// properties in fuzz_test.go: the engine's coverage guidance digs far deeper
// into the varint/length-prefix state space than random bytes do. The
// Makefile's fuzz-smoke target runs these for a bounded time on every CI
// pass.

// FuzzDecodeEnvelope asserts DecodeEnvelope never panics and that every
// envelope it accepts re-encodes and decodes to the same identity fields.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Envelope{Kind: KindRequest, ID: 7, Target: "loid:1.2.3", Method: "get", Payload: []byte("hi")}).Encode())
	f.Add((&Envelope{Kind: KindError, ID: 9, Code: 404, ErrorMsg: "gone"}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		// Accepted envelopes must round-trip their identity.
		again, err := DecodeEnvelope(ev.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if again.Kind != ev.Kind || again.ID != ev.ID || again.Target != ev.Target || again.Method != ev.Method {
			t.Fatalf("round trip changed identity: %+v -> %+v", ev, again)
		}
	})
}

// FuzzFrameRoundTrip asserts the pooled frame path is byte-faithful: any
// payload written by WriteFrame must come back identical through
// ReadFramePooled, and releasing the pooled buffer must never corrupt a
// subsequent read. It also covers the batch envelope: the fuzz payload is
// decoded as a batch run (must never panic) and carried as a sub-payload
// through an encoded batch run (must survive identically).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("payload"))
	f.Add(bytes.Repeat([]byte{0xD7}, 600)) // magic-byte-dense, crosses a size class
	f.Add(AppendBatchHeader(nil, 3))       // lying batch count
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			if len(payload) > MaxFrameSize {
				return
			}
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFramePooled(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadFramePooled: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame changed in flight: %d bytes vs %d", len(got), len(payload))
		}
		// Release, then read a second frame through the pool: reuse must not
		// leak the first payload into the second.
		PutBuf(got)
		probe := []byte("probe-after-release")
		buf.Reset()
		if err := WriteFrame(&buf, probe); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFramePooled(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, probe) {
			t.Fatalf("pooled reuse corrupted frame: %q", again)
		}
		PutBuf(again)

		// Batch envelope coverage. Arbitrary bytes must never panic the
		// batch-run decoder (errors are fine).
		_, _ = DecodeBatchRun(payload, nil)

		// And a well-formed run carrying the fuzz payload must round-trip
		// through an outer batch envelope with full fidelity.
		if len(payload) > MaxFrameSize/2 {
			return
		}
		sub := Envelope{Kind: KindRequest, ID: 1, Target: "loid:f", Method: "fz", Payload: payload}
		run := AppendBatchHeader(nil, 2)
		var scratch []byte
		run, scratch = AppendBatchEntry(run, &sub, scratch)
		sub.ID, sub.Payload = 2, nil
		run, _ = AppendBatchEntry(run, &sub, scratch)
		outer := Envelope{Kind: KindBatchRequest, ID: 42, Payload: run}

		buf.Reset()
		if err := WriteFrame(&buf, outer.Encode()); err != nil {
			t.Fatalf("WriteFrame(batch): %v", err)
		}
		frame, err := ReadFramePooled(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadFramePooled(batch): %v", err)
		}
		dec, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("DecodeEnvelope(batch): %v", err)
		}
		if dec.Kind != KindBatchRequest || dec.ID != 42 {
			t.Fatalf("batch outer changed identity: %+v", dec)
		}
		subs, err := DecodeBatchRun(dec.Payload, nil)
		if err != nil {
			t.Fatalf("DecodeBatchRun(encoded run): %v", err)
		}
		if len(subs) != 2 || subs[0].ID != 1 || subs[1].ID != 2 || subs[0].Method != "fz" {
			t.Fatalf("batch subs changed identity: %+v", subs)
		}
		if !bytes.Equal(subs[0].Payload, payload) {
			t.Fatalf("batch sub payload changed in flight: %d bytes vs %d", len(subs[0].Payload), len(payload))
		}
		PutBuf(frame)
	})
}

// FuzzDecodeBatchRun asserts the batch-run decoder never panics, and that
// decoding into a dirty reused run, as a pooled run is, gives field for
// field the envelopes and the error decoding into nil gives: no stale
// entry, flag or metadata field shows through.
func FuzzDecodeBatchRun(f *testing.F) {
	sub := Envelope{Kind: KindRequest, ID: 1, Target: "loid:1.2.3", Method: "m", Payload: []byte("args"),
		TraceID: 7, SpanID: 8, Deadline: 1 << 40, TraceFlags: TraceFlagUnsampled}
	one := AppendBatchHeader(nil, 1)
	one, _ = AppendBatchEntry(one, &sub, nil)
	two := AppendBatchHeader(nil, 2)
	two, _ = AppendBatchEntry(two, &sub, nil)
	two, _ = AppendBatchEntry(two, &Envelope{Kind: KindError, ID: 2, Code: CodeInternal, ErrorMsg: "boom"}, nil)
	f.Add([]byte{})
	f.Add(AppendBatchHeader(nil, 0))
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(AppendBatchHeader(nil, 3)) // lying count
	stale := Envelope{Kind: KindError, ID: 99, Target: "stale", Method: "stale", Code: CodeInternal,
		ErrorMsg: "stale", Payload: []byte("stale"), TraceID: 1, SpanID: 2, Deadline: 3, TraceFlags: 4,
		pooled: true, payloadPooled: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := DecodeBatchRun(data, nil)
		check := func(how string, got []Envelope, err error) {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || len(got) != len(want) {
				t.Fatalf("%s: %d entries, %v; into nil: %d entries, %v", how, len(got), err, len(want), wantErr)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: entry %d = %+v; into nil %+v", how, i, got[i], want[i])
				}
			}
		}
		for _, size := range []int{1, 4, 64} {
			dirty := make([]Envelope, size)
			for i := range dirty {
				dirty[i] = stale
			}
			got, err := DecodeBatchRun(data, dirty[:0])
			check(fmt.Sprintf("into a dirty run of %d", size), got, err)
		}
		pooled, err := DecodeBatchRunPooled(data)
		if err != nil {
			// The pooled decode has already released its run.
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("pooled: %v; into nil: %v", err, wantErr)
			}
			return
		}
		check("pooled", pooled, err)
		PutBatchRun(pooled)
	})
}
