package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func buildRun(t *testing.T, subs []*Envelope) []byte {
	t.Helper()
	buf := AppendBatchHeader(nil, len(subs))
	var scratch []byte
	for _, sub := range subs {
		buf, scratch = AppendBatchEntry(buf, sub, scratch)
	}
	return buf
}

func TestBatchRunRoundTrip(t *testing.T) {
	subs := []*Envelope{
		{Kind: KindRequest, ID: 1, Target: "loid:1", Method: "echo", Payload: []byte("hello")},
		{Kind: KindRequest, ID: 2, Target: "loid:2", Method: "add", Payload: []byte{0, 1, 2, 0xDB}},
		{Kind: KindRequest, ID: 3, Target: "loid:3", Method: "get"},
	}
	run := buildRun(t, subs)

	got, err := DecodeBatchRun(run, nil)
	if err != nil {
		t.Fatalf("DecodeBatchRun: %v", err)
	}
	if len(got) != len(subs) {
		t.Fatalf("decoded %d subs, want %d", len(got), len(subs))
	}
	for i, want := range subs {
		g := &got[i]
		if g.Kind != want.Kind || g.ID != want.ID || g.Target != want.Target ||
			g.Method != want.Method || !bytes.Equal(g.Payload, want.Payload) {
			t.Fatalf("sub %d mismatch: got %+v want %+v", i, g, want)
		}
	}
}

func TestBatchRunRoundTripThroughEnvelope(t *testing.T) {
	// A batch run travels as the payload of an outer envelope carrying the
	// correlation ID and deadline; verify the full nesting round-trips.
	subs := []*Envelope{
		{Kind: KindRequest, ID: 1, Target: "loid:7", Method: "m", Payload: []byte("args")},
		{Kind: KindRequest, ID: 2, Target: "loid:8", Method: "n"},
	}
	outer := &Envelope{
		Kind:     KindBatchRequest,
		ID:       99,
		Payload:  buildRun(t, subs),
		Deadline: 1234567890,
	}
	dec, err := DecodeEnvelope(outer.Encode())
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if dec.Kind != KindBatchRequest || dec.ID != 99 || dec.Deadline != 1234567890 {
		t.Fatalf("outer mismatch: %+v", dec)
	}
	got, err := DecodeBatchRun(dec.Payload, nil)
	if err != nil {
		t.Fatalf("DecodeBatchRun: %v", err)
	}
	if len(got) != 2 || got[0].Target != "loid:7" || got[1].Method != "n" {
		t.Fatalf("subs mismatch: %+v", got)
	}
}

func TestBatchRunDecodeReusesDst(t *testing.T) {
	subs := []*Envelope{{Kind: KindRequest, ID: 1, Method: "a", Payload: []byte("x")}}
	run := buildRun(t, subs)
	// A reused dst slice with stale entries must be fully overwritten.
	dst := make([]Envelope, 0, 4)
	dst = append(dst, Envelope{Kind: KindError, Code: CodeInternal, ErrorMsg: "stale"})
	dst = dst[:0]
	got, err := DecodeBatchRun(run, dst)
	if err != nil {
		t.Fatalf("DecodeBatchRun: %v", err)
	}
	if got[0].Kind != KindRequest || got[0].Code != 0 || got[0].ErrorMsg != "" {
		t.Fatalf("stale fields survived reuse: %+v", got[0])
	}
}

func TestBatchRunRejectsOversizedCount(t *testing.T) {
	run := AppendBatchHeader(nil, MaxBatchCalls+1)
	if _, err := DecodeBatchRun(run, nil); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("want ErrBatchTooLarge, got %v", err)
	}
}

func TestBatchRunRejectsLyingCount(t *testing.T) {
	// A count claiming more entries than there are bytes must be rejected
	// up front (it protects decode from attacker-controlled growth).
	run := AppendBatchHeader(nil, 500)
	if _, err := DecodeBatchRun(run, nil); !errors.Is(err, ErrTruncatedEnvelope) {
		t.Fatalf("want ErrTruncatedEnvelope, got %v", err)
	}
}

func TestBatchRunTruncatedEntry(t *testing.T) {
	subs := []*Envelope{
		{Kind: KindRequest, ID: 1, Method: "a", Payload: []byte("0123456789")},
		{Kind: KindRequest, ID: 2, Method: "b", Payload: []byte("abcdefghij")},
	}
	run := buildRun(t, subs)
	for cut := 1; cut < len(run); cut++ {
		if _, err := DecodeBatchRun(run[:cut], nil); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(run))
		}
	}
}

func TestBatchEntrySizeHintCovers(t *testing.T) {
	sub := &Envelope{Kind: KindRequest, ID: 7, Target: "loid:42", Method: "echo",
		Payload: bytes.Repeat([]byte("p"), 300), Deadline: 1}
	before := AppendBatchHeader(nil, 1)
	after, _ := AppendBatchEntry(before, sub, nil)
	if grew := len(after) - len(before); grew > BatchEntrySizeHint(sub) {
		t.Fatalf("entry used %d bytes, hint promised ≤%d", grew, BatchEntrySizeHint(sub))
	}
}

func TestEnvelopePoolRecyclesOnlyPooled(t *testing.T) {
	// A plain envelope must never enter the pool.
	plain := &Envelope{Kind: KindResponse, ID: 1}
	PutEnvelope(plain) // must be a no-op
	if plain.Kind != KindResponse {
		t.Fatal("PutEnvelope reset a non-pooled envelope")
	}

	ev := GetEnvelope()
	ev.Kind = KindResponse
	ev.ID = 42
	ev.Payload = []byte("result")
	PutEnvelope(ev)
	if ev.Kind != 0 || ev.ID != 0 || ev.Payload != nil {
		t.Fatalf("pooled envelope not reset: %+v", ev)
	}
}

func TestEnvelopePoolReleasesMarkedPayload(t *testing.T) {
	ev := GetEnvelope()
	ev.Kind = KindBatchResponse
	ev.Payload = GetBuf(100)
	ev.MarkPayloadPooled()
	before := FramePoolStats()
	SetPoisonChecks(true)
	defer SetPoisonChecks(false)
	PutEnvelope(ev)
	// Poison mode quarantines on PutBuf, so the Poisoned delta proves the
	// payload really was routed back through the frame pool.
	if got := FramePoolStats().Poisoned; got != before.Poisoned+1 {
		t.Fatalf("marked payload not released: poisoned %d -> %d", before.Poisoned, got)
	}
}

// TestDecodeEnvelopePooled pins the server's request decode: the same fields
// as DecodeEnvelope, an envelope PutEnvelope recycles, and no envelope left
// over from a frame that fails to decode.
func TestDecodeEnvelopePooled(t *testing.T) {
	in := &Envelope{Kind: KindRequest, ID: 7, Target: "loid:1.2.3", Method: "get",
		Payload: []byte("args"), TraceID: 9, Deadline: 1 << 40}
	buf := in.Encode()
	want, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelopePooled(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.ID != want.ID || got.Target != want.Target ||
		got.Method != want.Method || !bytes.Equal(got.Payload, want.Payload) ||
		got.TraceID != want.TraceID || got.Deadline != want.Deadline {
		t.Fatalf("pooled decode = %+v, want %+v", got, want)
	}
	PutEnvelope(got)
	if got.Kind != 0 || got.ID != 0 || got.Target != "" || got.Payload != nil {
		t.Fatalf("pooled request not recycled: %+v", got)
	}
	if ev, err := DecodeEnvelopePooled(buf[:3]); err == nil || ev != nil {
		t.Fatalf("truncated frame: ev = %v, err = %v", ev, err)
	}
}

// TestPoisonedEnvelopeDoubleReleasePanics pins the envelope half of poison
// mode: a released envelope reads as poison instead of as a live call, and a
// second release — the bug that would hand one envelope to two calls —
// panics instead of silently re-pooling it.
func TestPoisonedEnvelopeDoubleReleasePanics(t *testing.T) {
	SetPoisonChecks(true)
	defer SetPoisonChecks(false)
	ev, err := DecodeEnvelopePooled((&Envelope{Kind: KindRequest, ID: 3, Method: "m"}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	PutEnvelope(ev)
	if ev.Kind != Kind(PoisonByte) || ev.ID == 3 || ev.Method != releasedMsg {
		t.Fatalf("released envelope not poisoned: %+v", ev)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	PutEnvelope(ev)
}

func TestDecodeBatchRunArbitraryBytesNeverPanics(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0x01},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		bytes.Repeat([]byte{0x02}, 64),
	}
	for i, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("input %d panicked: %v", i, r)
				}
			}()
			_, _ = DecodeBatchRun(in, nil)
		}()
	}
}

func BenchmarkBatchRunEncode16(b *testing.B) {
	subs := make([]*Envelope, 16)
	for i := range subs {
		subs[i] = &Envelope{Kind: KindRequest, ID: uint64(i + 1),
			Target: fmt.Sprintf("loid:%d", i), Method: "echo",
			Payload: bytes.Repeat([]byte("x"), 64)}
	}
	b.ReportAllocs()
	var buf, scratch []byte
	for i := 0; i < b.N; i++ {
		buf = AppendBatchHeader(buf[:0], len(subs))
		for _, sub := range subs {
			buf, scratch = AppendBatchEntry(buf, sub, scratch)
		}
	}
}

// TestDecodeBatchRunGrowsOnce pins DecodeBatchRun's growth: a run decoded
// into nil costs one allocation, sized by the header's count, and a run
// decoded into room enough costs none.
func TestDecodeBatchRunGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	subs := make([]*Envelope, 16)
	for i := range subs {
		subs[i] = &Envelope{Kind: KindResponse, ID: uint64(i + 1), Payload: []byte("result")}
	}
	run := buildRun(t, subs)
	var got []Envelope
	if n := testing.AllocsPerRun(100, func() { got, _ = DecodeBatchRun(run, nil) }); n != 1 {
		t.Fatalf("decoding 16 entries into nil: %.0f allocs, want 1", n)
	}
	if cap(got) < 16 {
		t.Fatalf("cap %d < 16", cap(got))
	}
	if n := testing.AllocsPerRun(100, func() { got, _ = DecodeBatchRun(run, got[:0]) }); n != 0 {
		t.Fatalf("decoding 16 entries into a run of cap %d: %.0f allocs, want 0", cap(got), n)
	}
}

// TestBatchRunPool pins the run pool: a steady stream of decodes and
// releases allocates nothing, and a run too big to keep goes to the GC.
func TestBatchRunPool(t *testing.T) {
	small := buildRun(t, []*Envelope{{Kind: KindResponse, ID: 1}, {Kind: KindResponse, ID: 2}})
	if !raceEnabled { // the race detector makes sync.Pool drop puts at random
		n := testing.AllocsPerRun(1000, func() {
			run, err := DecodeBatchRunPooled(small)
			if err != nil {
				t.Fatal(err)
			}
			PutBatchRun(run)
		})
		if n != 0 {
			t.Fatalf("pooled decode and release: %.0f allocs, want 0", n)
		}
	}
	big := make([]*Envelope, maxPooledRun+1)
	for i := range big {
		big[i] = &Envelope{Kind: KindResponse, ID: uint64(i + 1)}
	}
	run, err := DecodeBatchRunPooled(buildRun(t, big))
	if err != nil {
		t.Fatal(err)
	}
	PutBatchRun(run)
	run, err = DecodeBatchRunPooled(small)
	if err != nil {
		t.Fatal(err)
	}
	defer PutBatchRun(run)
	if cap(run) > maxPooledRun {
		t.Fatalf("the pool kept a run of cap %d > %d", cap(run), maxPooledRun)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool
