package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestBorrowedPayloadLateReleasePoisons exercises the frame-pool ownership
// contract from the borrower's side, the way a handler that keeps its args
// past return would break it: decode a payload that aliases a pooled frame, release the
// frame, then read the alias late. With poison checks on, the late reader
// must observe the deterministic PoisonByte fill and the pool must count the
// quarantine — a recognisable diagnostic instead of silent corruption from
// whatever traffic recycled the buffer. Runs under -race in `make race`; the
// handoff is through a channel so the only badness is the semantic
// use-after-release the poison mode exists to catch.
func TestBorrowedPayloadLateReleasePoisons(t *testing.T) {
	SetPoisonChecks(true)
	defer SetPoisonChecks(false)

	ev := &Envelope{Kind: KindRequest, ID: 9, Target: "loid:9", Method: "put",
		Payload: bytes.Repeat([]byte("A"), 600)}
	var net bytes.Buffer
	if err := WriteFrame(&net, ev.Encode()); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	frame, err := ReadFramePooled(bufio.NewReader(&net))
	if err != nil {
		t.Fatalf("ReadFramePooled: %v", err)
	}
	dec, err := DecodeEnvelope(frame)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	borrowed := dec.Payload // aliases frame — the borrow

	// A second goroutine holds the borrow across the release, as a handler
	// that stashed its args would.
	released := make(chan struct{})
	observed := make(chan []byte)
	go func() {
		<-released
		snapshot := make([]byte, len(borrowed))
		copy(snapshot, borrowed) // late read: after PutBuf
		observed <- snapshot
	}()

	before := FramePoolStats().Poisoned
	PutBuf(frame) // released while the borrow is still live — the bug under test
	close(released)
	late := <-observed

	if got := FramePoolStats().Poisoned; got != before+1 {
		t.Fatalf("poisoned counter %d -> %d, want +1", before, got)
	}
	for i, b := range late {
		if b != PoisonByte {
			t.Fatalf("late read byte %d = %#x, want poison %#x — release leaked live data", i, b, PoisonByte)
		}
	}

	// The quarantined buffer must never come back: a GetBuf of the same
	// class may hit on some *other* pooled buffer, but never on this one.
	fresh := GetBuf(len(frame))
	if &fresh[0] == &frame[0] {
		t.Fatal("pool handed the quarantined buffer back out")
	}
	PutBuf(fresh)
}

// TestPoisonChecksOffPoolsNormally pins that the diagnostic mode is opt-in:
// with poison checks off, release/reuse works as before.
func TestPoisonChecksOffPoolsNormally(t *testing.T) {
	if PoisonChecksEnabled() {
		t.Fatal("poison checks unexpectedly enabled")
	}
	buf := GetBuf(600)
	before := FramePoolStats()
	PutBuf(buf)
	if got := FramePoolStats().Poisoned; got != before.Poisoned {
		t.Fatalf("poisoned counter moved with checks off: %d -> %d", before.Poisoned, got)
	}
}
