package wire

import (
	"sync"
	"sync/atomic"
)

// Envelope pooling. Every call used to allocate a request envelope on each
// side of the wire and a response envelope that died as soon as the
// transport encoded it; pooling them removes those per-call allocations the
// same way the frame pool removed the per-frame one.
//
// The contract is deliberately asymmetric so it is impossible to corrupt an
// envelope by handing it to the wrong component:
//
//   - Only envelopes obtained from GetEnvelope or DecodeEnvelopePooled are
//     marked recyclable. PutEnvelope on anything else (a stack envelope, a
//     DecodeEnvelope result, transport.Dropped) is a no-op.
//   - Two components recycle. The TCP server recycles each request envelope
//     it decoded, and each response after it has been fully encoded into its
//     outgoing frame. The callers that send requests (rpc.Client and
//     rpc.DirectCall) recycle each request envelope as soon as
//     transport.Dialer.Call returns, which the Dialer contract allows: by
//     then the dialer holds neither the envelope nor its payload.
//     transport.ReleaseRequest skips a response that is the request itself,
//     which an in-process handler may return.
//   - The same callers recycle each response once they have taken its
//     payload with TakePayload: the TCP dialer's read loop decodes it into a
//     pooled envelope, and the in-process dialer hands over the handler's
//     own pooled response. A response that is the request itself is then
//     released once, by this step alone. A dialer recycles each response
//     it discards instead of returning it.

var envPool = sync.Pool{New: func() any { return new(Envelope) }}

// GetEnvelope returns a zeroed envelope that PutEnvelope can recycle. The
// caller owns it until it hands the envelope off (e.g. returns it from a
// transport.Handler); the component that consumes it decides whether to
// recycle.
func GetEnvelope() *Envelope {
	ev := envPool.Get().(*Envelope)
	ev.pooled = true
	return ev
}

// DecodeEnvelopePooled is DecodeEnvelope into an envelope from the pool: the
// caller owns the result and recycles it with PutEnvelope once nothing reads
// it any more. Payload aliases buf, as with DecodeEnvelope. On error nothing
// is left to release.
func DecodeEnvelopePooled(buf []byte) (*Envelope, error) {
	ev := GetEnvelope()
	if err := ev.decodeFrom(buf); err != nil {
		PutEnvelope(ev)
		return nil, err
	}
	return ev, nil
}

// MarkPayloadPooled records that ev.Payload is a frame-pool buffer
// (GetBuf) whose ownership travels with the envelope: PutEnvelope releases
// it via PutBuf when the envelope is recycled.
func (ev *Envelope) MarkPayloadPooled() { ev.payloadPooled = true }

// TakePayload returns ev.Payload and makes it the caller's: a frame-pool
// payload marked via MarkPayloadPooled is no longer released with ev, so the
// caller may keep it, and slices of it, after PutEnvelope(ev).
func (ev *Envelope) TakePayload() []byte {
	ev.payloadPooled = false
	return ev.Payload
}

// releasedMsg fills the string fields of an envelope quarantined while
// poison checks are on; together with a PoisonByte kind it also marks the
// envelope as already released.
const releasedMsg = "wire: envelope read after release"

// poisoned is what a released envelope, or each entry of a released batch
// run, holds while poison checks are on.
var poisoned = Envelope{Kind: Kind(PoisonByte), ID: 1<<64 - 1, Target: releasedMsg,
	Method: releasedMsg, ErrorMsg: releasedMsg}

// released reports whether ev holds the poison of a release.
func (ev *Envelope) released() bool {
	return ev.Kind == Kind(PoisonByte) && ev.ErrorMsg == releasedMsg
}

// PutEnvelope recycles an envelope previously returned by GetEnvelope or
// DecodeEnvelopePooled, along with any frame-pool payload marked via
// MarkPayloadPooled. Envelopes from any other source are left for the GC, so
// calling this on every response is always safe. The caller must not touch
// ev (or a payload it owned) afterwards, and must release it only once.
//
// While poison checks are on (SetPoisonChecks) the envelope is quarantined
// instead: its fields are overwritten with recognisable poison and it never
// re-enters the pool, and releasing it a second time panics.
func PutEnvelope(ev *Envelope) {
	if ev == nil || !ev.pooled {
		return
	}
	poison := poisonChecks.Load()
	if poison && ev.released() {
		panic("wire: envelope released twice")
	}
	if ev.payloadPooled && ev.Payload != nil {
		PutBuf(ev.Payload)
	}
	if poison {
		*ev = poisoned
		ev.pooled = true
		return
	}
	*ev = Envelope{}
	envPool.Put(ev)
}

// Batch-run pooling. Both ends of a batch frame decode its run of
// sub-envelopes into a []Envelope that dies with the frame; decoding into a
// run from a pool instead saves its growth, which is most of a batch's
// allocations. The caller owns a run from DecodeBatchRunPooled until it
// hands it back with PutBatchRun, once, whole (the slice it was given, not a
// reslice of it). Nothing the caller keeps may point into the run itself:
// it may keep a sub-envelope's Payload (which aliases the decoded buffer, as
// with DecodeBatchRun), Target or ErrorMsg, never &run[i]. PutBatchRun
// clears every entry before the run goes back to the pool, so a pooled run
// holds on to no frame, payload or string.

// maxPooledRun is the largest run capacity the pool keeps; a bigger run
// (a batch of more sub-calls than a frame usually carries) goes to the GC.
const maxPooledRun = 64

// runBox boxes a run so PutBatchRun does not allocate an interface header
// on every release, as poolBuf does for frames.
type runBox struct{ run []Envelope }

var (
	runPool    sync.Pool // *runBox holding a released run
	runBoxPool = sync.Pool{New: func() any { return new(runBox) }}
	runsHeld   atomic.Int64
)

// DecodeBatchRunPooled is DecodeBatchRun into a run from the pool: the
// caller owns the result and releases it with PutBatchRun once nothing reads
// its entries any more. Payloads alias buf, as with DecodeBatchRun. On error
// nothing is left to release.
func DecodeBatchRunPooled(buf []byte) ([]Envelope, error) {
	var run []Envelope
	if v := runPool.Get(); v != nil {
		box := v.(*runBox)
		run, box.run = box.run, nil
		runBoxPool.Put(box)
	}
	runsHeld.Add(1)
	run, err := DecodeBatchRun(buf, run)
	if err != nil {
		PutBatchRun(run)
		return nil, err
	}
	return run, nil
}

// PutBatchRun clears a run returned by DecodeBatchRunPooled and recycles
// it. The caller must not touch the run afterwards, and must release it only
// once.
//
// While poison checks are on (SetPoisonChecks) the run is quarantined
// instead: every entry is overwritten with the poison PutEnvelope leaves, it
// never re-enters the pool, and releasing it a second time panics. A run
// with no capacity holds nothing to poison.
func PutBatchRun(run []Envelope) {
	runsHeld.Add(-1)
	all := run[:cap(run)]
	if len(all) == 0 {
		return
	}
	if poisonChecks.Load() {
		if all[0].released() {
			panic("wire: batch run released twice")
		}
		for i := range all {
			all[i] = poisoned
		}
		return
	}
	clear(all)
	if len(all) > maxPooledRun {
		return
	}
	box := runBoxPool.Get().(*runBox)
	box.run = all[:0]
	runPool.Put(box)
}
