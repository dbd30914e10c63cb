package wire

import "sync"

// Envelope pooling for the TCP server. Every dispatched call used to
// allocate a request envelope when its frame was decoded and a response
// envelope that died as soon as the transport encoded it; pooling both
// removes those per-call allocations the same way the frame pool removed the
// per-frame one.
//
// The contract is deliberately asymmetric so it is impossible to corrupt an
// envelope by handing it to the wrong component:
//
//   - Only envelopes obtained from GetEnvelope or DecodeEnvelopePooled are
//     marked recyclable. PutEnvelope on anything else (a stack envelope, a
//     DecodeEnvelope result, transport.Dropped) is a no-op.
//   - Only the TCP server recycles: each request envelope it decoded, and
//     each response after it has been fully encoded into its outgoing frame.
//     The in-process transport hands the handler's envelope straight to the
//     caller and never recycles it, so pooled envelopes returned over inproc
//     simply fall to the GC (a pool miss, never an aliasing bug).

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

// releasedMsg fills the string fields of an envelope quarantined while
// poison checks are on; together with a PoisonByte kind it also marks the
// envelope as already released.
const releasedMsg = "wire: envelope read after release"

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
	if poison && ev.Kind == Kind(PoisonByte) && ev.ErrorMsg == releasedMsg {
		panic("wire: envelope released twice")
	}
	if ev.payloadPooled && ev.Payload != nil {
		PutBuf(ev.Payload)
	}
	if poison {
		*ev = Envelope{Kind: Kind(PoisonByte), ID: 1<<64 - 1, Target: releasedMsg,
			Method: releasedMsg, ErrorMsg: releasedMsg, pooled: true}
		return
	}
	*ev = Envelope{}
	envPool.Put(ev)
}
