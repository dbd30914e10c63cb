package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind discriminates the envelope types carried between nodes.
type Kind uint8

// Envelope kinds. Values are part of the wire contract; append only.
const (
	KindRequest Kind = iota + 1
	KindResponse
	KindError
	KindEvent
	// KindBatchRequest carries a run of independent sub-requests in Payload
	// (see batch.go). The outer envelope owns correlation (ID) and metadata
	// (deadline, trace context); sub-envelopes are ordinary KindRequest
	// envelopes, length-prefixed so a decoder can walk the run. A peer
	// that does not know a kind rejects it with CodeBadRequest before
	// dispatching anything; the client treats that as terminal, not as a
	// cue to fall back per call.
	KindBatchRequest
	// KindBatchResponse carries the per-sub-call results for a
	// KindBatchRequest, one sub-envelope (KindResponse or KindError) per
	// sub-request, in request order.
	KindBatchResponse
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindError:
		return "error"
	case KindEvent:
		return "event"
	case KindBatchRequest:
		return "batch-request"
	case KindBatchResponse:
		return "batch-response"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Well-known error codes carried by KindError envelopes. These model the
// failure classes the paper requires clients to handle: in particular
// CodeNoSuchFunction is the on-the-wire manifestation of the disappearing
// exported function problem (§3.1).
const (
	CodeInternal       uint64 = 1
	CodeNoSuchObject   uint64 = 2
	CodeNoSuchFunction uint64 = 3
	CodeDisabled       uint64 = 4
	CodeStaleBinding   uint64 = 5
	CodeBadRequest     uint64 = 6
	CodeUnavailable    uint64 = 7
	// CodeOverloaded is returned when the server sheds a request at
	// admission: the dispatcher's concurrency limit and queue are full. The
	// request was never dispatched, so retrying after backoff is always safe.
	CodeOverloaded uint64 = 8
	// CodeExpired is returned when the request's propagated deadline had
	// already passed on arrival (rejected before dispatch) or expired while
	// the call was queued or between execution stages.
	CodeExpired uint64 = 9
	// CodeNotPrimary is returned by a backup replica asked to execute a
	// dynamic function: only the group's primary serves application traffic.
	// The replica set has changed, so clients drop the whole cached binding
	// and re-resolve (the agent knows the new primary).
	CodeNotPrimary uint64 = 10
	// CodeFenced is returned when a message carries a group epoch older than
	// the receiver's: the sender is a deposed primary (object replica or
	// manager) that must stop acting for the group.
	CodeFenced uint64 = 11
)

// ErrTruncatedEnvelope is returned when an envelope cannot be fully decoded.
var ErrTruncatedEnvelope = errors.New("wire: truncated envelope")

// Metadata tags used in the envelope's optional trailing metadata section.
// Tags are part of the wire contract; append only. Decoders skip unknown
// tags, so new tags may be introduced without breaking old peers.
const (
	metaTraceID    uint64 = 1
	metaSpanID     uint64 = 2
	metaDeadline   uint64 = 3
	metaTraceFlags uint64 = 4
)

// TraceFlags bits carried in the metaTraceFlags metadata entry.
const (
	// TraceFlagUnsampled marks a trace the head sampler decided to drop:
	// receivers must not record eager spans for it (only tail retention in
	// the flight recorder applies). The flag is a *drop* bit rather than a
	// keep bit so legacy frames — which carry a TraceID but no flags — keep
	// their original "record everything" semantics on new peers.
	TraceFlagUnsampled uint64 = 1
)

// Envelope is the unit of communication between nodes. Target is the
// destination object's LOID in string form; Method names the function being
// invoked (for requests) and Code/ErrorMsg describe failures (for errors).
//
// TraceID/SpanID carry distributed-tracing context and Deadline carries the
// caller's absolute deadline. On the wire they live in an optional metadata
// section appended after Payload; because the original decoder ignored
// trailing bytes, pre-metadata peers still accept frames carrying metadata,
// and post-metadata peers accept frames without it (the fields decode as
// zero).
type Envelope struct {
	Kind     Kind
	ID       uint64 // request/response correlation
	Target   string // destination object LOID
	Method   string // invoked function name (requests only)
	Code     uint64 // error code (errors only)
	ErrorMsg string // human-readable error (errors only)
	Payload  []byte // method arguments or results
	TraceID  uint64 // tracing: trace this message belongs to (0 = untraced)
	SpanID   uint64 // tracing: sender's span, parent of the receiver's span
	Deadline int64  // caller's absolute deadline, Unix nanoseconds (0 = none)
	// TraceFlags carries the head sampler's decision (TraceFlagUnsampled)
	// so the whole distributed trace is kept or dropped as a unit. Zero —
	// including on legacy frames that predate the field — means sampled.
	TraceFlags uint64

	// pooled marks an envelope obtained from GetEnvelope, the only kind
	// PutEnvelope will recycle (see envpool.go).
	pooled bool
	// payloadPooled marks Payload as a frame-pool buffer that PutEnvelope
	// must release via PutBuf.
	payloadPooled bool
}

// envelopeFixedOverhead bounds the non-variable bytes of an encoded
// envelope: kind (≤2) + id (≤10) + code (≤10) + four length prefixes
// (≤5 each), rounded up.
const envelopeFixedOverhead = 48

// envelopeMetadataOverhead bounds the metadata section: a pair count (1)
// plus four pairs of tag (≤2) + length prefix (1) + varint value (≤10).
const envelopeMetadataOverhead = 53

// hasMetadata reports whether the optional trailing metadata section will be
// emitted.
func (ev *Envelope) hasMetadata() bool {
	return ev.TraceID != 0 || ev.SpanID != 0 || ev.Deadline > 0 || ev.TraceFlags != 0
}

// EncodedSizeHint returns an upper bound on Encode's output size, metadata
// section included — so encoding into a buffer of this capacity never
// reallocates mid-encode (traced and deadline-stamped requests used to pay
// exactly that reallocation on every call).
func (ev *Envelope) EncodedSizeHint() int {
	n := envelopeFixedOverhead + len(ev.Target) + len(ev.Method) + len(ev.ErrorMsg) + len(ev.Payload)
	if ev.hasMetadata() {
		n += envelopeMetadataOverhead
	}
	return n
}

// Encode serialises the envelope. The metadata section is emitted only when
// at least one metadata field is set, so untraced traffic is byte-identical
// to the pre-metadata encoding.
func (ev *Envelope) Encode() []byte {
	e := Encoder{buf: make([]byte, 0, ev.EncodedSizeHint())}
	ev.encodeInto(&e)
	return e.buf
}

// AppendEncode appends the envelope's encoding to buf and returns the
// extended slice, allocating only if buf lacks capacity.
func (ev *Envelope) AppendEncode(buf []byte) []byte {
	e := Encoder{buf: buf}
	ev.encodeInto(&e)
	return e.buf
}

// EncodePooled serialises the envelope into a buffer from the frame pool.
// The caller owns the result and releases it with PutBuf once written out;
// this is the transport write path's zero-allocation encode.
func (ev *Envelope) EncodePooled() []byte {
	e := Encoder{buf: GetBuf(ev.EncodedSizeHint())[:0]}
	ev.encodeInto(&e)
	return e.buf
}

// encodeInto writes the envelope body through e.
func (ev *Envelope) encodeInto(e *Encoder) {
	e.PutUvarint(uint64(ev.Kind))
	e.PutUvarint(ev.ID)
	e.PutString(ev.Target)
	e.PutString(ev.Method)
	e.PutUvarint(ev.Code)
	e.PutString(ev.ErrorMsg)
	e.PutBytes(ev.Payload)
	if ev.hasMetadata() {
		ev.encodeMetadata(e)
	}
}

// encodeMetadata appends the metadata section: a uvarint pair count followed
// by (uvarint tag, length-prefixed value) pairs. Length-prefixing every
// value lets decoders skip tags they do not understand. The value scratch
// space is a fixed stack array so metadata-carrying envelopes (every request
// with a propagated deadline) encode without extra allocations.
func (ev *Envelope) encodeMetadata(e *Encoder) {
	var pairs uint64
	if ev.TraceID != 0 {
		pairs++
	}
	if ev.SpanID != 0 {
		pairs++
	}
	if ev.Deadline > 0 {
		pairs++
	}
	if ev.TraceFlags != 0 {
		pairs++
	}
	e.PutUvarint(pairs)
	var scratch [binary.MaxVarintLen64]byte
	put := func(tag, v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		e.PutUvarint(tag)
		e.PutBytes(scratch[:n])
	}
	if ev.TraceID != 0 {
		put(metaTraceID, ev.TraceID)
	}
	if ev.SpanID != 0 {
		put(metaSpanID, ev.SpanID)
	}
	if ev.Deadline > 0 {
		put(metaDeadline, uint64(ev.Deadline))
	}
	if ev.TraceFlags != 0 {
		put(metaTraceFlags, ev.TraceFlags)
	}
}

// decodeMetadata parses the optional trailing metadata section into ev.
// Metadata is best-effort observability context: malformed or unknown
// entries are ignored rather than failing the envelope, because tracing
// must never break message delivery.
func (ev *Envelope) decodeMetadata(d *Decoder) {
	pairs, err := d.Uvarint()
	if err != nil {
		return
	}
	for i := uint64(0); i < pairs; i++ {
		tag, err := d.Uvarint()
		if err != nil {
			return
		}
		val, err := d.Bytes()
		if err != nil {
			return
		}
		switch tag {
		case metaTraceID:
			if v, err := NewDecoder(val).Uvarint(); err == nil {
				ev.TraceID = v
			}
		case metaSpanID:
			if v, err := NewDecoder(val).Uvarint(); err == nil {
				ev.SpanID = v
			}
		case metaDeadline:
			// A deadline past the int64 range is malformed; leave it zero
			// (no deadline) rather than trusting a garbage value.
			if v, err := NewDecoder(val).Uvarint(); err == nil && v <= 1<<63-1 {
				ev.Deadline = int64(v)
			}
		case metaTraceFlags:
			if v, err := NewDecoder(val).Uvarint(); err == nil {
				ev.TraceFlags = v
			}
			// Unknown tags are skipped: the length prefix already consumed
			// their value.
		}
	}
}

// DecodeEnvelope parses an envelope from buf. The Payload field aliases buf.
func DecodeEnvelope(buf []byte) (*Envelope, error) {
	ev := &Envelope{}
	if err := ev.decodeFrom(buf); err != nil {
		return nil, err
	}
	return ev, nil
}

// decodeFrom parses an envelope from buf into ev, overwriting every field
// (stale state from a reused envelope never survives) except the pool mark,
// which belongs to ev's storage rather than its contents. The Payload field
// aliases buf.
func (ev *Envelope) decodeFrom(buf []byte) error {
	d := NewDecoder(buf)
	kind, err := d.Uvarint()
	if err != nil {
		return fmt.Errorf("%w: kind: %v", ErrTruncatedEnvelope, err)
	}
	id, err := d.Uvarint()
	if err != nil {
		return fmt.Errorf("%w: id: %v", ErrTruncatedEnvelope, err)
	}
	target, err := d.Name()
	if err != nil {
		return fmt.Errorf("%w: target: %v", ErrTruncatedEnvelope, err)
	}
	method, err := d.Name()
	if err != nil {
		return fmt.Errorf("%w: method: %v", ErrTruncatedEnvelope, err)
	}
	code, err := d.Uvarint()
	if err != nil {
		return fmt.Errorf("%w: code: %v", ErrTruncatedEnvelope, err)
	}
	errMsg, err := d.String()
	if err != nil {
		return fmt.Errorf("%w: error message: %v", ErrTruncatedEnvelope, err)
	}
	payload, err := d.Bytes()
	if err != nil {
		return fmt.Errorf("%w: payload: %v", ErrTruncatedEnvelope, err)
	}
	*ev = Envelope{
		Kind:     Kind(kind),
		ID:       id,
		Target:   target,
		Method:   method,
		Code:     code,
		ErrorMsg: errMsg,
		Payload:  payload,
		pooled:   ev.pooled,
	}
	// Optional trailing metadata: absent in pre-metadata frames (nothing
	// remains), best-effort otherwise.
	if d.Remaining() > 0 {
		ev.decodeMetadata(d)
	}
	return nil
}
