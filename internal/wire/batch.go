package wire

import (
	"errors"
	"fmt"
	"slices"
)

// Batch runs. A KindBatchRequest (or KindBatchResponse) envelope carries in
// its Payload a *batch run*: a uvarint sub-envelope count followed by that
// many length-prefixed, individually encoded envelopes. Sub-requests are
// ordinary KindRequest envelopes; sub-responses are KindResponse or
// KindError. The outer envelope owns correlation and metadata — its ID pairs
// request with response, and its deadline/trace metadata applies to every
// sub-call — so sub-envelopes normally carry none of their own.
//
// Length-prefixing each sub-envelope is what makes the run walkable: a bare
// envelope encoding has no self-delimiting tail (trailing metadata is
// detected by "bytes remain"), so concatenating envelopes without prefixes
// would be ambiguous.
//
// A server rejects an envelope kind it does not know with CodeBadRequest
// *before* dispatching anything. Every server in the tree handles batch
// kinds, so the client does not fall back on that rejection: an outer
// CodeBadRequest (in practice a malformed run) is terminal for every
// sub-call, as a single call's CodeBadRequest is.

// MaxBatchCalls bounds the sub-envelope count in one batch run. Clients
// chunk larger batches; decoders reject larger counts before allocating.
const MaxBatchCalls = 1024

// ErrBatchTooLarge is returned when a batch run's header claims more
// sub-envelopes than MaxBatchCalls.
var ErrBatchTooLarge = errors.New("wire: batch run exceeds MaxBatchCalls")

// AppendBatchHeader appends a batch run's sub-envelope count to buf and
// returns the extended slice. The caller must append exactly count entries
// with AppendBatchEntry and must keep count within MaxBatchCalls (decoders
// reject anything larger).
func AppendBatchHeader(buf []byte, count int) []byte {
	e := Encoder{buf: buf}
	e.PutUvarint(uint64(count))
	return e.buf
}

// AppendBatchEntry appends one length-prefixed sub-envelope to buf, using
// scratch as encode space. It returns the grown buf and the (possibly
// grown) scratch so callers can reuse both across entries without
// allocating.
func AppendBatchEntry(buf []byte, sub *Envelope, scratch []byte) (newBuf, newScratch []byte) {
	scratch = sub.AppendEncode(scratch[:0])
	e := Encoder{buf: buf}
	e.PutBytes(scratch)
	return e.buf, scratch
}

// BatchEntrySizeHint returns an upper bound on the bytes AppendBatchEntry
// will append for sub (its encoding plus the length prefix).
func BatchEntrySizeHint(sub *Envelope) int {
	return sub.EncodedSizeHint() + 5
}

// DecodeBatchRun parses a batch run from buf, appending the decoded
// sub-envelopes to dst (which may be nil) and returning the extended slice.
// dst grows at most once, to the count in the run's header, and each entry
// is zeroed before it is decoded into, so stale entries past len(dst) never
// show through. Sub-envelope Payloads alias buf, so buf must outlive every
// use of the results — the standard frame-pool ownership contract applies.
// DecodeBatchRunPooled decodes into a run from a pool instead.
func DecodeBatchRun(buf []byte, dst []Envelope) ([]Envelope, error) {
	d := NewDecoder(buf)
	count, err := d.Uvarint()
	if err != nil {
		return dst, fmt.Errorf("%w: batch count: %v", ErrTruncatedEnvelope, err)
	}
	if count > MaxBatchCalls {
		return dst, fmt.Errorf("%w: %d sub-envelopes", ErrBatchTooLarge, count)
	}
	// Every entry costs at least one byte of length prefix, so a count
	// beyond the remaining bytes is a lie — reject before growing dst.
	if int(count) > d.Remaining() {
		return dst, fmt.Errorf("%w: batch count %d exceeds %d remaining bytes",
			ErrTruncatedEnvelope, count, d.Remaining())
	}
	dst = slices.Grow(dst, int(count))
	for i := uint64(0); i < count; i++ {
		raw, err := d.Bytes()
		if err != nil {
			return dst, fmt.Errorf("%w: batch entry %d: %v", ErrTruncatedEnvelope, i, err)
		}
		dst = append(dst, Envelope{})
		if err := dst[len(dst)-1].decodeFrom(raw); err != nil {
			return dst, fmt.Errorf("batch entry %d: %w", i, err)
		}
	}
	return dst, nil
}
