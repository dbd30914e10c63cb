package wire

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Frame-buffer pooling. The invoke hot path reads one frame and encodes one
// envelope per message in each direction; paying a fresh make([]byte, n) for
// every one of them is exactly the kind of substrate overhead the paper's
// performance study says the mechanism must not add. Buffers are pooled in a
// small set of size classes so a steady-state node allocates nothing on the
// frame path.
//
// Ownership contract (see also DESIGN.md "Transport fast path"):
//
//   - GetBuf/ReadFramePooled hand the caller exclusive ownership of the
//     returned buffer.
//   - DecodeEnvelope's Payload (and anything else derived via Decoder.Bytes)
//     aliases the frame buffer. The buffer may be released only after that
//     data has been consumed or copied.
//   - PutBuf returns ownership to the pool; the caller must not touch the
//     slice (or anything aliasing it) afterwards.
//
// Callers that cannot prove when the derived data dies simply skip PutBuf and
// let the GC reclaim the buffer — releasing is an optimisation, never an
// obligation.

// bufClasses are the pooled capacity classes. Frames larger than the last
// class are allocated fresh (counted as oversize, not pool misses).
var bufClasses = [...]int{512, 4 << 10, 64 << 10, 1 << 20}

var bufPools [len(bufClasses)]sync.Pool

// Pool counters. Global rather than per-connection: the pool itself is
// process-global, and the hit rate is a property of the whole node's traffic
// mix.
var (
	poolHits     atomic.Uint64
	poolMisses   atomic.Uint64
	poolOversize atomic.Uint64
	poolPoisoned atomic.Uint64
)

// PoolStats is a snapshot of the frame-buffer pool counters.
type PoolStats struct {
	// Hits counts GetBuf calls satisfied from a pooled buffer.
	Hits uint64
	// Misses counts GetBuf calls that allocated a fresh class-sized buffer.
	Misses uint64
	// Oversize counts GetBuf calls larger than the largest class (allocated
	// fresh, never pooled).
	Oversize uint64
	// Poisoned counts buffers quarantined by PutBuf while poison checks
	// were enabled (see SetPoisonChecks).
	Poisoned uint64
}

// FramePoolStats returns a snapshot of the pool counters.
func FramePoolStats() PoolStats {
	return PoolStats{
		Hits:     poolHits.Load(),
		Misses:   poolMisses.Load(),
		Oversize: poolOversize.Load(),
		Poisoned: poolPoisoned.Load(),
	}
}

// PoisonByte fills released buffers while poison checks are enabled. The
// value is arbitrary but distinctive: a late reader that sees a run of 0xDB
// is looking at a released frame, not at plausible recycled traffic.
const PoisonByte = 0xDB

// poisonChecks gates the pool's diagnostic mode (SetPoisonChecks).
var poisonChecks atomic.Bool

// SetPoisonChecks toggles the pool's use-after-release diagnostic mode.
// While enabled, PutBuf fills the buffer with PoisonByte and quarantines it
// (the buffer is never re-pooled), so code that wrongly reads a borrowed
// payload after releasing its frame sees deterministic poison instead of
// whatever request happened to recycle the buffer — turning a silent,
// load-dependent aliasing corruption into an immediately recognisable
// failure. Intended for tests and debugging: quarantining defeats pooling,
// so leave it off in production.
func SetPoisonChecks(on bool) { poisonChecks.Store(on) }

// PoisonChecksEnabled reports whether poison mode is active.
func PoisonChecksEnabled() bool { return poisonChecks.Load() }

// classFor returns the index of the smallest class holding n bytes, or -1
// when n exceeds every class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetBuf returns a buffer of length n (capacity possibly larger) from the
// pool. The caller owns it until PutBuf.
func GetBuf(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		poolOversize.Add(1)
		return make([]byte, n)
	}
	if v := bufPools[ci].Get(); v != nil {
		box := v.(*poolBuf)
		b := box.b
		box.b = nil
		boxPool.Put(box)
		poolHits.Add(1)
		return b[:n]
	}
	poolMisses.Add(1)
	return make([]byte, n, bufClasses[ci])
}

// poolBuf boxes a slice so Put does not allocate an interface header on
// every release (the classic sync.Pool []byte pitfall).
type poolBuf struct{ b []byte }

var boxPool = sync.Pool{New: func() any { return new(poolBuf) }}

// PutBuf returns a buffer obtained from GetBuf (or any buffer the caller
// owns outright) to the pool. Buffers whose capacity matches no class are
// dropped for the GC.
func PutBuf(b []byte) {
	if poisonChecks.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = PoisonByte
		}
		poolPoisoned.Add(1)
		// Quarantine: the poisoned buffer never re-enters the pool, so the
		// poison pattern survives for any late reader to trip over.
		return
	}
	c := cap(b)
	// Find the largest class the capacity fully covers, so a Get from that
	// class always has room.
	ci := -1
	for i, cls := range bufClasses {
		if c >= cls {
			ci = i
		}
	}
	if ci < 0 {
		return
	}
	box := boxPool.Get().(*poolBuf)
	box.b = b[:0:c]
	bufPools[ci].Put(box)
}

// ReadFramePooled reads one frame written by WriteFrame into pooled storage.
// The returned buffer is owned by the caller, who releases it with PutBuf
// once every byte derived from it (notably a decoded envelope's Payload) has
// been consumed or copied. The error paths never leak a pooled buffer.
//
// The header is parsed in place in br's buffer (Peek, then Discard), so
// framing allocates nothing. Errors match ReadFrame's: io.EOF for a stream
// that ends at a frame boundary, io.ErrUnexpectedEOF for one that ends
// inside the header, ErrBadMagic and ErrFrameTooLarge for a bad header.
func ReadFramePooled(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, err := parseFrameHeader(hdr)
	if err != nil {
		return nil, err
	}
	_, _ = br.Discard(frameHeaderLen) // cannot fail: Peek buffered the bytes
	payload := GetBuf(n)
	if _, err := io.ReadFull(br, payload); err != nil {
		PutBuf(payload)
		return nil, fmt.Errorf("read frame payload: %w", err)
	}
	return payload, nil
}
