// Package wire implements the binary wire protocol used between godcdo
// nodes: a compact, reflection-free encoder/decoder and a length-prefixed
// frame format carried over byte streams.
//
// The format is deliberately simple: all integers are unsigned varints
// (zig-zag for signed), byte strings are length-prefixed, and every message
// travels inside an Envelope frame. Legion used its own message layer; this
// package is the equivalent substrate.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol limits. Frames larger than MaxFrameSize are rejected to protect
// nodes from malformed peers.
const (
	// MaxFrameSize bounds a single frame (64 MiB accommodates the largest
	// component payload the experiments ship, 5.1 MB, with ample headroom).
	MaxFrameSize = 64 << 20
	// MagicByte begins every frame so stream desynchronisation is detected
	// immediately rather than misparsed.
	MagicByte = 0xD7
)

// Errors returned by the decoder and framer.
var (
	ErrShortBuffer   = errors.New("wire: short buffer")
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadMagic      = errors.New("wire: bad frame magic byte")
	ErrOverflow      = errors.New("wire: varint overflows 64 bits")
)

// Encoder serialises values into an internal buffer. The zero value is ready
// to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer. The returned slice aliases the encoder's
// internal storage and is invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutVarint appends a zig-zag encoded signed varint.
func (e *Encoder) PutVarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutBool appends a boolean as a single byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutFloat64 appends an IEEE-754 float in big-endian byte order.
func (e *Encoder) PutFloat64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutBytes appends a length-prefixed byte string.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutString appends a length-prefixed UTF-8 string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutStringSlice appends a count-prefixed sequence of strings.
func (e *Encoder) PutStringSlice(ss []string) {
	e.PutUvarint(uint64(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// PutUintSlice appends a count-prefixed sequence of unsigned varints.
func (e *Encoder) PutUintSlice(vs []uint64) {
	e.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		e.PutUvarint(v)
	}
}

// Decoder reads values sequentially from a byte slice produced by Encoder.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n == 0 {
		return 0, ErrShortBuffer
	}
	if n < 0 {
		return 0, ErrOverflow
	}
	d.off += n
	return v, nil
}

// Varint reads a zig-zag encoded signed varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n == 0 {
		return 0, ErrShortBuffer
	}
	if n < 0 {
		return 0, ErrOverflow
	}
	d.off += n
	return v, nil
}

// Bool reads a single-byte boolean.
func (d *Decoder) Bool() (bool, error) {
	if d.Remaining() < 1 {
		return false, ErrShortBuffer
	}
	b := d.buf[d.off]
	d.off++
	return b != 0, nil
}

// Float64 reads an IEEE-754 float.
func (d *Decoder) Float64() (float64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	bits := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// decoder's buffer; callers that retain it must copy.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// StringSlice reads a count-prefixed sequence of strings.
func (d *Decoder) StringSlice() ([]string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) { // each string needs >= 1 byte of prefix
		return nil, ErrShortBuffer
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// UintSlice reads a count-prefixed sequence of unsigned varints.
func (d *Decoder) UintSlice() ([]uint64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, ErrShortBuffer
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// frameHeaderLen is the frame header: a magic byte and a 4-byte big-endian
// payload length.
const frameHeaderLen = 5

// appendFrameHeader appends the header of an n-byte frame to buf. It is the
// one header encoder behind WriteFrame and WriteFrameBuffered.
func appendFrameHeader(buf []byte, n int) ([]byte, error) {
	if n > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	buf = append(buf, MagicByte)
	return binary.BigEndian.AppendUint32(buf, uint32(n)), nil
}

// parseFrameHeader validates a frameHeaderLen-byte header and returns the
// payload length. It is the one header parser behind ReadFrame and
// ReadFramePooled.
func parseFrameHeader(hdr []byte) (int, error) {
	if hdr[0] != MagicByte {
		return 0, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// WriteFrame writes a magic byte, a 4-byte big-endian length, and the
// payload to w.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	b, err := appendFrameHeader(hdr[:0], len(payload))
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("write frame payload: %w", err)
	}
	return nil
}

// WriteFrameBuffered is WriteFrame for a buffered writer, the transport's
// write path: the header is encoded straight into bw's free buffer space
// (bufio.Writer.AvailableBuffer), so framing allocates nothing.
func WriteFrameBuffered(bw *bufio.Writer, payload []byte) error {
	if bw.Available() < frameHeaderLen {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("write frame header: %w", err)
		}
	}
	hdr, err := appendFrameHeader(bw.AvailableBuffer(), len(payload))
	if err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("write frame header: %w", err)
	}
	if _, err := bw.Write(payload); err != nil {
		return fmt.Errorf("write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("read frame payload: %w", err)
	}
	return payload, nil
}
