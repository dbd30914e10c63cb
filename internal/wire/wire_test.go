package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutUvarint(42)
	e.PutVarint(-17)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat64(3.5)
	e.PutBytes([]byte{1, 2, 3})
	e.PutString("hello")
	e.PutStringSlice([]string{"a", "", "ccc"})
	e.PutUintSlice([]uint64{0, 1, math.MaxUint64})

	d := NewDecoder(e.Bytes())
	if v, err := d.Uvarint(); err != nil || v != 42 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := d.Varint(); err != nil || v != -17 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.Float64(); err != nil || v != 3.5 {
		t.Fatalf("Float64 = %v, %v", v, err)
	}
	if b, err := d.Bytes(); err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v, %v", b, err)
	}
	if s, err := d.String(); err != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if ss, err := d.StringSlice(); err != nil || !reflect.DeepEqual(ss, []string{"a", "", "ccc"}) {
		t.Fatalf("StringSlice = %v, %v", ss, err)
	}
	if us, err := d.UintSlice(); err != nil || !reflect.DeepEqual(us, []uint64{0, 1, math.MaxUint64}) {
		t.Fatalf("UintSlice = %v, %v", us, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder(nil)
	if _, err := d.Uvarint(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Uvarint err = %v", err)
	}
	if _, err := d.Bool(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Bool err = %v", err)
	}
	if _, err := d.Float64(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Float64 err = %v", err)
	}
	// A declared length longer than the remaining bytes must not panic.
	e := NewEncoder(8)
	e.PutUvarint(1000)
	d = NewDecoder(e.Bytes())
	if _, err := d.Bytes(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Bytes err = %v", err)
	}
}

func TestDecoderHostileCountPrefix(t *testing.T) {
	// A count prefix claiming 2^60 strings must be rejected, not allocated.
	e := NewEncoder(8)
	e.PutUvarint(1 << 60)
	if _, err := NewDecoder(e.Bytes()).StringSlice(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("StringSlice err = %v", err)
	}
	if _, err := NewDecoder(e.Bytes()).UintSlice(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("UintSlice err = %v", err)
	}
}

func TestVarintPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, v int64, s string, b []byte) bool {
		e := NewEncoder(32)
		e.PutUvarint(u)
		e.PutVarint(v)
		e.PutString(s)
		e.PutBytes(b)
		d := NewDecoder(e.Bytes())
		gu, err1 := d.Uvarint()
		gv, err2 := d.Varint()
		gs, err3 := d.String()
		gb, err4 := d.Bytes()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return gu == u && gv == v && gs == s && bytes.Equal(gb, b) && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("frame payload")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("frame = %v, want empty", got)
	}
}

func TestFrameBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0x00, 0, 0, 0, 1, 'x'})
	if _, err := ReadFrame(buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameTooLargeRejectedOnWrite(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	bw := bufio.NewWriter(&buf)
	if err := WriteFrameBuffered(bw, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("buffered: err = %v, want ErrFrameTooLarge", err)
	}
	if bw.Buffered() != 0 || buf.Len() != 0 {
		t.Fatalf("a refused frame left %d buffered + %d written bytes", bw.Buffered(), buf.Len())
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	_, err := ReadFrame(bytes.NewReader(trunc))
	if err == nil {
		t.Fatal("expected error for truncated stream")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := &Envelope{
		Kind:     KindRequest,
		ID:       99,
		Target:   "loid:1.2.3",
		Method:   "sort",
		Payload:  []byte{9, 8, 7},
		Code:     CodeNoSuchFunction,
		ErrorMsg: "function gone",
	}
	out, err := DecodeEnvelope(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEnvelopePropertyRoundTrip(t *testing.T) {
	f := func(id uint64, target, method, errMsg string, payload []byte, kind uint8, code uint64) bool {
		in := &Envelope{
			Kind: Kind(kind), ID: id, Target: target, Method: method,
			Code: code, ErrorMsg: errMsg, Payload: payload,
		}
		out, err := DecodeEnvelope(in.Encode())
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 && len(out.Payload) == 0 {
			out.Payload = in.Payload // nil vs empty slice are equivalent
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEnvelopeTruncated(t *testing.T) {
	full := (&Envelope{Kind: KindResponse, ID: 7, Target: "t", Method: "m", Payload: []byte("abc")}).Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeEnvelope(full[:cut]); err == nil {
			t.Fatalf("cut=%d: expected decode error", cut)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindRequest:  "request",
		KindResponse: "response",
		KindError:    "error",
		KindEvent:    "event",
		Kind(200):    "kind(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
