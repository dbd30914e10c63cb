package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/iotest"
)

func TestGetBufClasses(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 70000, 1 << 20} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d) len = %d", n, len(b))
		}
		PutBuf(b)
	}
	// Oversize buffers are allocated exactly and never pooled.
	big := GetBuf(2 << 20)
	if len(big) != 2<<20 {
		t.Fatalf("oversize len = %d", len(big))
	}
	if FramePoolStats().Oversize == 0 {
		t.Fatal("oversize allocation not counted")
	}
}

func TestPutBufThenGetReuses(t *testing.T) {
	// Pools may drop buffers under GC pressure, so assert the accounting
	// moves rather than demanding a specific buffer back.
	before := FramePoolStats()
	b := GetBuf(100)
	b[0] = 0xAB
	PutBuf(b)
	c := GetBuf(50)
	after := FramePoolStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses != 2 {
		t.Fatalf("pool accounting drifted: +%d hits +%d misses for 2 gets", hits, misses)
	}
	PutBuf(c)
}

func TestPutBufDropsUnderSized(t *testing.T) {
	PutBuf(make([]byte, 10)) // capacity below every class: silently dropped
}

// TestReadFramePooledRoundTrip writes a run of frames — empty, small, and
// larger than the bufio buffer — through WriteFrameBuffered and reads them
// back with ReadFramePooled, over a reader that yields one byte per Read so
// every header straddles buffer refills. The stream then ends at a frame
// boundary, which must read as a clean io.EOF.
func TestReadFramePooledRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, []byte("pooled frame payload"), bytes.Repeat([]byte{MagicByte}, 5000), {1}}
	var net bytes.Buffer
	bw := bufio.NewWriterSize(&net, 64)
	for _, p := range payloads {
		if err := WriteFrameBuffered(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Byte-identical to the unbuffered encoder.
	var want bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&want, p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(net.Bytes(), want.Bytes()) {
		t.Fatal("WriteFrameBuffered and WriteFrame disagree on the bytes")
	}
	br := bufio.NewReaderSize(iotest.OneByteReader(&net), 16)
	for i, p := range payloads {
		got, err := ReadFramePooled(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
		PutBuf(got)
	}
	if _, err := ReadFramePooled(br); err != io.EOF {
		t.Fatalf("end of stream at a frame boundary: err = %v, want io.EOF", err)
	}
}

// TestReadFramePooledErrors pins ReadFramePooled's error behaviour to
// ReadFrame's on every header edge: the two share one parser but read the
// header differently (in place in the bufio buffer vs io.ReadFull).
func TestReadFramePooledErrors(t *testing.T) {
	var hello bytes.Buffer
	if err := WriteFrame(&hello, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		want   error
		exact  bool // the error is the sentinel itself, not a wrapping
	}{
		{"empty stream", nil, io.EOF, true},
		{"partial header", []byte{MagicByte, 0, 0}, io.ErrUnexpectedEOF, true},
		{"one header byte", []byte{MagicByte}, io.ErrUnexpectedEOF, true},
		{"bad magic", []byte{0x00, 0, 0, 0, 1, 'x'}, ErrBadMagic, true},
		{"oversize frame", []byte{MagicByte, 0xFF, 0xFF, 0xFF, 0xFF}, ErrFrameTooLarge, true},
		{"truncated payload", hello.Bytes()[:hello.Len()-2], io.ErrUnexpectedEOF, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, cold := ReadFrame(bytes.NewReader(tc.stream))
			_, pooled := ReadFramePooled(bufio.NewReader(bytes.NewReader(tc.stream)))
			for _, got := range []error{cold, pooled} {
				if !errors.Is(got, tc.want) || (tc.exact && got != tc.want) {
					t.Fatalf("ReadFrame = %v, ReadFramePooled = %v, want %v", cold, pooled, tc.want)
				}
			}
		})
	}
}

func TestEncodeVariantsAgree(t *testing.T) {
	cases := []*Envelope{
		{Kind: KindRequest, ID: 7, Target: "loid:1.2.3", Method: "get", Payload: []byte("hi")},
		{Kind: KindError, ID: 9, Code: 404, ErrorMsg: "gone"},
		{Kind: KindRequest, ID: 1, Target: "loid:1.2.3", Method: "m", TraceID: 42, SpanID: 7, Deadline: 1 << 40},
	}
	for _, ev := range cases {
		want := ev.Encode()
		if got := ev.AppendEncode(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendEncode mismatch: %x vs %x", got, want)
		}
		pooled := ev.EncodePooled()
		if !bytes.Equal(pooled, want) {
			t.Fatalf("EncodePooled mismatch: %x vs %x", pooled, want)
		}
		PutBuf(pooled)
		// AppendEncode really appends.
		prefixed := ev.AppendEncode([]byte{0xEE})
		if prefixed[0] != 0xEE || !bytes.Equal(prefixed[1:], want) {
			t.Fatal("AppendEncode clobbered its prefix")
		}
	}
}

// TestEncodedSizeHintCoversMetadata is the regression test for the old size
// hint, which ignored the metadata section and forced a mid-encode
// reallocation on every traced or deadline-stamped request.
func TestEncodedSizeHintCoversMetadata(t *testing.T) {
	ev := &Envelope{
		Kind: KindRequest, ID: 1<<64 - 1, Target: "loid:9.9.9", Method: "work",
		Payload: bytes.Repeat([]byte("p"), 300),
		TraceID: 1<<64 - 1, SpanID: 1<<64 - 1, Deadline: 1<<63 - 1,
	}
	hint := ev.EncodedSizeHint()
	if n := len(ev.Encode()); n > hint {
		t.Fatalf("encoded %d bytes exceeds hint %d (mid-encode realloc)", n, hint)
	}
	// Encoding into a hint-capacity buffer must not grow it.
	buf := make([]byte, 0, hint)
	out := ev.AppendEncode(buf)
	if cap(out) != hint {
		t.Fatalf("AppendEncode grew the buffer: cap %d -> %d", hint, cap(out))
	}
}

// TestPoolConcurrentReuse hammers Get/Put from many goroutines under -race:
// two goroutines must never observe the same buffer concurrently.
func TestPoolConcurrentReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := GetBuf(64 + g)
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("buffer shared across goroutines: got %d want %d", b[j], g)
						return
					}
				}
				PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
}
