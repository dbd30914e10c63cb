package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// internedLen reads the intern table's size.
func internedLen() int {
	interned.RLock()
	defer interned.RUnlock()
	return len(interned.m)
}

// decodeNames decodes a request carrying target and method and checks that
// both names survive the round trip.
func decodeNames(t testing.TB, target, method string) (string, string) {
	t.Helper()
	ev, err := DecodeEnvelope((&Envelope{Kind: KindRequest, Target: target, Method: method}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Target != target || ev.Method != method {
		t.Fatalf("decoded names %q/%q, want %q/%q", ev.Target, ev.Method, target, method)
	}
	return ev.Target, ev.Method
}

func sameString(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// TestDecodeInternsNames pins the intern table behind decodeFrom: repeated
// names decode without allocating, long names are copied, the table is
// cleared at its cap, and concurrent decoders agree on every name.
func TestDecodeInternsNames(t *testing.T) {
	t.Run("repeated name allocates nothing", func(t *testing.T) {
		frame := (&Envelope{Kind: KindRequest, Target: "loid:9.8.7", Method: "intern-me", Payload: []byte("p")}).Encode()
		first, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatal(err)
		}
		var target, method string
		allocs := testing.AllocsPerRun(200, func() {
			ev, err := DecodeEnvelopePooled(frame)
			if err != nil {
				t.Fatal(err)
			}
			target, method = ev.Target, ev.Method
			PutEnvelope(ev)
		})
		if allocs != 0 {
			t.Errorf("decoding a repeated name: %.0f allocs/op, want 0", allocs)
		}
		if target != "loid:9.8.7" || method != "intern-me" {
			t.Fatalf("decoded names %q/%q", target, method)
		}
		if !sameString(target, first.Target) || !sameString(method, first.Method) {
			t.Error("a repeated name was copied, not interned")
		}
	})

	t.Run("long name is copied", func(t *testing.T) {
		long := strings.Repeat("m", maxInternLen+1)
		_, a := decodeNames(t, "loid:1.1.1", long)
		_, b := decodeNames(t, "loid:1.1.1", long)
		if sameString(a, b) {
			t.Errorf("a %d-byte name was interned", len(long))
		}
		interned.RLock()
		_, held := interned.m[long]
		interned.RUnlock()
		if held {
			t.Errorf("the table holds a %d-byte name", len(long))
		}
	})

	t.Run("table clears at its cap", func(t *testing.T) {
		interned.Lock()
		clear(interned.m)
		interned.Unlock()
		for i := 0; i < maxInternedNames+1; i++ {
			// An empty method keeps each decode to one new name.
			decodeNames(t, fmt.Sprintf("loid:%d.0.0", i), "")
			if n := internedLen(); n > maxInternedNames {
				t.Fatalf("after %d names the table holds %d, cap %d", i+1, n, maxInternedNames)
			}
		}
		if n := internedLen(); n != 1 {
			t.Fatalf("after %d distinct names the table holds %d, want 1 (cleared at the cap)", maxInternedNames+1, n)
		}
		a, _ := decodeNames(t, "loid:0.0.0", "")
		b, _ := decodeNames(t, "loid:0.0.0", "")
		if !sameString(a, b) {
			t.Error("a name repeated after the clear was not interned again")
		}
	})

	t.Run("concurrent decoders", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					// Shared names hit; the per-goroutine ones keep the table
					// filling and clearing underneath them.
					target := fmt.Sprintf("loid:%d.1.1", i%16)
					method := fmt.Sprintf("m-%d-%d", g, i)
					ev, err := DecodeEnvelopePooled((&Envelope{Kind: KindRequest, Target: target, Method: method}).Encode())
					if err != nil {
						t.Error(err)
						return
					}
					if ev.Target != target || ev.Method != method {
						t.Errorf("decoded names %q/%q, want %q/%q", ev.Target, ev.Method, target, method)
					}
					PutEnvelope(ev)
				}
			}(g)
		}
		wg.Wait()
		if n := internedLen(); n > maxInternedNames {
			t.Errorf("the table holds %d names, cap %d", n, maxInternedNames)
		}
	})
}
