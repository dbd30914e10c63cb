package objstate

import (
	"bytes"
	"math/rand"
	"testing"

	"godcdo/internal/wire"
)

// EncodeSince and EncodeFull give the delta tests the bare delta, the bytes
// inside AppendDelta's length prefix that ApplyDelta takes.
func (s *State) EncodeSince(base uint64) (delta []byte, gen uint64, ok bool) {
	out, gen, ok := s.AppendDelta(nil, base, false)
	if !ok {
		return nil, gen, false
	}
	return unprefix(out), gen, true
}

func (s *State) EncodeFull() (delta []byte, gen uint64) {
	out, gen, _ := s.AppendDelta(nil, 0, true)
	return unprefix(out), gen
}

// unprefix strips AppendDelta's length prefix, which must cover exactly the
// rest of what it wrote.
func unprefix(b []byte) []byte {
	d := wire.NewDecoder(b)
	delta, err := d.Bytes()
	if err != nil || d.Remaining() != 0 {
		panic("objstate: AppendDelta's length prefix does not match the delta it wrote")
	}
	return delta
}

// TestAppendDeltaAppends checks the append form's contract: the delta goes
// after whatever dst holds, and a refused base leaves dst as it was.
// TestAllocBudgets holds a reused buffer to zero allocations.
func TestAppendDeltaAppends(t *testing.T) {
	s := New()
	s.Set("k", []byte("v"))
	base := s.Generation()
	s.Set("k", []byte("w"))

	head := []byte{0xAA, 0xBB}
	out, gen, ok := s.AppendDelta(head, base, false)
	if !ok || gen != s.Generation() || !bytes.Equal(out[:2], head) {
		t.Fatalf("AppendDelta = %x, %d, %v", out, gen, ok)
	}
	d := wire.NewDecoder(out[2:])
	delta, err := d.Bytes()
	if err != nil || d.Remaining() != 0 {
		t.Fatalf("delta prefix: %v, %d bytes left", err, d.Remaining())
	}
	dst := New()
	dst.Set("k", []byte("v"))
	if err := dst.ApplyDelta(delta); err != nil || !bytes.Equal(dst.Encode(), s.Encode()) {
		t.Fatalf("appended delta does not reproduce the source (err %v)", err)
	}

	if out, _, ok := s.AppendDelta(head, s.Generation()+1, false); ok || !bytes.Equal(out, head) {
		t.Fatalf("refused base: ok = %v, dst = %x", ok, out)
	}
}

// TestGetSurvivesLaterWrites is the property that makes in-place overwrites
// safe: a slice Get returned is the caller's, so no later Set or ApplyDelta
// of that key — whatever its size — changes it.
func TestGetSurvivesLaterWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		v := make([]byte, rng.Intn(24))
		rng.Read(v)
		return v
	}
	s, src := New(), New()
	for i := 0; i < 500; i++ {
		key := string(rune('a' + rng.Intn(3)))
		s.Set(key, value())
		got, _ := s.Get(key)
		want := append([]byte(nil), got...)

		if rng.Intn(2) == 0 {
			s.Set(key, value())
		} else {
			base := src.Generation()
			src.Set(key, value())
			delta, _, ok := src.EncodeSince(base)
			if !ok {
				t.Fatal("EncodeSince refused")
			}
			if err := s.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: a write to %q changed an earlier Get: %x, want %x", i, key, got, want)
		}
	}
}
