package objstate

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"godcdo/internal/wire"
)

func TestSetGetDeleteLen(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatal("new state not empty")
	}
	s.Set("a", []byte{1, 2})
	s.Set("b", nil)
	v, ok := s.Get("a")
	if !ok || !bytes.Equal(v, []byte{1, 2}) {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("found missing key")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Keys = %v", got)
	}
}

func TestGetSetCopySemantics(t *testing.T) {
	s := New()
	in := []byte{1}
	s.Set("k", in)
	in[0] = 9
	v, _ := s.Get("k")
	if v[0] != 1 {
		t.Fatal("Set aliased caller's slice")
	}
	v[0] = 7
	v2, _ := s.Get("k")
	if v2[0] != 1 {
		t.Fatal("Get returned aliased storage")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys []string, vals [][]byte) bool {
		s := New()
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			s.Set(k, v)
		}
		out, err := Decode(s.Encode())
		if err != nil {
			return false
		}
		if out.Len() != s.Len() {
			return false
		}
		for _, k := range s.Keys() {
			a, _ := s.Get(k)
			b, ok := out.Get(k)
			if !ok || !bytes.Equal(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := New(), New()
	for _, k := range []string{"z", "a", "m"} {
		a.Set(k, []byte(k))
	}
	for _, k := range []string{"a", "m", "z"} { // different insert order
		b.Set(k, []byte(k))
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0xff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	e := wire.NewEncoder(8)
	e.PutUvarint(3) // claims three entries, provides none
	if _, err := Decode(e.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 200; i++ {
				s.Set(key, []byte{byte(i)})
				if _, ok := s.Get(key); !ok {
					t.Errorf("key %q lost", key)
					return
				}
				_ = s.Encode()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

// TestDeltaReproducesSource drives random Set/Delete/ReplaceFrom histories
// and checks the delta contract at every generation passed through: where
// EncodeSince(base) reports ok, applying it to a copy taken at base must
// reproduce the source byte for byte; and it must report ok exactly when the
// base is one it can vouch for — not before the last ReplaceFrom, not after
// more Deletes than tombstones are kept for, not ahead of the state.
func TestDeltaReproducesSource(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := New()
		type base struct {
			gen     uint64
			image   []byte
			deletes int // effective Deletes so far
		}
		bases := []base{{0, src.Encode(), 0}}
		deletes, replacedAt := 0, uint64(0)
		key := func() string { return string(rune('a' + rng.Intn(12))) }
		// Mostly short histories; some long enough to trim tombstones.
		steps := 20 + rng.Intn(40)
		if seed%5 == 0 {
			steps = 600
		}
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(100); {
			case op < 55:
				v := make([]byte, rng.Intn(6))
				rng.Read(v)
				src.Set(key(), v)
			case op < 97:
				k := key()
				if _, ok := src.Get(k); ok {
					deletes++
				}
				src.Delete(k)
			default:
				other := New()
				for j := rng.Intn(4); j > 0; j-- {
					other.Set(key(), []byte{byte(j)})
				}
				if err := src.ReplaceFrom(other.Encode()); err != nil {
					t.Fatal(err)
				}
				replacedAt = src.Generation()
			}
			if g := src.Generation(); g != bases[len(bases)-1].gen {
				bases = append(bases, base{g, src.Encode(), deletes})
			}
		}

		want := src.Encode()
		for _, b := range bases {
			delta, gen, ok := src.EncodeSince(b.gen)
			if gen != src.Generation() {
				t.Fatalf("seed %d: EncodeSince(%d) covers gen %d, state is at %d", seed, b.gen, gen, src.Generation())
			}
			// Provable: nothing wholesale since, and every Delete since still
			// has its tombstone (trimming drops half once the bound is hit,
			// so fewer than half the bound is always retained).
			if b.gen >= replacedAt && deletes-b.deletes < maxTombstones/2 && !ok {
				t.Fatalf("seed %d: EncodeSince(%d) refused a base it can vouch for (replaced at %d, %d deletes since)",
					seed, b.gen, replacedAt, deletes-b.deletes)
			}
			if (b.gen < replacedAt || deletes-b.deletes > maxTombstones) && ok {
				t.Fatalf("seed %d: EncodeSince(%d) vouched for a base it cannot (replaced at %d, %d deletes since)",
					seed, b.gen, replacedAt, deletes-b.deletes)
			}
			if !ok {
				if delta != nil {
					t.Fatalf("seed %d: EncodeSince(%d) returned a delta with ok == false", seed, b.gen)
				}
				continue
			}
			clone, err := Decode(b.image)
			if err != nil {
				t.Fatal(err)
			}
			before := clone.Generation()
			if err := clone.ApplyDelta(delta); err != nil {
				t.Fatalf("seed %d: ApplyDelta(EncodeSince(%d)): %v", seed, b.gen, err)
			}
			if got := clone.Encode(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: delta since %d does not reproduce the source:\n got %q\nwant %q", seed, b.gen, got, want)
			}
			if clone.Generation() != before+1 {
				t.Fatalf("seed %d: ApplyDelta moved the generation by %d, want 1", seed, clone.Generation()-before)
			}
		}
		if _, _, ok := src.EncodeSince(src.Generation() + 1); ok {
			t.Fatalf("seed %d: EncodeSince vouched for a base ahead of the state", seed)
		}

		// The full image reproduces the source onto anything.
		full, gen := src.EncodeFull()
		clone, _ := Decode(bases[rng.Intn(len(bases))].image)
		if err := clone.ApplyDelta(full); err != nil || gen != src.Generation() || !bytes.Equal(clone.Encode(), want) {
			t.Fatalf("seed %d: full image does not reproduce the source (err %v)", seed, err)
		}
		// And a receiver can serve deltas of what it applied: chain one hop.
		at := clone.Generation()
		relay, _ := Decode(clone.Encode())
		clone.Set("relayed", []byte{1})
		clone.Delete(key())
		if delta, _, ok := clone.EncodeSince(at); !ok {
			t.Fatalf("seed %d: receiver cannot serve a delta from the generation it applied at", seed)
		} else if err := relay.ApplyDelta(delta); err != nil || !bytes.Equal(relay.Encode(), clone.Encode()) {
			t.Fatalf("seed %d: relayed delta diverged (err %v)", seed, err)
		}
	}
}

func TestApplyDeltaCorruptLeavesStateUntouched(t *testing.T) {
	src := New()
	src.Set("a", []byte{1})
	src.Set("b", []byte{2})
	base := src.Generation()
	src.Delete("a")
	src.Set("c", []byte{3})
	delta, _, ok := src.EncodeSince(base)
	if !ok {
		t.Fatal("EncodeSince refused")
	}

	dst := New()
	dst.Set("a", []byte{1})
	dst.Set("b", []byte{2})
	want, gen := dst.Encode(), dst.Generation()
	for cut := 0; cut < len(delta); cut++ {
		if err := dst.ApplyDelta(delta[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	if err := dst.ApplyDelta(append(append([]byte(nil), delta...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
	if err := dst.ApplyDelta([]byte{7, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: err = %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(dst.Encode(), want) || dst.Generation() != gen {
		t.Fatal("a refused delta changed the state")
	}
	if err := dst.ApplyDelta(delta); err != nil || !bytes.Equal(dst.Encode(), src.Encode()) {
		t.Fatalf("intact delta: err = %v", err)
	}
}

// FuzzApplyDelta feeds ApplyDelta adversarial bytes: it must never panic,
// and whatever it refuses must leave the state exactly as it was.
func FuzzApplyDelta(f *testing.F) {
	seed := New()
	seed.Set("k", []byte("v"))
	seed.Set("gone", nil)
	base := seed.Generation()
	seed.Delete("gone")
	seed.Set("k2", bytes.Repeat([]byte{9}, 40))
	since, _, _ := seed.EncodeSince(base)
	full, _ := seed.EncodeFull()
	f.Add(since)
	f.Add(full)
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, buf []byte) {
		s := New()
		s.Set("k", []byte("old"))
		s.Set("gone", []byte("x"))
		want, gen := s.Encode(), s.Generation()
		if err := s.ApplyDelta(buf); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if !bytes.Equal(s.Encode(), want) || s.Generation() != gen {
				t.Fatal("a refused delta changed the state")
			}
			return
		}
		if s.Generation() != gen+1 {
			t.Fatalf("accepted delta moved the generation by %d, want 1", s.Generation()-gen)
		}
	})
}
