// Package objstate provides the serialisable key/value state container
// shared by all stateful godcdo objects: normal Legion objects carry one,
// and DCDOs carry one so their data survives evolution and migration while
// their implementation changes underneath it.
package objstate

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"godcdo/internal/wire"
)

// State is a mutable key→bytes map guarded internally. Methods read and
// write it; capture/restore serialise it deterministically. A generation
// counter increments on every mutation so replication can cheaply detect
// "did this call change anything", and every key remembers the generation
// of its last Set, so AppendDelta can ship only what changed after a
// generation the receiver is known to hold.
//
// Stored values never leave the State: Set, ApplyDelta and ReplaceFrom copy
// into it, and Get and the encoders copy out. That lets a write overwrite a
// key's stored value in place when the new value fits, so a steady stream
// of writes to the same keys stops allocating.
type State struct {
	mu   sync.Mutex
	data map[string]*entry
	gen  uint64

	// floor is the oldest base generation AppendDelta can still prove a
	// complete delta from: bases before it predate a wholesale replacement
	// or a trimmed tombstone. tombs holds the Deletes after floor, oldest
	// first.
	floor uint64
	tombs []tombstone

	// keys is keysSince's scratch slice, reused under mu.
	keys []string
}

// entry is one key's value and the generation of the Set that stored it.
// The map holds it by pointer so an overwrite needs no map write, which
// for a key decoded from a delta would first have to copy the key out.
type entry struct {
	val []byte
	gen uint64
}

// newEntry returns an entry holding a copy of v, stored at generation gen.
func newEntry(v []byte, gen uint64) *entry {
	e := new(entry)
	e.set(v, gen)
	return e
}

// set stores a copy of v at generation gen, reusing the stored value's
// storage when v fits in it.
func (e *entry) set(v []byte, gen uint64) {
	e.val = append(e.val[:0], v...)
	e.gen = gen
}

// tombstone records that key was deleted at gen.
type tombstone struct {
	key string
	gen uint64
}

// maxTombstones bounds the Delete history. Past it the oldest half is
// dropped and floor advances, so an older base falls back to a full image
// rather than silently missing a deletion.
const maxTombstones = 64

// New returns an empty state.
func New() *State {
	return &State{data: make(map[string]*entry)}
}

// Get returns a copy of the value stored under key.
func (s *State) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(e.val))
	copy(out, e.val)
	return out, true
}

// Set stores a copy of value under key.
func (s *State) Set(key string, value []byte) {
	s.mu.Lock()
	s.gen++
	if e, ok := s.data[key]; ok {
		e.set(value, s.gen)
	} else {
		s.data[key] = newEntry(value, s.gen)
	}
	s.mu.Unlock()
}

// Delete removes key.
func (s *State) Delete(key string) {
	s.mu.Lock()
	if _, ok := s.data[key]; ok {
		s.gen++
		s.remove(key)
	}
	s.mu.Unlock()
}

// remove deletes key and leaves a tombstone at the current generation. The
// caller holds s.mu and has already bumped s.gen.
func (s *State) remove(key string) {
	delete(s.data, key)
	if len(s.tombs) == maxTombstones {
		const drop = maxTombstones / 2
		s.floor = s.tombs[drop-1].gen
		s.tombs = s.tombs[:copy(s.tombs, s.tombs[drop:])]
	}
	s.tombs = append(s.tombs, tombstone{key: key, gen: s.gen})
}

// Generation reports the mutation counter: it increments on every Set,
// effective Delete, ReplaceFrom, and ApplyDelta. Equal generations across
// two reads mean no mutation happened in between.
func (s *State) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Keys returns the sorted keys.
func (s *State) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, _ := s.keysSince(0)
	return append([]string(nil), keys...)
}

// Len reports the number of keys.
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// prefixedLen is the encoded size of an n-byte length-prefixed string.
func prefixedLen(n int) int { return uvarintLen(uint64(n)) + n }

// keysSince returns, sorted, the keys Set after generation base (every key
// for base 0) and the exact size of the putSets run for them. The slice is
// s.keys, valid only while the caller holds s.mu.
func (s *State) keysSince(base uint64) (keys []string, size int) {
	keys = s.keys[:0]
	for k, e := range s.data {
		if e.gen > base {
			keys = append(keys, k)
			size += prefixedLen(len(k)) + prefixedLen(len(e.val))
		}
	}
	slices.Sort(keys)
	s.keys = keys
	return keys, size + uvarintLen(uint64(len(keys)))
}

// putSets appends the key/value run shared by Encode and the delta format:
// a count, then each key and its value. The caller holds s.mu.
func (s *State) putSets(e *wire.Encoder, keys []string) {
	e.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutBytes(s.data[k].val)
	}
}

// Encode serialises the state deterministically (sorted keys).
func (s *State) Encode() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, size := s.keysSince(0)
	e := wire.NewEncoder(size)
	s.putSets(e, keys)
	return e.Bytes()
}

// Delta kinds: the first uvarint of a delta.
const (
	// deltaFull replaces the receiver's contents: it carries every key.
	deltaFull = 0
	// deltaSince carries the keys deleted and the keys set after a base
	// generation the receiver holds.
	deltaSince = 1
)

// AppendDelta appends a delta to dst and reports the generation it brings
// a receiver to. The delta goes in as one length-prefixed byte string, the
// form wire.Decoder.Bytes reads back, so a caller embeds it in a larger
// frame without copying it; ApplyDelta takes the bytes inside the prefix.
// dst grows at most once, so a caller that keeps its buffer across calls
// stops allocating once the buffer has grown to fit.
//
// A full delta carries the whole state and replaces whatever the receiver
// holds. Otherwise the delta carries the mutations after generation base —
// the keys deleted and the latest value of every key set — and, applied to
// any copy of this state taken at a generation in [base, gen], reproduces
// the state at gen. ok is false, and dst comes back unchanged, when that
// cannot be proven: base is ahead of the state, or predates a ReplaceFrom, a
// full ApplyDelta, or the oldest retained Delete tombstone. The caller then
// asks for a full delta.
func (s *State) AppendDelta(dst []byte, base uint64, full bool) (out []byte, gen uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kind := uint64(deltaSince)
	var dels []tombstone // a full delta starts from nothing: it deletes nothing
	if full {
		kind, base = deltaFull, 0
	} else {
		if base < s.floor || base > s.gen {
			return dst, s.gen, false
		}
		first := len(s.tombs)
		for first > 0 && s.tombs[first-1].gen > base {
			first--
		}
		dels = s.tombs[first:]
	}
	keys, size := s.keysSince(base)
	size += uvarintLen(kind) + uvarintLen(uint64(len(dels)))
	for _, t := range dels {
		size += prefixedLen(len(t.key))
	}
	e := wire.EncoderOn(slices.Grow(dst, prefixedLen(size)))
	e.PutUvarint(uint64(size))
	e.PutUvarint(kind)
	e.PutUvarint(uint64(len(dels)))
	for _, t := range dels {
		e.PutString(t.key)
	}
	s.putSets(&e, keys)
	return e.Bytes(), s.gen, true
}

// ErrCorrupt is returned when captured state cannot be decoded.
var ErrCorrupt = errors.New("objstate: corrupt state")

// decodeCount reads an element count and rejects one the remaining bytes
// cannot possibly hold.
func decodeCount(dec *wire.Decoder, what string) (int, error) {
	n, err := dec.Uvarint()
	if err != nil {
		return 0, fmt.Errorf("%w: %s count: %v", ErrCorrupt, what, err)
	}
	if n > uint64(dec.Remaining()) {
		return 0, fmt.Errorf("%w: %s count %d exceeds buffer", ErrCorrupt, what, n)
	}
	return int(n), nil
}

// Decode parses state produced by Encode.
func Decode(buf []byte) (*State, error) {
	s := New()
	if err := s.ReplaceFrom(buf); err != nil {
		return nil, err
	}
	return s, nil
}

// ReplaceFrom atomically replaces the state's contents with those encoded
// in buf (produced by Encode on another State). On decode failure the state
// is left untouched. The replacement is one generation bump, and it
// invalidates every earlier delta base: AppendDelta from a generation before
// it reports ok == false, because what the replacement removed is unknown.
func (s *State) ReplaceFrom(buf []byte) error {
	return s.apply(buf, true)
}

// ApplyDelta atomically applies a delta produced by AppendDelta on another
// State: a full delta replaces the contents, an incremental one deletes and
// sets the keys it names. Either lands as exactly one generation bump, never
// as a partially applied mixture, and on decode failure the state is left
// untouched. This is the backup side of replica state shipping.
func (s *State) ApplyDelta(buf []byte) error {
	return s.apply(buf, false)
}

// apply is the one mutation path for images and deltas. It walks buf twice:
// once to validate all of it, touching nothing, then under s.mu to apply it
// as one generation bump, so corrupt input leaves the state untouched and no
// decoded copy of buf is ever built. Stored entries carry the new generation
// and deletions leave tombstones, so the receiver can itself serve deltas
// from this point on. A replacement (an image, or a full delta) overwrites
// the keys it carries and then drops every key it did not carry.
func (s *State) apply(buf []byte, image bool) error {
	replace, err := walk(nil, buf, image)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	_, _ = walk(s, buf, image) // validated above, so it cannot fail
	if replace {
		for k, e := range s.data {
			if e.gen != s.gen {
				delete(s.data, k)
			}
		}
		clear(s.tombs)
		s.floor, s.tombs = s.gen, s.tombs[:0]
	}
	return nil
}

// walk decodes buf — an Encode image when image is set, a delta otherwise —
// and, when s is non-nil, applies each delete and then each set to s at
// s.gen (deletes first, so a key deleted and set again within one delta
// survives); the caller then holds s.mu. It reports whether buf replaces the
// receiver's contents.
func walk(s *State, buf []byte, image bool) (replace bool, err error) {
	dec := wire.NewDecoder(buf)
	if !image {
		kind, err := dec.Uvarint()
		if err != nil {
			return false, fmt.Errorf("%w: delta kind: %v", ErrCorrupt, err)
		}
		if kind != deltaFull && kind != deltaSince {
			return false, fmt.Errorf("%w: delta kind %d", ErrCorrupt, kind)
		}
		n, err := decodeCount(dec, "delete")
		if err != nil {
			return false, err
		}
		if kind == deltaFull && n != 0 {
			return false, fmt.Errorf("%w: full delta carries %d deletes", ErrCorrupt, n)
		}
		for i := 0; i < n; i++ {
			k, err := dec.Bytes()
			if err != nil {
				return false, fmt.Errorf("%w: deleted key: %v", ErrCorrupt, err)
			}
			if s == nil {
				continue
			}
			if _, ok := s.data[string(k)]; ok {
				s.remove(string(k))
			}
		}
		replace = kind == deltaFull
	}
	n, err := decodeCount(dec, "key")
	if err != nil {
		return false, err
	}
	for i := 0; i < n; i++ {
		k, err := dec.Bytes()
		if err != nil {
			return false, fmt.Errorf("%w: key: %v", ErrCorrupt, err)
		}
		v, err := dec.Bytes()
		if err != nil {
			return false, fmt.Errorf("%w: value: %v", ErrCorrupt, err)
		}
		if s == nil {
			continue
		}
		if e, ok := s.data[string(k)]; ok {
			e.set(v, s.gen)
		} else {
			s.data[string(k)] = newEntry(v, s.gen)
		}
	}
	if !image && dec.Remaining() != 0 {
		return false, fmt.Errorf("%w: %d trailing bytes after delta", ErrCorrupt, dec.Remaining())
	}
	return replace || image, nil
}
