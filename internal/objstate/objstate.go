// Package objstate provides the serialisable key/value state container
// shared by all stateful godcdo objects: normal Legion objects carry one,
// and DCDOs carry one so their data survives evolution and migration while
// their implementation changes underneath it.
package objstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"godcdo/internal/wire"
)

// State is a mutable key→bytes map guarded internally. Methods read and
// write it; capture/restore serialise it deterministically. A generation
// counter increments on every mutation so replication can cheaply detect
// "did this call change anything", and every key remembers the generation
// of its last Set, so EncodeSince can ship only what changed after a
// generation the receiver is known to hold.
type State struct {
	mu   sync.Mutex
	data map[string]entry
	gen  uint64

	// floor is the oldest base generation EncodeSince can still prove a
	// complete delta from: bases before it predate a wholesale replacement
	// or a trimmed tombstone. tombs holds the Deletes after floor, oldest
	// first.
	floor uint64
	tombs []tombstone
}

// entry is one key's value and the generation of the Set that stored it,
// kept together so Set stays a single map write.
type entry struct {
	val []byte
	gen uint64
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
	return &State{data: make(map[string]entry)}
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
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	s.gen++
	s.data[key] = entry{val: v, gen: s.gen}
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
	keys, _ := s.keysSince(0)
	s.mu.Unlock()
	return keys
}

// Len reports the number of keys.
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// keysSince returns, sorted, the keys Set after generation base (every key
// for base 0) and an upper bound on the bytes putSets needs for them. The
// caller holds s.mu.
func (s *State) keysSince(base uint64) (keys []string, size int) {
	for k, e := range s.data {
		if e.gen > base {
			keys = append(keys, k)
			size += len(k) + len(e.val) + 2*binary.MaxVarintLen64
		}
	}
	sort.Strings(keys)
	return keys, size + binary.MaxVarintLen64
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

// EncodeFull serialises the whole state as a delta that replaces whatever
// the receiver holds, and reports the generation it covers.
func (s *State) EncodeFull() (delta []byte, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeDelta(deltaFull, 0), s.gen
}

// EncodeSince serialises the mutations after generation base — the keys
// deleted and the latest value of every key set — and reports the
// generation the delta brings a receiver to. Applied to any copy of this
// state taken at a generation in [base, gen], it reproduces the state at
// gen. ok is false, and delta nil, when that cannot be proven: base is
// ahead of the state, or predates a ReplaceFrom, a full ApplyDelta, or the
// oldest retained Delete tombstone. The caller then ships EncodeFull.
func (s *State) EncodeSince(base uint64) (delta []byte, gen uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base < s.floor || base > s.gen {
		return nil, s.gen, false
	}
	return s.encodeDelta(deltaSince, base), s.gen, true
}

// encodeDelta writes kind, the keys deleted after base, and the keys set
// after base. A full delta passes base 0 and omits the deletions: the
// receiver starts from nothing. The caller holds s.mu.
func (s *State) encodeDelta(kind, base uint64) []byte {
	var dels []tombstone
	if kind == deltaSince {
		first := len(s.tombs)
		for first > 0 && s.tombs[first-1].gen > base {
			first--
		}
		dels = s.tombs[first:]
	}
	keys, size := s.keysSince(base)
	for _, t := range dels {
		size += len(t.key) + binary.MaxVarintLen64
	}
	e := wire.NewEncoder(size + 2*binary.MaxVarintLen64)
	e.PutUvarint(kind)
	e.PutUvarint(uint64(len(dels)))
	for _, t := range dels {
		e.PutString(t.key)
	}
	s.putSets(e, keys)
	return e.Bytes()
}

// ErrCorrupt is returned when captured state cannot be decoded.
var ErrCorrupt = errors.New("objstate: corrupt state")

// keyValue is one decoded Set; val is the receiver's own copy.
type keyValue struct {
	key string
	val []byte
}

// decodeCount reads an element count and rejects one the remaining bytes
// cannot possibly hold, so corrupt input cannot force a huge allocation.
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

// decodeSets parses a run written by putSets, copying every value out of
// the decoder's buffer.
func decodeSets(dec *wire.Decoder) ([]keyValue, error) {
	n, err := decodeCount(dec, "key")
	if err != nil {
		return nil, err
	}
	sets := make([]keyValue, 0, min(n, 32)) // n is untrusted: grow on demand past a typical delta
	for i := 0; i < n; i++ {
		k, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: key: %v", ErrCorrupt, err)
		}
		v, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: value: %v", ErrCorrupt, err)
		}
		sets = append(sets, keyValue{key: k, val: append(make([]byte, 0, len(v)), v...)})
	}
	return sets, nil
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
// invalidates every earlier delta base: EncodeSince of a generation before
// it reports ok == false, because what the replacement removed is unknown.
func (s *State) ReplaceFrom(buf []byte) error {
	sets, err := decodeSets(wire.NewDecoder(buf))
	if err != nil {
		return err
	}
	s.apply(true, nil, sets)
	return nil
}

// ApplyDelta atomically applies a delta produced by EncodeFull or
// EncodeSince on another State: a full delta replaces the contents, an
// incremental one deletes and sets the keys it names. Either lands as
// exactly one generation bump, never as a partially applied mixture, and on
// decode failure the state is left untouched. This is the backup side of
// replica state shipping.
func (s *State) ApplyDelta(buf []byte) error {
	dec := wire.NewDecoder(buf)
	kind, err := dec.Uvarint()
	if err != nil {
		return fmt.Errorf("%w: delta kind: %v", ErrCorrupt, err)
	}
	if kind != deltaFull && kind != deltaSince {
		return fmt.Errorf("%w: delta kind %d", ErrCorrupt, kind)
	}
	n, err := decodeCount(dec, "delete")
	if err != nil {
		return err
	}
	if kind == deltaFull && n != 0 {
		return fmt.Errorf("%w: full delta carries %d deletes", ErrCorrupt, n)
	}
	dels := make([]string, 0, min(n, 32))
	for i := 0; i < n; i++ {
		k, err := dec.String()
		if err != nil {
			return fmt.Errorf("%w: deleted key: %v", ErrCorrupt, err)
		}
		dels = append(dels, k)
	}
	sets, err := decodeSets(dec)
	if err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after delta", ErrCorrupt, dec.Remaining())
	}
	s.apply(kind == deltaFull, dels, sets)
	return nil
}

// apply is the one mutation path for decoded images and deltas: under one
// lock hold and one generation bump it optionally discards the current
// contents, then deletes dels, then stores sets (deletes first, so a key
// deleted and set again within one delta survives). Stored entries carry
// the new generation and deletions leave tombstones, so the receiver can
// itself serve deltas from this point on.
func (s *State) apply(replace bool, dels []string, sets []keyValue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if replace {
		s.data = make(map[string]entry, len(sets))
		s.floor, s.tombs = s.gen, nil
	}
	for _, k := range dels {
		if _, ok := s.data[k]; ok {
			s.remove(k)
		}
	}
	for _, kv := range sets {
		s.data[kv.key] = entry{val: kv.val, gen: s.gen}
	}
}
