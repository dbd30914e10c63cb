package wire

import "sync"

// Request names repeat: a node serves a few objects and a few methods on
// each, yet decoding Target and Method as fresh strings cost two
// allocations per request. decodeFrom reads both through a small intern
// table instead, so a name seen before costs a read lock and no allocation.
// Strings are immutable, so a handler may keep an interned name. Payloads
// that carry a name of their own (the backup-read wrapper's method) read it
// through Decoder.Name, which uses the same table.
const (
	// maxInternedNames caps the table. At the cap it is cleared rather than
	// frozen, so a long-lived node follows its current working set.
	maxInternedNames = 1024
	// maxInternLen bounds the names worth interning; longer ones are copied.
	maxInternLen = 128
)

// interned is shared by every decoder in the process, like the frame and
// envelope pools.
var interned = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string, maxInternedNames)}

// Name reads a length-prefixed string, like String, through the intern
// table: a name decoded before costs no allocation.
func (d *Decoder) Name() (string, error) {
	b, err := d.Bytes()
	if err != nil {
		return "", err
	}
	return internName(b), nil
}

// internName returns b as a string, reusing an earlier copy of the same
// bytes when the table holds one.
func internName(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	interned.RLock()
	s, ok := interned.m[string(b)] // the lookup's conversion does not allocate
	interned.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	interned.Lock()
	if len(interned.m) >= maxInternedNames {
		clear(interned.m)
	}
	interned.m[s] = s
	interned.Unlock()
	return s
}
