package rpc

import (
	"encoding/binary"
	"fmt"

	"godcdo/internal/wire"
)

// Backup read routing: when a LOID's distribution policy allows reads off
// the primary (ReadPreference backup-ok with eventual consistency), the
// client wraps an idempotent invocation in MethodReplRead and sends it to a
// backup replica. The replica unwraps it and invokes the inner method
// locally on any role — the one replication-protocol method that is not
// primary-only. The constant and codec live here rather than in
// internal/replica because the client must speak the wrapper without
// importing the replica runtime.

// MethodReplRead wraps an idempotent, read-only method invocation for
// delivery to any member of a replica group.
const MethodReplRead = "repl.read"

// ReadArgs is a MethodReplRead payload: the wrapped method and its
// arguments.
type ReadArgs struct {
	Method string
	Args   []byte
}

// ReadArgsCodec frames ReadArgs. Most backup-ok traffic rides it, so it is
// written out rather than built with NewCodec, whose encoder and decoder
// escape; the method name decodes through wire's intern table, since a
// backup serves the same few reads over and over.
var ReadArgsCodec = Codec[ReadArgs]{
	Encode: func(a ReadArgs) []byte {
		return appendReadArgs(make([]byte, 0, readArgsSize(a)), a)
	},
	Decode: func(b []byte) (a ReadArgs, err error) {
		d := wire.NewDecoder(b)
		if a.Method, err = d.Name(); err != nil {
			return a, fmt.Errorf("read method: %w", err)
		}
		if a.Args, err = d.Bytes(); err != nil {
			return a, fmt.Errorf("read args: %w", err)
		}
		return a, nil
	},
}

// readArgsSize bounds the bytes appendReadArgs writes for a.
func readArgsSize(a ReadArgs) int {
	return 2*binary.MaxVarintLen64 + len(a.Method) + len(a.Args)
}

// appendReadArgs appends a's encoding to buf. The client writes each
// backup read's wrapper into a frame-pool buffer this way and releases it
// with the attempt.
func appendReadArgs(buf []byte, a ReadArgs) []byte {
	e := wire.EncoderOn(buf)
	e.PutString(a.Method)
	e.PutBytes(a.Args)
	return e.Bytes()
}
