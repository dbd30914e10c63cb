package rpc

import (
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
// escape.
var ReadArgsCodec = Codec[ReadArgs]{
	Encode: func(a ReadArgs) []byte {
		e := wire.NewEncoder(16 + len(a.Method) + len(a.Args))
		e.PutString(a.Method)
		e.PutBytes(a.Args)
		return e.Bytes()
	},
	Decode: func(b []byte) (a ReadArgs, err error) {
		d := wire.NewDecoder(b)
		if a.Method, err = d.String(); err != nil {
			return a, fmt.Errorf("read method: %w", err)
		}
		if a.Args, err = d.Bytes(); err != nil {
			return a, fmt.Errorf("read args: %w", err)
		}
		return a, nil
	},
}
