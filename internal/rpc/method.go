package rpc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// Declared methods. Every runtime service (the DCDO's control table, the
// ICO, the manager, the binding agent, the infrastructure services and the
// replication plane) declares each method once as a Method value: its name,
// whether it is retry-safe, and the codecs of its arguments and result. The
// server builds its method table from the declarations with Handle and
// Serve, and the client calls through the same values — Call through the
// naming plane, CallAt at one endpoint — so the two ends cannot disagree on
// a payload and no call site picks its own retry class.

// Codec converts a value to and from its payload.
type Codec[T any] struct {
	Encode func(T) []byte
	Decode func([]byte) (T, error)
}

// NewCodec builds a Codec from the functions that write one value to an
// encoder and read it back from a decoder. The encoder and decoder escape
// through put and get, which costs an allocation each way: a codec on a hot
// path is written out as a Codec literal instead.
func NewCodec[T any](put func(*wire.Encoder, T), get func(*wire.Decoder) (T, error)) Codec[T] {
	return Codec[T]{
		Encode: func(v T) []byte {
			e := wire.NewEncoder(32)
			put(e, v)
			return e.Bytes()
		},
		Decode: func(b []byte) (T, error) { return get(wire.NewDecoder(b)) },
	}
}

// None is the argument or result of a method that carries nothing.
type None struct{}

// NoneCodec encodes None as an empty payload and ignores whatever payload
// it is asked to decode.
var NoneCodec = Codec[None]{
	Encode: func(None) []byte { return nil },
	Decode: func([]byte) (None, error) { return None{}, nil },
}

// RawCodec passes a payload through unframed and uncopied.
var RawCodec = Codec[[]byte]{
	Encode: func(b []byte) []byte { return b },
	Decode: func(b []byte) ([]byte, error) { return b, nil },
}

// UvarintCodec carries one unsigned integer. Decode accepts exactly the
// bytes Encode writes: one minimal uvarint (whose last byte is nonzero
// unless it is the only one) and nothing after it.
var UvarintCodec = Codec[uint64]{
	Encode: func(v uint64) []byte { return binary.AppendUvarint(make([]byte, 0, 8), v) },
	Decode: func(b []byte) (uint64, error) {
		if v, n := binary.Uvarint(b); n > 0 && n == len(b) && (n == 1 || b[n-1] != 0) {
			return v, nil
		}
		return 0, fmt.Errorf("a %d-byte payload is not one minimal uvarint", len(b))
	},
}

// StringCodec carries one string.
var StringCodec = NewCodec((*wire.Encoder).PutString, (*wire.Decoder).String)

// JSONCodec carries a value as its JSON document, for services far from
// the invoke path whose data already has a JSON shape. Decoding is strict:
// an empty or malformed payload is refused. A value JSON cannot represent
// encodes as an empty payload, which the other end refuses in turn.
func JSONCodec[T any]() Codec[T] {
	return Codec[T]{
		Encode: func(v T) []byte {
			b, _ := json.Marshal(v)
			return b
		},
		Decode: func(b []byte) (v T, err error) {
			err = json.Unmarshal(b, &v)
			return v, err
		},
	}
}

// PutLOID writes a LOID as its canonical string.
func PutLOID(e *wire.Encoder, loid naming.LOID) { e.PutString(loid.String()) }

// GetLOID reads a PutLOID LOID.
func GetLOID(d *wire.Decoder) (naming.LOID, error) {
	s, err := d.String()
	if err != nil {
		return naming.LOID{}, err
	}
	return naming.ParseLOID(s)
}

// LOIDCodec carries one LOID.
var LOIDCodec = NewCodec(PutLOID, GetLOID)

// PutRun writes items as a count-prefixed run.
func PutRun[T any](e *wire.Encoder, items []T, put func(*wire.Encoder, T)) {
	e.PutUvarint(uint64(len(items)))
	for _, it := range items {
		put(e, it)
	}
}

// GetRun reads a PutRun run. A count larger than the remaining payload is
// refused before anything is allocated, since every item takes at least a
// byte; an empty run reads as nil.
func GetRun[T any](d *wire.Decoder, get func(*wire.Decoder) (T, error)) ([]T, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("count %d exceeds payload", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, 0, n)
	for i := uint64(0); i < n; i++ {
		it, err := get(d)
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// Method declares one remotely callable method.
type Method[A, R any] struct {
	Name string
	// Idempotent marks a method that only reads: the client retries it
	// through ambiguous failures. It never routes the method to a backup;
	// backups serve only dynamic functions (see Function).
	Idempotent bool
	Args       Codec[A]
	Result     Codec[R]
}

// Call invokes the method on loid through client and decodes its result.
func (m Method[A, R]) Call(ctx context.Context, client *Client, loid naming.LOID, a A) (R, error) {
	return m.call(ctx, client, loid, a, false)
}

// call runs Call, letting the first attempt go to a backup when backupOK is
// set and the binding's policy allows backup reads.
func (m Method[A, R]) call(ctx context.Context, client *Client, loid naming.LOID, a A, backupOK bool) (R, error) {
	var zero R
	out, err := client.invoke(ctx, BatchCall{LOID: loid, Method: m.Name, Args: m.Args.Encode(a), Idempotent: m.Idempotent}, backupOK)
	if err != nil {
		return zero, err
	}
	r, err := m.Result.Decode(out)
	if err != nil {
		return zero, fmt.Errorf("%s.%s: decode result: %w", loid, m.Name, err)
	}
	return r, nil
}

// CallAt invokes the method on loid at one endpoint, bypassing binding
// resolution, and decodes its result. It makes exactly one attempt through
// DirectCall whatever Idempotent says: the callers that address an exact
// endpoint (journal and state shipping, group control, probes, the binding
// agent proxy) each keep their own retry rules. A failure wraps DirectCall's
// error, so errors.Is and errors.As see the same *RemoteError sentinels and
// transport retry classes.
func (m Method[A, R]) CallAt(ctx context.Context, dialer transport.Dialer, endpoint string, loid naming.LOID, timeout time.Duration, a A) (R, error) {
	var zero R
	out, err := DirectCall(ctx, dialer, endpoint, loid, m.Name, m.Args.Encode(a), timeout)
	if err != nil {
		return zero, fmt.Errorf("%s at %s: %w", m.Name, endpoint, err)
	}
	r, err := m.Result.Decode(out)
	if err != nil {
		return zero, fmt.Errorf("%s at %s: decode result: %w", m.Name, endpoint, err)
	}
	return r, nil
}

// Route is one method of a table: its name and the handler Serve dispatches
// the raw payload to.
type Route struct {
	Name  string
	serve func(ctx context.Context, args []byte) ([]byte, error)
}

// Handle binds fn as the method's server side. The route refuses a payload
// the Args codec cannot decode with ErrBadRequest before fn runs.
func (m Method[A, R]) Handle(fn func(context.Context, A) (R, error)) Route {
	return Route{Name: m.Name, serve: serve(m, fn)}
}

// serve wraps fn, called with the caller's context C, as a handler of raw
// payloads: it refuses a payload the Args codec cannot decode with
// ErrBadRequest before fn runs, and encodes fn's result.
func serve[C, A, R any](m Method[A, R], fn func(C, A) (R, error)) func(C, []byte) ([]byte, error) {
	return func(c C, args []byte) ([]byte, error) {
		a, err := m.Args.Decode(args)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrBadRequest, m.Name, err)
		}
		r, err := fn(c, a)
		if err != nil {
			return nil, err
		}
		return m.Result.Encode(r), nil
	}
}

// Table is a set of routes keyed by method name. It implements Object and
// ContextAwareObject, answering a name it does not hold with
// ErrNoSuchFunction.
type Table map[string]Route

var (
	_ Object             = Table(nil)
	_ ContextAwareObject = Table(nil)
)

// Serve builds the table of routes. Two routes with one name are a
// programming error.
func Serve(routes ...Route) Table {
	t := make(Table, len(routes))
	for _, r := range routes {
		if _, dup := t[r.Name]; dup {
			panic("rpc: method " + r.Name + " served twice")
		}
		t[r.Name] = r
	}
	return t
}

// InvokeMethod implements Object.
func (t Table) InvokeMethod(method string, args []byte) ([]byte, error) {
	return t.InvokeMethodCtx(context.Background(), method, args)
}

// InvokeMethodCtx implements ContextAwareObject.
func (t Table) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	r, ok := t[method]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFunction, method)
	}
	return r.serve(ctx, args)
}
