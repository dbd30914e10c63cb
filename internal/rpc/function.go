package rpc

import (
	"context"

	"godcdo/internal/naming"
	"godcdo/internal/registry"
)

// Function declares one dynamic function with a Method's fields, and builds
// its three ends from them: the body a component binds into the DFM (Func),
// the client's call (Call) and the call from another dynamic function of
// the same object (CallInternal). Unlike a Method's, an Idempotent
// function's call may go to a backup when the binding's policy allows backup
// reads: backups serve dynamic functions through repl.read, and refuse the
// object's dcdo.* control methods there.
type Function[A, R any] Method[A, R]

// Func binds body as the function's implementation, refusing a payload the
// Args codec cannot decode as Method.Handle does.
func (f Function[A, R]) Func(body func(registry.Caller, A) (R, error)) registry.Func {
	return serve(Method[A, R](f), body)
}

// Call invokes the function on loid through client and decodes its result,
// routed as InvokeIdempotent when the function is Idempotent, as Invoke
// otherwise.
func (f Function[A, R]) Call(ctx context.Context, client *Client, loid naming.LOID, a A) (R, error) {
	return Method[A, R](f).call(ctx, client, loid, a, f.Idempotent)
}

// CallInternal invokes the function from another dynamic function of the
// same object, through the DFM behind c, and decodes its result.
func (f Function[A, R]) CallInternal(c registry.Caller, a A) (R, error) {
	out, err := c.CallInternal(f.Name, f.Args.Encode(a))
	if err != nil {
		var zero R
		return zero, err
	}
	return f.Result.Decode(out)
}
