package rpc

import (
	"context"
	"sync"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// DirectCall invokes method on the object hosted at a specific endpoint,
// bypassing binding resolution entirely: one attempt of the call loop at a
// fixed endpoint. Replication plumbing lives here: state shipping to a named
// backup, probing one member of a replica set, journal shipping to a standby
// manager — all cases where the caller must reach an exact endpoint, not
// whichever one the naming plane would pick. Remote failures are returned as
// *RemoteError (matchable via errors.Is against the package sentinels);
// transport failures are returned as-is so callers can classify them.
func DirectCall(ctx context.Context, dialer transport.Dialer, endpoint string, loid naming.LOID, method string, args []byte, timeout time.Duration) ([]byte, error) {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	req := wire.GetEnvelope()
	req.Kind, req.Target, req.Method, req.Payload = wire.KindRequest, targetOf(loid), method, args
	return attempt(ctx, dialer, endpoint, req, nil, timeout)
}

// attempt is every route's one exchange with the wire: it sends req, a
// pooled request or batch-request envelope, to endpoint and returns the
// payload of an answer of the matching kind, or the attempt's failure: the
// transport's error, the server's error envelope as a *RemoteError, or an
// answer of the wrong kind. req, and wrapper (a backup read's pooled
// repl.read payload, or nil), are released once the dialer is done with
// them, and the response once its payload is taken. An in-process handler
// may answer with req itself, which is then released once, as the
// response, or with a result aliasing its arguments, as an echo does.
// Whatever the payload still uses is left to the GC.
func attempt(ctx context.Context, dialer transport.Dialer, endpoint string, req *wire.Envelope, wrapper []byte, timeout time.Duration) ([]byte, error) {
	want := wire.KindResponse
	if req.Kind == wire.KindBatchRequest {
		want = wire.KindBatchResponse
	}
	resp, err := dialer.Call(ctx, endpoint, req, timeout)
	if wrapper != nil && (resp == nil || !wire.Overlaps(resp.Payload, wrapper)) {
		wire.PutBuf(wrapper)
	}
	transport.ReleaseRequest(req, resp)
	if err != nil {
		return nil, err
	}
	err = answerErr(resp, want)
	payload := resp.TakePayload()
	wire.PutEnvelope(resp)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// maxTargets caps the target table; at the cap it is cleared rather than
// frozen, like wire's name intern table.
const maxTargets = 1024

// targets maps each LOID to its canonical Target string for every client
// and DirectCall in the process. Rendering the string costs an allocation
// per call otherwise, and a process talks to a small, stable set of objects.
var targets = struct {
	sync.RWMutex
	m map[naming.LOID]string
}{m: make(map[naming.LOID]string)}

// targetOf returns loid's canonical string through the target table.
func targetOf(loid naming.LOID) string {
	targets.RLock()
	s, ok := targets.m[loid]
	targets.RUnlock()
	if ok {
		return s
	}
	s = loid.String()
	targets.Lock()
	if len(targets.m) >= maxTargets {
		clear(targets.m)
	}
	targets.m[loid] = s
	targets.Unlock()
	return s
}
