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
// bypassing binding resolution entirely. Replication plumbing lives here:
// state shipping to a named backup, probing one member of a replica set,
// journal shipping to a standby manager — all cases where the caller must
// reach an exact endpoint, not whichever one the naming plane would pick.
// Remote failures are returned as *RemoteError (matchable via errors.Is
// against the package sentinels); transport failures are returned as-is so
// callers can classify them.
func DirectCall(ctx context.Context, dialer transport.Dialer, endpoint string, loid naming.LOID, method string, args []byte, timeout time.Duration) ([]byte, error) {
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	req := wire.GetEnvelope()
	req.Kind, req.Target, req.Method, req.Payload = wire.KindRequest, targetOf(loid), method, args
	resp, err := dialer.Call(ctx, endpoint, req, timeout)
	releaseRequest(req, resp, nil)
	if err != nil {
		return nil, err
	}
	if resp.Kind == wire.KindError {
		return nil, &RemoteError{Code: resp.Code, Message: resp.ErrorMsg}
	}
	return resp.Payload, nil
}

// releaseRequest recycles a request envelope, and wrapper (a backup read's
// pooled repl.read payload, or nil), once Dialer.Call has returned and so
// holds neither. An in-process handler may return req itself, or a result
// aliasing its arguments: an echo hands them straight back. Whatever the
// response still uses is left to the GC.
func releaseRequest(req, resp *wire.Envelope, wrapper []byte) {
	if wrapper != nil && (resp == nil || !wire.Overlaps(resp.Payload, wrapper)) {
		wire.PutBuf(wrapper)
	}
	transport.ReleaseRequest(req, resp)
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
