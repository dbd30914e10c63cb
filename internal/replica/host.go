package replica

import (
	"context"
	"fmt"
	"sync"

	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// The replica-host service lets the reconciler grow a group onto a node
// that does not yet carry a member: it constructs the object via a
// node-local Factory, wraps it as a backup Replica at the caller's epoch,
// and hosts it on the node's dispatcher under the group LOID. The service
// lives at rpc.ReplicaHostLOID beside the other infrastructure objects; a
// node without a Factory simply does not host one and is skipped as a
// placement candidate.

// HostAddArgs are MethodHostAdd's arguments.
type HostAddArgs struct {
	LOID  naming.LOID
	Epoch uint64
}

// MethodHostAdd asks a node to host a fresh backup replica for a LOID at an
// epoch.
var MethodHostAdd = rpc.Method[HostAddArgs, rpc.None]{Name: "replhost.add",
	Args: rpc.NewCodec(putHostAddArgs, getHostAddArgs), Result: rpc.NoneCodec}

func putHostAddArgs(e *wire.Encoder, a HostAddArgs) {
	rpc.PutLOID(e, a.LOID)
	e.PutUvarint(a.Epoch)
}

func getHostAddArgs(d *wire.Decoder) (a HostAddArgs, err error) {
	if a.LOID, err = rpc.GetLOID(d); err != nil {
		return a, err
	}
	a.Epoch, err = d.Uvarint()
	return a, err
}

// Factory constructs the node-local inner object for a LOID about to join a
// replica group as a backup. The returned object's state is immediately
// overwritten by the primary's seeding snapshot, so the factory only has to
// produce something structurally correct (right class, right version).
type Factory func(loid naming.LOID) (Inner, error)

// HostService hosts backup replicas on demand.
type HostService struct {
	// Factory builds the inner object for each newly hosted LOID.
	Factory Factory
	// Dialer is handed to constructed replicas for their own shipments
	// (relevant only if the member is later promoted).
	Dialer transport.Dialer
	// Host installs an object on the node's dispatcher under loid. Wired by
	// the node (legion.NewNode) so this package needs no dispatcher import.
	Host func(loid naming.LOID, obj rpc.Object)

	tableOnce sync.Once
	table     rpc.Table

	mu     sync.Mutex
	hosted map[naming.LOID]*Replica
}

var _ rpc.Object = (*HostService)(nil)

// Hosted returns the replica this service created for loid, if any.
func (s *HostService) Hosted(loid naming.LOID) (*Replica, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.hosted[loid]
	return r, ok
}

// InvokeMethod implements rpc.Object.
func (s *HostService) InvokeMethod(method string, args []byte) ([]byte, error) {
	return s.methods().InvokeMethod(method, args)
}

// methods returns the service's table, built on first use.
func (s *HostService) methods() rpc.Table {
	s.tableOnce.Do(func() {
		s.table = rpc.Serve(MethodHostAdd.Handle(func(_ context.Context, a HostAddArgs) (rpc.None, error) {
			return rpc.None{}, s.add(a.LOID, a.Epoch)
		}))
	})
	return s.table
}

// add hosts a backup replica for loid at epoch. Adding a LOID this service
// already hosts is a no-op — the reconciler retries are idempotent, and the
// existing member's own epoch fencing governs which era it accepts.
func (s *HostService) add(loid naming.LOID, epoch uint64) error {
	if s.Factory == nil || s.Host == nil {
		return fmt.Errorf("%w: node does not accept hosted replicas", rpc.ErrNoSuchFunction)
	}
	s.mu.Lock()
	if _, ok := s.hosted[loid]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	inner, err := s.Factory(loid)
	if err != nil {
		return fmt.Errorf("host replica %s: %w", loid, err)
	}
	rep := New(loid, inner, s.Dialer, RoleBackup, epoch, nil)

	s.mu.Lock()
	if _, ok := s.hosted[loid]; ok { // lost a race with a concurrent add
		s.mu.Unlock()
		return nil
	}
	if s.hosted == nil {
		s.hosted = make(map[naming.LOID]*Replica)
	}
	s.hosted[loid] = rep
	s.mu.Unlock()

	s.Host(loid, rep)
	return nil
}
