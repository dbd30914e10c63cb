// Package replica puts N instances behind one LOID as a primary/backup
// group. The primary executes dynamic functions and synchronously ships what
// the call changed in the object state (an objstate delta) to every backup;
// backups refuse dynamic traffic with rpc.ErrNotPrimary but serve the dcdo.*
// control plane, so version probes and descriptor evolution reach every
// member directly.
//
// Group membership and leadership are versioned by an epoch. Every shipment
// carries the shipper's epoch; a member holding a higher epoch rejects it
// with rpc.ErrFenced, which makes a deposed primary demote itself the moment
// it tries to act for the group — the classic fencing token, on the object
// plane rather than the lock plane.
//
// Within an epoch shipments are numbered. Each names the earlier shipment it
// builds on (base) and carries the keys changed since; a backup applies it
// only when it holds that base or something later, and otherwise says what
// it holds so the primary can send it the whole state. Base 0 means "replace
// everything": a full snapshot is the degenerate delta, with the same codec
// and the same apply path.
package replica

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// Role is a replica's position in its group.
type Role int

const (
	// RoleBackup replicas apply shipped state and refuse dynamic calls.
	RoleBackup Role = iota
	// RolePrimary replicas execute dynamic calls and ship state to backups.
	RolePrimary
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// Replication methods, hosted on the replica's own LOID beside the object's
// dynamic and control methods. The "repl." prefix is reserved the same way
// core.ControlPrefix is.
const (
	// ReplPrefix marks replication-plane methods.
	ReplPrefix = "repl."
	// MethodShip ships state: epoch, sequence, base sequence, objstate
	// delta. The response is the sequence the receiver holds afterwards.
	MethodShip = ReplPrefix + "ship"
	// MethodPromote makes the receiver primary at a new epoch with a new
	// backup list.
	MethodPromote = ReplPrefix + "promote"
	// MethodDemote makes the receiver a backup at a new epoch.
	MethodDemote = ReplPrefix + "demote"
	// MethodStatus reports role, epoch, applied sequence, and version.
	MethodStatus = ReplPrefix + "status"
	// MethodSyncTo (primary-only) ships a full state image to one named
	// endpoint: how a freshly hosted backup is seeded when a group expands.
	MethodSyncTo = ReplPrefix + "syncto"
)

// Inner is the object a Replica wraps: context-aware invocation plus the
// serialisable state container replication ships. core.DCDO satisfies it.
type Inner interface {
	InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error)
	State() *objstate.State
}

// Replica wraps one group member. It implements rpc.Object and
// rpc.ContextAwareObject, so it is hosted on a dispatcher exactly where the
// bare object would be; degree-1 deployments simply never construct one,
// which is how replication costs nothing when it is off.
type Replica struct {
	loid   naming.LOID
	inner  Inner
	dialer transport.Dialer

	// ShipTimeout bounds each state shipment to one backup. Zero means 2 s.
	ShipTimeout time.Duration

	mu      sync.Mutex
	role    Role
	epoch   uint64
	seq     uint64   // within epoch — primary: last shipped; backup: last applied
	backups []string // primary only: endpoints state ships to
	config  uint64   // bumped by reconfigure, so an in-flight shipment cannot commit into a newer configuration

	// Primary: the delta base. shipGen is the state generation the last
	// fully acknowledged shipment covered; ackSeq is that shipment's
	// sequence number, 0 when the next shipment must be full.
	shipGen uint64
	ackSeq  uint64

	// Backup: shipments applied, each exactly one state-generation bump;
	// the repl.read guard subtracts them from the generations it saw pass.
	applied uint64

	// shipMu serialises encoding and shipment so sequence numbers observed
	// by backups are in state order.
	shipMu sync.Mutex

	shipsDelta, shipsFull, shipFallbacks, shipBytes atomic.Uint64
	events                                          atomic.Pointer[obs.EventLog]
}

var (
	_ rpc.Object             = (*Replica)(nil)
	_ rpc.ContextAwareObject = (*Replica)(nil)
	_ obs.Configurable       = (*Replica)(nil)
)

// New returns a replica for loid wrapping inner. Role, epoch, and the
// backup list come from the caller (the group bootstrapper): the initial
// primary starts at epoch 1 with its peers as backups; initial backups
// start at epoch 1 with no peer list.
func New(loid naming.LOID, inner Inner, dialer transport.Dialer, role Role, epoch uint64, backups []string) *Replica {
	return &Replica{
		loid:    loid,
		inner:   inner,
		dialer:  dialer,
		role:    role,
		epoch:   epoch,
		backups: append([]string(nil), backups...),
	}
}

// Status is a replica's self-report.
type Status struct {
	Role  Role
	Epoch uint64
	Seq   uint64
	// VersionSegs is the wrapped object's version (version.ID segments),
	// captured via the control plane.
	VersionSegs []uint64
	// AckSeq is, on a primary, the shipment every backup acknowledged and
	// the next delta builds on; 0 means the next shipment is a full image.
	AckSeq uint64
}

// Stats counts a primary's shipments, one per backup reached.
type Stats struct {
	// ShipsDelta counts shipments that carried only the changed keys.
	ShipsDelta uint64 `json:"ships_delta"`
	// ShipsFull counts shipments that carried the whole state (base 0).
	ShipsFull uint64 `json:"ships_full"`
	// ShipFallbacks counts deltas a backup refused because it did not hold
	// their base, each answered with a full shipment in the same call.
	ShipFallbacks uint64 `json:"ship_fallbacks"`
	// ShipBytes is the payload bytes of all of the above.
	ShipBytes uint64 `json:"ship_bytes"`
}

// Stats returns a snapshot of the shipment counters.
func (r *Replica) Stats() Stats {
	return Stats{
		ShipsDelta:    r.shipsDelta.Load(),
		ShipsFull:     r.shipsFull.Load(),
		ShipFallbacks: r.shipFallbacks.Load(),
		ShipBytes:     r.shipBytes.Load(),
	}
}

// SetObs implements obs.Configurable: shipment fallbacks are mirrored into
// o's event log. A nil o turns that off.
func (r *Replica) SetObs(o *obs.Obs) { r.events.Store(o.GetEvents()) }

// Role returns the replica's current role.
func (r *Replica) CurrentRole() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch returns the replica's current group epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// InvokeMethod implements rpc.Object.
func (r *Replica) InvokeMethod(method string, args []byte) ([]byte, error) {
	return r.InvokeMethodCtx(context.Background(), method, args)
}

// InvokeMethodCtx implements rpc.ContextAwareObject: replication-plane
// methods are handled here, control-plane methods pass through on any role
// (probes and evolution must reach backups), and dynamic methods execute on
// the primary only, followed by a synchronous state shipment when the call
// mutated state.
func (r *Replica) InvokeMethodCtx(ctx context.Context, method string, args []byte) ([]byte, error) {
	if strings.HasPrefix(method, ReplPrefix) {
		return r.invokeRepl(ctx, method, args)
	}
	if strings.HasPrefix(method, core.ControlPrefix) {
		return r.inner.InvokeMethodCtx(ctx, method, args)
	}
	r.mu.Lock()
	role, epoch := r.role, r.epoch
	r.mu.Unlock()
	if role != RolePrimary {
		return nil, fmt.Errorf("%w: %s (epoch %d)", rpc.ErrNotPrimary, r.loid, epoch)
	}
	return r.invokePrimary(ctx, method, args)
}

// invokePrimary executes a dynamic method and commits what it changed to
// the group before answering.
func (r *Replica) invokePrimary(ctx context.Context, method string, args []byte) ([]byte, error) {
	out, err := r.inner.InvokeMethodCtx(ctx, method, args)
	if err != nil {
		return out, err
	}
	if shipErr := r.shipIfChanged(ctx); shipErr != nil {
		if errors.Is(shipErr, rpc.ErrFenced) {
			// A backup holds a newer epoch: we are deposed. The local
			// execution never committed to the group (the shipment was
			// refused), so tell the caller to re-resolve and retry against
			// the real primary.
			return nil, fmt.Errorf("%w: deposed primary for %s: %v", rpc.ErrNotPrimary, r.loid, shipErr)
		}
		// The primary is healthy but cannot commit to its group right now
		// (typically a dead backup the reconciler has not yet dropped).
		// ErrUnavailable tells the client the condition is transient and that
		// the call may have executed locally without committing: idempotent
		// invokes retry through it, non-idempotent ones surface ambiguity.
		return nil, fmt.Errorf("%w: replica %s: state shipment failed: %v", rpc.ErrUnavailable, r.loid, shipErr)
	}
	return out, nil
}

// shipIfChanged ships to every backup what changed since the last shipment
// they all acknowledged, if the state generation moved since. Shipments are
// serialised so backups can order them by sequence number alone. A failed
// shipment leaves the base where it was: the next one spans both, and a
// backup that did apply this one accepts that too, because it accepts any
// base at or before what it holds.
func (r *Replica) shipIfChanged(ctx context.Context) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()

	st := r.inner.State()
	r.mu.Lock()
	if st.Generation() == r.shipGen {
		r.mu.Unlock()
		return nil
	}
	if r.role != RolePrimary {
		// Demoted between executing and committing, with changes no backup
		// was sent: they stay local, and the caller must hear that, not
		// success — the next primary's full image will overwrite them.
		epoch := r.epoch
		r.mu.Unlock()
		return fmt.Errorf("%w: %s demoted at epoch %d before the call committed", rpc.ErrFenced, r.loid, epoch)
	}
	if len(r.backups) == 0 {
		r.shipGen = st.Generation()
		r.mu.Unlock()
		return nil
	}
	r.seq++
	epoch, seq, config := r.epoch, r.seq, r.config
	backups := r.backups // replaced, never mutated, by reconfigure
	base, baseGen := r.ackSeq, r.shipGen
	r.mu.Unlock()

	var delta []byte
	var gen uint64
	if base != 0 {
		var ok bool
		if delta, gen, ok = st.EncodeSince(baseGen); !ok {
			base = 0
		}
	}
	if base == 0 {
		delta, gen = st.EncodeFull()
	}
	payload := encodeShipment(epoch, seq, base, delta)

	var full []byte // built at most once, for backups that refuse the delta
	var firstErr error
	for _, endpoint := range backups {
		held, err := r.shipTo(ctx, endpoint, payload, base)
		if err == nil && held < seq && base != 0 {
			r.shipFallbacks.Add(1)
			r.events.Load().Append(obs.Event{Kind: "ship-fallback", Object: r.loid.String(),
				Detail: fmt.Sprintf("backup=%s base=%d held=%d", endpoint, base, held)})
			if full == nil {
				image, _ := st.EncodeFull() // may be newer than gen; the next delta still starts at gen
				full = encodeShipment(epoch, seq, 0, image)
			}
			held, err = r.shipTo(ctx, endpoint, full, 0)
		}
		if errors.Is(err, rpc.ErrFenced) {
			r.demoteSelf()
			return err
		}
		if err == nil && held < seq {
			err = fmt.Errorf("refused shipment %d, holds %d", seq, held)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("backup %s: %w", endpoint, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	r.mu.Lock()
	if r.config == config {
		r.shipGen, r.ackSeq = gen, seq
	}
	r.mu.Unlock()
	return nil
}

// syncTo ships one full image to endpoint at the primary's current epoch
// and a fresh sequence number. It shares shipMu with shipIfChanged so the
// seeded image is ordered against regular shipments; a following dynamic
// call re-ships to everyone at a later sequence, so over-shipping is the
// worst case, divergence never.
func (r *Replica) syncTo(ctx context.Context, endpoint string) error {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()

	r.mu.Lock()
	if r.role != RolePrimary {
		epoch := r.epoch
		r.mu.Unlock()
		return fmt.Errorf("%w: %s (epoch %d)", rpc.ErrNotPrimary, r.loid, epoch)
	}
	r.seq++
	seq := r.seq
	epoch := r.epoch
	r.mu.Unlock()

	image, _ := r.inner.State().EncodeFull()
	_, err := r.shipTo(ctx, endpoint, encodeShipment(epoch, seq, 0, image), 0)
	if errors.Is(err, rpc.ErrFenced) {
		r.demoteSelf()
		return err
	}
	if err != nil {
		return fmt.Errorf("sync %s to %s: %w", r.loid, endpoint, err)
	}
	return nil
}

// encodeShipment builds a MethodShip payload.
func encodeShipment(epoch, seq, base uint64, delta []byte) []byte {
	e := wire.NewEncoder(len(delta) + 32)
	e.PutUvarint(epoch)
	e.PutUvarint(seq)
	e.PutUvarint(base)
	e.PutBytes(delta)
	return e.Bytes()
}

// shipTo sends one shipment to one backup, counts it, and returns the
// sequence the backup holds afterwards.
func (r *Replica) shipTo(ctx context.Context, endpoint string, payload []byte, base uint64) (held uint64, err error) {
	if base == 0 {
		r.shipsFull.Add(1)
	} else {
		r.shipsDelta.Add(1)
	}
	r.shipBytes.Add(uint64(len(payload)))
	out, err := rpc.DirectCall(ctx, r.dialer, endpoint, r.loid, MethodShip, payload, r.shipTimeout())
	if err != nil {
		return 0, err
	}
	if held, err = wire.NewDecoder(out).Uvarint(); err != nil {
		return 0, fmt.Errorf("ship response: %w", err)
	}
	return held, nil
}

// reconfigure installs an epoch, role and backup list. The caller holds
// r.mu. Sequence numbers count shipments within one epoch, so a later epoch
// restarts them; and whatever changed, the backups the delta base was
// acknowledged by are no longer known to be the ones shipped to next, so
// the next shipment is a full image.
func (r *Replica) reconfigure(epoch uint64, role Role, backups []string) {
	if epoch > r.epoch {
		r.epoch = epoch
		r.seq = 0
	}
	r.role, r.backups = role, backups
	r.ackSeq = 0
	r.config++
}

// demoteSelf demotes a fenced ex-primary in place.
func (r *Replica) demoteSelf() {
	r.mu.Lock()
	r.reconfigure(r.epoch, RoleBackup, nil)
	r.mu.Unlock()
}

func (r *Replica) shipTimeout() time.Duration {
	if r.ShipTimeout > 0 {
		return r.ShipTimeout
	}
	return 2 * time.Second
}

// invokeRepl handles the replication plane.
func (r *Replica) invokeRepl(ctx context.Context, method string, args []byte) ([]byte, error) {
	dec := wire.NewDecoder(args)
	switch method {
	case rpc.MethodReplRead:
		// Policy-routed read: unwrap and execute locally on ANY role — the
		// one replication-plane method backups serve. The caller asserted
		// the inner method is read-only; the generation check makes a
		// violation loud instead of letting a backup silently diverge.
		inner, innerArgs, err := rpc.DecodeReadArgs(args)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(inner, ReplPrefix) || strings.HasPrefix(inner, core.ControlPrefix) {
			return nil, fmt.Errorf("%w: %q may not ride %s", rpc.ErrBadRequest, inner, rpc.MethodReplRead)
		}
		r.mu.Lock()
		if r.role == RolePrimary {
			// Concurrent writes move a primary's generation, so the guard
			// below cannot tell them from the read's own. The guard exists
			// to stop a backup diverging, and a primary cannot diverge
			// from its group: execute the read as the dynamic call it is —
			// whatever it changes ships. The asymmetry is deliberate: a
			// wrapped mutation is refused on a backup and committed here.
			// Clients wrap reads for backups only, so this is a binding
			// gone stale across a promotion.
			r.mu.Unlock()
			return r.invokePrimary(ctx, inner, innerArgs)
		}
		st := r.inner.State()
		gen, applied := st.Generation(), r.applied
		r.mu.Unlock()
		out, err := r.inner.InvokeMethodCtx(ctx, inner, innerArgs)
		if err != nil {
			return nil, err
		}
		// Shipments landing mid-read move the generation too, one each, and
		// they apply under r.mu: any movement beyond theirs is the read's.
		r.mu.Lock()
		mutated := st.Generation()-gen != r.applied-applied
		if mutated && r.role == RoleBackup {
			// This state is no shipment's result any more, so it is no
			// delta's base: holding nothing makes the next one a full image.
			r.seq = 0
		}
		r.mu.Unlock()
		if mutated {
			return nil, fmt.Errorf("replica %s: %q mutated state via %s; backup-ok reads must be read-only",
				r.loid, inner, rpc.MethodReplRead)
		}
		return out, nil

	case MethodSyncTo:
		endpoint, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: endpoint: %v", rpc.ErrBadRequest, err)
		}
		return nil, r.syncTo(ctx, endpoint)
	case MethodShip:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		seq, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: seq: %v", rpc.ErrBadRequest, err)
		}
		base, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: base: %v", rpc.ErrBadRequest, err)
		}
		delta, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: delta: %v", rpc.ErrBadRequest, err)
		}
		// Held across the apply so the sequence number and the state move
		// together, and so the repl.read guard sees each applied shipment
		// with its generation bump.
		r.mu.Lock()
		defer r.mu.Unlock()
		if epoch < r.epoch {
			return nil, fmt.Errorf("%w: shipment epoch %d < group epoch %d", rpc.ErrFenced, epoch, r.epoch)
		}
		if epoch > r.epoch {
			// A new leadership era we missed: adopt it. If we thought we
			// were primary, two primaries existed and the higher epoch wins.
			r.reconfigure(epoch, RoleBackup, nil)
		}
		// base <= r.seq: we hold what the delta builds on (always, for base
		// 0). r.seq < seq: not a duplicate or a reordered older shipment.
		// Anything else changes nothing, and the answer says what we hold.
		if base <= r.seq && r.seq < seq {
			if err := r.inner.State().ApplyDelta(delta); err != nil {
				return nil, fmt.Errorf("replica %s: apply shipment %d: %w", r.loid, seq, err)
			}
			r.seq = seq
			r.applied++
		}
		e := wire.NewEncoder(8)
		e.PutUvarint(r.seq)
		return e.Bytes(), nil

	case MethodPromote:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		n, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: backup count: %v", rpc.ErrBadRequest, err)
		}
		backups := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			b, err := dec.String()
			if err != nil {
				return nil, fmt.Errorf("%w: backup: %v", rpc.ErrBadRequest, err)
			}
			backups = append(backups, b)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if epoch <= r.epoch && !(epoch == r.epoch && r.role == RolePrimary) {
			return nil, fmt.Errorf("%w: promote epoch %d not newer than %d", rpc.ErrFenced, epoch, r.epoch)
		}
		r.reconfigure(epoch, RolePrimary, backups)
		return nil, nil

	case MethodDemote:
		epoch, err := dec.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: epoch: %v", rpc.ErrBadRequest, err)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if epoch < r.epoch {
			return nil, fmt.Errorf("%w: demote epoch %d < group epoch %d", rpc.ErrFenced, epoch, r.epoch)
		}
		r.reconfigure(epoch, RoleBackup, nil)
		return nil, nil

	case MethodStatus:
		segs, err := r.versionSegs(ctx)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		st := Status{Role: r.role, Epoch: r.epoch, Seq: r.seq, VersionSegs: segs, AckSeq: r.ackSeq}
		r.mu.Unlock()
		e := wire.NewEncoder(32)
		e.PutString(st.Role.String())
		e.PutUvarint(st.Epoch)
		e.PutUvarint(st.Seq)
		e.PutUintSlice(st.VersionSegs)
		e.PutUvarint(st.AckSeq) // fields are append-only: older readers stop before it
		return e.Bytes(), nil

	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

// versionSegs reads the wrapped object's version via its control plane.
func (r *Replica) versionSegs(ctx context.Context) ([]uint64, error) {
	out, err := r.inner.InvokeMethodCtx(ctx, core.MethodVersion.Name, nil)
	if err != nil {
		return nil, err
	}
	v, err := core.MethodVersion.Result.Decode(out)
	return v.Encode(), err
}

// EncodePromoteArgs encodes a MethodPromote payload.
func EncodePromoteArgs(epoch uint64, backups []string) []byte {
	e := wire.NewEncoder(64)
	e.PutUvarint(epoch)
	e.PutUvarint(uint64(len(backups)))
	for _, b := range backups {
		e.PutString(b)
	}
	return e.Bytes()
}

// EncodeDemoteArgs encodes a MethodDemote payload.
func EncodeDemoteArgs(epoch uint64) []byte {
	e := wire.NewEncoder(8)
	e.PutUvarint(epoch)
	return e.Bytes()
}

// EncodeSyncToArgs encodes a MethodSyncTo payload.
func EncodeSyncToArgs(endpoint string) []byte {
	e := wire.NewEncoder(16 + len(endpoint))
	e.PutString(endpoint)
	return e.Bytes()
}

// DecodeStatus parses a MethodStatus response.
func DecodeStatus(buf []byte) (Status, error) {
	dec := wire.NewDecoder(buf)
	role, err := dec.String()
	if err != nil {
		return Status{}, fmt.Errorf("status: role: %w", err)
	}
	epoch, err := dec.Uvarint()
	if err != nil {
		return Status{}, fmt.Errorf("status: epoch: %w", err)
	}
	seq, err := dec.Uvarint()
	if err != nil {
		return Status{}, fmt.Errorf("status: seq: %w", err)
	}
	segs, err := dec.UintSlice()
	if err != nil {
		return Status{}, fmt.Errorf("status: version: %w", err)
	}
	st := Status{Epoch: epoch, Seq: seq, VersionSegs: segs}
	if role == RolePrimary.String() {
		st.Role = RolePrimary
	}
	if dec.Remaining() > 0 { // absent from members that predate it
		if st.AckSeq, err = dec.Uvarint(); err != nil {
			return Status{}, fmt.Errorf("status: ack seq: %w", err)
		}
	}
	return st, nil
}
