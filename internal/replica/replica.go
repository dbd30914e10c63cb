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

// ReplPrefix marks replication-plane methods, hosted on the replica's own
// LOID beside the object's dynamic and control methods. The prefix is
// reserved the same way core.ControlPrefix is.
const ReplPrefix = "repl."

// PromoteArgs are MethodPromote's arguments.
type PromoteArgs struct {
	Epoch   uint64
	Backups []string
}

// The replication plane. Only status and the wrapped read are reads.
var (
	// MethodShip ships state: an appendShipment frame of epoch, sequence,
	// base sequence and objstate delta. The frame is built once per
	// shipment, into a buffer the primary reuses, and sent to every backup
	// as it is. The result is what the receiver holds afterwards (ShipAck).
	MethodShip = rpc.Method[[]byte, ShipAck]{Name: ReplPrefix + "ship",
		Args: rpc.RawCodec, Result: shipAckCodec}
	// MethodPromote makes the receiver primary at a new epoch with a new
	// backup list.
	MethodPromote = rpc.Method[PromoteArgs, rpc.None]{Name: ReplPrefix + "promote",
		Args: rpc.NewCodec(putPromoteArgs, getPromoteArgs), Result: rpc.NoneCodec}
	// MethodDemote makes the receiver a backup at a new epoch.
	MethodDemote = rpc.Method[uint64, rpc.None]{Name: ReplPrefix + "demote",
		Args: rpc.UvarintCodec, Result: rpc.NoneCodec}
	// MethodStatus reports role, epoch, applied sequence, and version.
	MethodStatus = rpc.Method[rpc.None, Status]{Name: ReplPrefix + "status", Idempotent: true,
		Args: rpc.NoneCodec, Result: rpc.NewCodec(putStatus, getStatus)}
	// MethodSyncTo (primary-only) ships a full state image to one named
	// endpoint: how a freshly hosted backup is seeded when a group expands.
	MethodSyncTo = rpc.Method[string, rpc.None]{Name: ReplPrefix + "syncto",
		Args: rpc.StringCodec, Result: rpc.NoneCodec}
	// MethodRead executes a wrapped read on any role: the one
	// replication-plane method backups serve (see rpc.MethodReplRead).
	MethodRead = rpc.Method[rpc.ReadArgs, []byte]{Name: rpc.MethodReplRead, Idempotent: true,
		Args: rpc.ReadArgsCodec, Result: rpc.RawCodec}
)

// ShipAck is MethodShip's result. Took says the receiver took this
// shipment, so it holds exactly the shipment's sequence; that ack, the one
// nearly every shipment gets, travels as an empty payload. Otherwise (a
// duplicate, a reordered older shipment, or a delta whose base the receiver
// lacks) Held is the sequence the receiver holds, sent as a uvarint.
type ShipAck struct {
	Took bool
	Held uint64
}

// held resolves the ack of the shipment with sequence seq.
func (a ShipAck) held(seq uint64) uint64 {
	if a.Took {
		return seq
	}
	return a.Held
}

// shipAckCodec encodes a ShipAck as nothing when it took the shipment and
// as its held sequence otherwise. A uvarint is never empty, so the two
// forms cannot be confused.
var shipAckCodec = rpc.Codec[ShipAck]{
	Encode: func(a ShipAck) []byte {
		if a.Took {
			return nil
		}
		return rpc.UvarintCodec.Encode(a.Held)
	},
	Decode: func(b []byte) (ShipAck, error) {
		if len(b) == 0 {
			return ShipAck{Took: true}, nil
		}
		held, err := rpc.UvarintCodec.Decode(b)
		return ShipAck{Held: held}, err
	},
}

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
	// by backups are in state order. frame is the shipment buffer each
	// shipment reuses under it; nil after a failed shipment.
	shipMu sync.Mutex
	frame  []byte

	shipsDelta, shipsFull, shipFallbacks, shipBytes atomic.Uint64
	events                                          atomic.Pointer[obs.EventLog]

	repl rpc.Table // the replication plane, built once by New
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
	r := &Replica{
		loid:    loid,
		inner:   inner,
		dialer:  dialer,
		role:    role,
		epoch:   epoch,
		backups: append([]string(nil), backups...),
	}
	r.repl = rpc.Serve(
		MethodRead.Handle(r.read),
		MethodShip.Handle(r.applyShipment),
		MethodSyncTo.Handle(func(ctx context.Context, endpoint string) (rpc.None, error) {
			return rpc.None{}, r.syncTo(ctx, endpoint)
		}),
		MethodPromote.Handle(r.promote),
		MethodDemote.Handle(r.demote),
		MethodStatus.Handle(r.status),
	)
	return r
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
// o's event log, and the wrapped object is wired into o when it accepts it.
// A nil o turns both off.
func (r *Replica) SetObs(o *obs.Obs) {
	r.events.Store(o.GetEvents())
	if c, ok := r.inner.(obs.Configurable); ok {
		c.SetObs(o)
	}
}

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
		return r.repl.InvokeMethodCtx(ctx, method, args)
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

	frame, gen, ok := appendShipment(r.frame[:0], st, epoch, seq, base, baseGen)
	if !ok {
		base = 0
		frame, gen, _ = appendShipment(r.frame[:0], st, epoch, seq, 0, 0)
	}
	// The frame buffer is reused only after a shipment every backup took: a
	// dialer that misbehaved on a failure path must not see it rewritten.
	r.frame = nil

	var full []byte // built at most once, for backups that refuse the delta
	var firstErr error
	took := false // some backup holds this shipment
	for _, endpoint := range backups {
		held, err := r.shipTo(ctx, endpoint, frame, seq, base)
		if err == nil && held < seq && base != 0 {
			r.shipFallbacks.Add(1)
			r.events.Load().Append(obs.Event{Kind: "ship-fallback", Object: r.loid.String(),
				Detail: fmt.Sprintf("backup=%s base=%d held=%d", endpoint, base, held)})
			if full == nil {
				// May be newer than gen; the next delta still starts at gen.
				full, _, _ = appendShipment(nil, st, epoch, seq, 0, 0)
			}
			held, err = r.shipTo(ctx, endpoint, full, seq, 0)
		}
		if errors.Is(err, rpc.ErrFenced) {
			r.demoteSelf()
			if took {
				// A backup of the old era took the call's changes and may
				// lead the new one: the call may have committed, so the
				// caller must not hear the fence's "never committed".
				return fmt.Errorf("backup %s fenced shipment %d after another backup took it: %v", endpoint, seq, err)
			}
			return err
		}
		if err == nil && held < seq {
			err = fmt.Errorf("refused shipment %d, holds %d", seq, held)
		}
		took = took || err == nil
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("backup %s: %w", endpoint, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	r.frame = frame
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

	frame, _, _ := appendShipment(r.frame[:0], r.inner.State(), epoch, seq, 0, 0)
	r.frame = nil // as in shipIfChanged: reused only after a shipment that succeeded
	_, err := r.shipTo(ctx, endpoint, frame, seq, 0)
	if errors.Is(err, rpc.ErrFenced) {
		r.demoteSelf()
		return err
	}
	if err != nil {
		return fmt.Errorf("sync %s to %s: %w", r.loid, endpoint, err)
	}
	r.frame = frame
	return nil
}

// shipment is a decoded MethodShip frame.
type shipment struct {
	epoch, seq, base uint64
	delta            []byte
}

// appendShipment appends a MethodShip frame to buf: epoch, sequence and
// base, then st's delta since generation baseGen — the whole state when base
// is 0 — which objstate appends in place, length prefix included. gen is the
// generation the delta covers. ok is false, and buf comes back unchanged,
// when st cannot prove a delta since baseGen.
func appendShipment(buf []byte, st *objstate.State, epoch, seq, base, baseGen uint64) (frame []byte, gen uint64, ok bool) {
	e := wire.EncoderOn(buf)
	e.PutUvarint(epoch)
	e.PutUvarint(seq)
	e.PutUvarint(base)
	if frame, gen, ok = st.AppendDelta(e.Bytes(), baseGen, base == 0); !ok {
		return buf, gen, false
	}
	return frame, gen, true
}

// decodeShipment parses an appendShipment frame. The delta aliases frame.
// A malformed frame is refused with rpc.ErrBadRequest.
func decodeShipment(frame []byte) (s shipment, err error) {
	d := wire.NewDecoder(frame)
	for _, field := range []*uint64{&s.epoch, &s.seq, &s.base} {
		if *field, err = d.Uvarint(); err != nil {
			return s, fmt.Errorf("%w: shipment: %v", rpc.ErrBadRequest, err)
		}
	}
	if s.delta, err = d.Bytes(); err != nil {
		return s, fmt.Errorf("%w: shipment delta: %v", rpc.ErrBadRequest, err)
	}
	return s, nil
}

// shipTo sends shipment seq to one backup, counts it, and returns the
// sequence the backup holds afterwards.
func (r *Replica) shipTo(ctx context.Context, endpoint string, payload []byte, seq, base uint64) (held uint64, err error) {
	if base == 0 {
		r.shipsFull.Add(1)
	} else {
		r.shipsDelta.Add(1)
	}
	r.shipBytes.Add(uint64(len(payload)))
	ack, err := MethodShip.CallAt(ctx, r.dialer, endpoint, r.loid, r.shipTimeout(), payload)
	return ack.held(seq), err
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

// read serves MethodRead: it unwraps a policy-routed read and executes it
// locally on ANY role. The caller asserted the inner method is read-only;
// the generation check makes a violation loud instead of letting a backup
// silently diverge.
func (r *Replica) read(ctx context.Context, a rpc.ReadArgs) ([]byte, error) {
	if strings.HasPrefix(a.Method, ReplPrefix) || strings.HasPrefix(a.Method, core.ControlPrefix) {
		return nil, fmt.Errorf("%w: %q may not ride %s", rpc.ErrBadRequest, a.Method, rpc.MethodReplRead)
	}
	r.mu.Lock()
	if r.role == RolePrimary {
		// Concurrent writes move a primary's generation, so the guard below
		// cannot tell them from the read's own. The guard exists to stop a
		// backup diverging, and a primary cannot diverge from its group:
		// execute the read as the dynamic call it is — whatever it changes
		// ships. The asymmetry is deliberate: a wrapped mutation is refused
		// on a backup and committed here. Clients wrap reads for backups
		// only, so this is a binding gone stale across a promotion.
		r.mu.Unlock()
		return r.invokePrimary(ctx, a.Method, a.Args)
	}
	st := r.inner.State()
	gen, applied := st.Generation(), r.applied
	r.mu.Unlock()
	out, err := r.inner.InvokeMethodCtx(ctx, a.Method, a.Args)
	if err != nil {
		return nil, err
	}
	// Shipments landing mid-read move the generation too, one each, and
	// they apply under r.mu: any movement beyond theirs is the read's.
	r.mu.Lock()
	mutated := st.Generation()-gen != r.applied-applied
	if mutated && r.role == RoleBackup {
		// This state is no shipment's result any more, so it is no delta's
		// base: holding nothing makes the next one a full image.
		r.seq = 0
	}
	r.mu.Unlock()
	if mutated {
		return nil, fmt.Errorf("replica %s: %q mutated state via %s; backup-ok reads must be read-only",
			r.loid, a.Method, rpc.MethodReplRead)
	}
	return out, nil
}

// applyShipment serves MethodShip and answers what it holds afterwards.
func (r *Replica) applyShipment(_ context.Context, frame []byte) (ShipAck, error) {
	s, err := decodeShipment(frame)
	if err != nil {
		return ShipAck{}, err
	}
	// Held across the apply so the sequence number and the state move
	// together, and so the repl.read guard sees each applied shipment with
	// its generation bump.
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.epoch < r.epoch {
		return ShipAck{}, fmt.Errorf("%w: shipment epoch %d < group epoch %d", rpc.ErrFenced, s.epoch, r.epoch)
	}
	if s.epoch > r.epoch {
		// A new leadership era we missed: adopt it. If we thought we were
		// primary, two primaries existed and the higher epoch wins.
		r.reconfigure(s.epoch, RoleBackup, nil)
	}
	// base <= r.seq: we hold what the delta builds on (always, for base 0).
	// r.seq < seq: not a duplicate or a reordered older shipment. Anything
	// else changes nothing, and the answer says what we hold.
	if s.base <= r.seq && r.seq < s.seq {
		if err := r.inner.State().ApplyDelta(s.delta); err != nil {
			return ShipAck{}, fmt.Errorf("replica %s: apply shipment %d: %w", r.loid, s.seq, err)
		}
		r.seq = s.seq
		r.applied++
		return ShipAck{Took: true}, nil
	}
	return ShipAck{Held: r.seq}, nil
}

// promote serves MethodPromote.
func (r *Replica) promote(_ context.Context, a PromoteArgs) (rpc.None, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a.Epoch <= r.epoch && !(a.Epoch == r.epoch && r.role == RolePrimary) {
		return rpc.None{}, fmt.Errorf("%w: promote epoch %d not newer than %d", rpc.ErrFenced, a.Epoch, r.epoch)
	}
	r.reconfigure(a.Epoch, RolePrimary, a.Backups)
	return rpc.None{}, nil
}

// demote serves MethodDemote.
func (r *Replica) demote(_ context.Context, epoch uint64) (rpc.None, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.epoch {
		return rpc.None{}, fmt.Errorf("%w: demote epoch %d < group epoch %d", rpc.ErrFenced, epoch, r.epoch)
	}
	r.reconfigure(epoch, RoleBackup, nil)
	return rpc.None{}, nil
}

// status serves MethodStatus.
func (r *Replica) status(ctx context.Context, _ rpc.None) (Status, error) {
	segs, err := r.versionSegs(ctx)
	if err != nil {
		return Status{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{Role: r.role, Epoch: r.epoch, Seq: r.seq, VersionSegs: segs, AckSeq: r.ackSeq}, nil
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

func putPromoteArgs(e *wire.Encoder, a PromoteArgs) {
	e.PutUvarint(a.Epoch)
	rpc.PutRun(e, a.Backups, (*wire.Encoder).PutString)
}

func getPromoteArgs(d *wire.Decoder) (a PromoteArgs, err error) {
	if a.Epoch, err = d.Uvarint(); err != nil {
		return a, err
	}
	a.Backups, err = rpc.GetRun(d, (*wire.Decoder).String)
	return a, err
}

func putStatus(e *wire.Encoder, st Status) {
	e.PutString(st.Role.String())
	e.PutUvarint(st.Epoch)
	e.PutUvarint(st.Seq)
	e.PutUintSlice(st.VersionSegs)
	e.PutUvarint(st.AckSeq) // fields are append-only: older readers stop before it
}

func getStatus(d *wire.Decoder) (st Status, err error) {
	role, err := d.String()
	if err != nil {
		return st, fmt.Errorf("role: %w", err)
	}
	if role == RolePrimary.String() {
		st.Role = RolePrimary
	}
	if st.Epoch, err = d.Uvarint(); err != nil {
		return st, fmt.Errorf("epoch: %w", err)
	}
	if st.Seq, err = d.Uvarint(); err != nil {
		return st, fmt.Errorf("seq: %w", err)
	}
	if st.VersionSegs, err = d.UintSlice(); err != nil {
		return st, fmt.Errorf("version: %w", err)
	}
	if d.Remaining() > 0 { // absent from members that predate it
		if st.AckSeq, err = d.Uvarint(); err != nil {
			return st, fmt.Errorf("ack seq: %w", err)
		}
	}
	return st, nil
}
