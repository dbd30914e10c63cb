package replica

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
)

// SetRegistrar publishes replica sets to the naming plane. The in-memory
// naming.Agent satisfies it directly; remote deployments adapt
// rpc.RemoteAgent.RegisterSet.
type SetRegistrar interface {
	RegisterSet(loid naming.LOID, set naming.ReplicaSet) (naming.ReplicaSet, bool)
}

// SetSource reads the authoritative current replica set for a LOID.
// naming.Agent satisfies it; a Group with a source always operates on the
// published set rather than a view cached at construction, which is what
// lets a standby manager attach its group view before a failover and still
// act correctly after one.
type SetSource interface {
	Set(loid naming.LOID) naming.ReplicaSet
}

// Group is the control-plane view of one replica group: it tracks the set,
// owns the epoch counter, and performs promotion and failover. Exactly one
// party drives a Group at a time (the manager, or a chaos harness standing
// in for it); the replicas themselves enforce safety via epoch fencing, so
// a stale Group's actions are refused rather than corrupting the newer era.
type Group struct {
	// LOID is the group's logical object identity.
	LOID naming.LOID
	// Dialer reaches member endpoints.
	Dialer transport.Dialer
	// Registrar publishes set changes to the naming plane.
	Registrar SetRegistrar
	// Source, when set, is the authoritative read side for the current set;
	// Set() prefers it over the cached view. Wired automatically when the
	// registrar also reads (naming.Agent does both).
	Source SetSource
	// CallTimeout bounds each control call to a member. Zero means 2 s.
	CallTimeout time.Duration

	mu    sync.Mutex
	set   naming.ReplicaSet
	epoch uint64
}

// NewGroup returns a group view and publishes the initial set (primary
// first, then backups in failover order) at epoch 1. The caller constructs
// the member Replicas with the matching role/epoch.
func NewGroup(loid naming.LOID, dialer transport.Dialer, registrar SetRegistrar, primary string, backups []string) *Group {
	g := &Group{LOID: loid, Dialer: dialer, Registrar: registrar, epoch: 1}
	if src, ok := registrar.(SetSource); ok {
		g.Source = src
	}
	set := naming.ReplicaSet{Primary: primary, Backups: append([]string(nil), backups...)}
	if registrar != nil {
		set, _ = registrar.RegisterSet(loid, set)
	}
	g.set = set
	return g
}

// Attach returns a group view adopting an existing set and epoch without
// publishing anything — the set is already registered. A standby manager
// taking over an established group uses this to avoid bumping the naming
// generation for a membership that has not changed.
func Attach(loid naming.LOID, dialer transport.Dialer, registrar SetRegistrar, set naming.ReplicaSet, epoch uint64) *Group {
	if epoch == 0 {
		epoch = 1
	}
	g := &Group{LOID: loid, Dialer: dialer, Registrar: registrar, set: set.Clone(), epoch: epoch}
	if src, ok := registrar.(SetSource); ok {
		g.Source = src
	}
	return g
}

// Set returns the group's current view of the replica set: the published
// set when a Source is wired, the cached view otherwise.
func (g *Group) Set() naming.ReplicaSet {
	if g.Source != nil {
		if s := g.Source.Set(g.LOID); s.Replicated() {
			g.mu.Lock()
			g.set = s
			g.mu.Unlock()
			return s
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.set
}

// Epoch returns the group's current epoch.
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Call invokes m on the group's LOID at one member endpoint, in one attempt
// bounded by the group's CallTimeout.
func Call[A, R any](ctx context.Context, g *Group, endpoint string, m rpc.Method[A, R], a A) (R, error) {
	return m.CallAt(ctx, g.Dialer, endpoint, g.LOID, g.timeout(), a)
}

// Status probes one member's replication status.
func (g *Group) Status(ctx context.Context, endpoint string) (Status, error) {
	return Call(ctx, g, endpoint, MethodStatus, rpc.None{})
}

// Promote makes endpoint the group's primary at a bumped epoch: the member
// is promoted with the remaining members as its backup list, the old
// primary is demoted (best-effort — it may be the dead node failover is
// reacting to), and the new set is published with the next generation.
// Keep reports whether the old primary stays in the set as a backup (true
// during planned hand-offs, false when failing away from a dead node).
func (g *Group) Promote(ctx context.Context, endpoint string, keepOldPrimary bool) (naming.ReplicaSet, error) {
	oldSet := g.Set()
	g.mu.Lock()
	newEpoch := g.epoch + 1
	g.mu.Unlock()

	if endpoint != oldSet.Primary && !oldSet.Contains(endpoint) {
		return naming.ReplicaSet{}, fmt.Errorf("replica group %s: %s is not a member", g.LOID, endpoint)
	}

	// A group view attached before someone else's era change (a standby
	// manager's, typically) holds a stale epoch; the target member knows
	// the real one, so derive the new era from whichever is later.
	if st, err := g.Status(ctx, endpoint); err == nil && st.Epoch >= newEpoch {
		newEpoch = st.Epoch + 1
	}

	var backups []string
	if keepOldPrimary && oldSet.Primary != endpoint {
		backups = append(backups, oldSet.Primary)
	}
	for _, b := range oldSet.Backups {
		if b != endpoint {
			backups = append(backups, b)
		}
	}

	if _, err := Call(ctx, g, endpoint, MethodPromote, PromoteArgs{Epoch: newEpoch, Backups: backups}); err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("promote %s for %s: %w", endpoint, g.LOID, err)
	}
	if oldSet.Primary != endpoint {
		// Fence the old primary into a backup of the new era. If it is dead
		// or partitioned this fails harmlessly: its first shipment into the
		// new era will be refused with ErrFenced and it demotes itself.
		_, _ = Call(ctx, g, oldSet.Primary, MethodDemote, newEpoch)
	}

	newSet := naming.ReplicaSet{Primary: endpoint, Backups: backups}
	if g.Registrar != nil {
		if eff, ok := g.Registrar.RegisterSet(g.LOID, newSet); ok {
			newSet = eff
		}
	}
	g.mu.Lock()
	g.epoch = newEpoch
	g.set = newSet
	g.mu.Unlock()
	return newSet, nil
}

// Expand grows the group onto endpoint as a fresh backup: the node's
// replica-host service constructs and hosts a member (skipped when endpoint
// already answers status for the LOID — a pre-built member rejoining), the
// current primary is re-promoted in place at a bumped epoch with the
// candidate appended to its backup list, the primary seeds the candidate
// with a full-state snapshot (MethodSyncTo), and the grown set is published.
// Expanding onto an existing member is a no-op.
func (g *Group) Expand(ctx context.Context, endpoint string) (naming.ReplicaSet, error) {
	oldSet := g.Set()
	if !oldSet.Replicated() {
		return naming.ReplicaSet{}, fmt.Errorf("replica group %s: no primary to expand from", g.LOID)
	}
	if oldSet.Contains(endpoint) {
		return oldSet, nil
	}
	g.mu.Lock()
	newEpoch := g.epoch + 1
	g.mu.Unlock()
	st, err := g.Status(ctx, oldSet.Primary)
	if err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("expand %s for %s: primary %s unreachable: %w",
			endpoint, g.LOID, oldSet.Primary, err)
	}
	if st.Epoch >= newEpoch {
		newEpoch = st.Epoch + 1
	}

	if _, err := g.Status(ctx, endpoint); err != nil {
		// Not yet hosting a member: ask the node's replica-host service to
		// build one as a backup of the new era.
		if _, err := MethodHostAdd.CallAt(ctx, g.Dialer, endpoint, rpc.ReplicaHostLOID, g.timeout(),
			HostAddArgs{LOID: g.LOID, Epoch: newEpoch}); err != nil {
			return naming.ReplicaSet{}, fmt.Errorf("expand %s for %s: host backup: %w", endpoint, g.LOID, err)
		}
	}

	backups := append(append([]string(nil), oldSet.Backups...), endpoint)
	// Re-promoting the sitting primary with a higher epoch is an in-place
	// membership change: the promote guard admits it, and the bumped epoch
	// fences any shipment still in flight from the old era.
	if _, err := Call(ctx, g, oldSet.Primary, MethodPromote, PromoteArgs{Epoch: newEpoch, Backups: backups}); err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("expand %s for %s: reconfigure primary: %w", endpoint, g.LOID, err)
	}
	if _, err := Call(ctx, g, oldSet.Primary, MethodSyncTo, endpoint); err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("expand %s for %s: seed backup: %w", endpoint, g.LOID, err)
	}

	newSet := naming.ReplicaSet{Primary: oldSet.Primary, Backups: backups}
	if g.Registrar != nil {
		if eff, ok := g.Registrar.RegisterSet(g.LOID, newSet); ok {
			newSet = eff
		}
	}
	g.mu.Lock()
	g.epoch = newEpoch
	g.set = newSet
	g.mu.Unlock()
	return newSet, nil
}

// Shrink removes a backup from the group: the primary is re-promoted in
// place at a bumped epoch with the member dropped from its backup list, the
// removed member is demoted best-effort (it may be the dead node the
// reconciler is reacting to), and the trimmed set is published. The primary
// cannot be shrunk away — fail over first. Shrinking a non-member is a
// no-op.
func (g *Group) Shrink(ctx context.Context, endpoint string) (naming.ReplicaSet, error) {
	oldSet := g.Set()
	if endpoint == oldSet.Primary {
		return naming.ReplicaSet{}, fmt.Errorf("replica group %s: cannot shrink away the primary", g.LOID)
	}
	if !oldSet.Contains(endpoint) {
		return oldSet, nil
	}
	g.mu.Lock()
	newEpoch := g.epoch + 1
	g.mu.Unlock()
	st, err := g.Status(ctx, oldSet.Primary)
	if err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("shrink %s for %s: primary %s unreachable: %w",
			endpoint, g.LOID, oldSet.Primary, err)
	}
	if st.Epoch >= newEpoch {
		newEpoch = st.Epoch + 1
	}

	backups := make([]string, 0, len(oldSet.Backups))
	for _, b := range oldSet.Backups {
		if b != endpoint {
			backups = append(backups, b)
		}
	}
	if _, err := Call(ctx, g, oldSet.Primary, MethodPromote, PromoteArgs{Epoch: newEpoch, Backups: backups}); err != nil {
		return naming.ReplicaSet{}, fmt.Errorf("shrink %s for %s: reconfigure primary: %w", endpoint, g.LOID, err)
	}
	// Fence the removed member into the new era as a lone backup; if it is
	// dead this fails harmlessly.
	_, _ = Call(ctx, g, endpoint, MethodDemote, newEpoch)

	newSet := naming.ReplicaSet{Primary: oldSet.Primary, Backups: backups}
	if g.Registrar != nil {
		if eff, ok := g.Registrar.RegisterSet(g.LOID, newSet); ok {
			newSet = eff
		}
	}
	g.mu.Lock()
	g.epoch = newEpoch
	g.set = newSet
	g.mu.Unlock()
	return newSet, nil
}

// Failover reacts to a dead primary: it probes the backups in failover
// order, promotes the first one that answers, and publishes a set that no
// longer contains the old primary. It returns the new primary's endpoint.
func (g *Group) Failover(ctx context.Context) (string, error) {
	set := g.Set()
	for _, candidate := range set.Backups {
		if _, err := g.Status(ctx, candidate); err != nil {
			continue
		}
		if _, err := g.Promote(ctx, candidate, false); err != nil {
			return "", err
		}
		return candidate, nil
	}
	return "", fmt.Errorf("replica group %s: no reachable backup to fail over to", g.LOID)
}

func (g *Group) timeout() time.Duration {
	if g.CallTimeout > 0 {
		return g.CallTimeout
	}
	return 2 * time.Second
}
