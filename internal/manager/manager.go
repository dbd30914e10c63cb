package manager

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// Errors returned by the manager.
var (
	// ErrUnknownInstance is returned for LOIDs absent from the DCDO table.
	ErrUnknownInstance = errors.New("manager: unknown instance")
	// ErrDuplicateInstance is returned when adopting a LOID twice.
	ErrDuplicateInstance = errors.New("manager: instance already managed")
	// ErrNoCurrentVersion is returned when an operation requires a
	// designated current version and none is set.
	ErrNoCurrentVersion = errors.New("manager: no current version designated")
)

// Instance is a managed DCDO as the manager sees it: local instances wrap
// *core.DCDO directly; remote instances proxy over RPC. Every operation
// takes a context — for remote instances these are RPC round trips, and the
// manager's deadline must reach the wire.
type Instance interface {
	// LOID names the instance.
	LOID() naming.LOID
	// Version returns the instance's current version.
	Version(ctx context.Context) (version.ID, error)
	// Apply evolves the instance to the target descriptor and version.
	Apply(ctx context.Context, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error)
	// Interface returns the instance's enabled exported function names.
	Interface(ctx context.Context) ([]string, error)
}

// Record is one row of the DCDO table (§2.4): the version identifier and
// implementation type corresponding to each object's current implementation.
type Record struct {
	LOID    naming.LOID
	Version version.ID
	Impl    registry.ImplType
}

// Manager is a DCDO Manager: it maintains the DFM store for one object type
// and the table of the DCDOs under its control, and drives their evolution
// under a configured style and update policy.
type Manager struct {
	store  *Store
	style  evolution.Style
	policy evolution.UpdatePolicy
	// methods serves the exported interface (remote.go) for Object.
	methods rpc.Table

	mu          sync.Mutex
	instances   map[naming.LOID]Instance
	records     map[naming.LOID]*Record
	current     version.ID
	quarantined map[naming.LOID]string
	journal     *Journal
	groups      map[naming.LOID]*replica.Group
	policies    map[naming.LOID]policy.DistributionPolicy
	policyPub   PolicyPublisher

	// obsState holds the observability handle installed by SetObs, nil when
	// disabled.
	obsState atomic.Pointer[obs.Obs]
}

var _ evolution.ManagerView = (*Manager)(nil)

// New returns a manager over its own empty store.
func New(style evolution.Style, policy evolution.UpdatePolicy) *Manager {
	m := &Manager{
		store:       NewStore(),
		style:       style,
		policy:      policy,
		instances:   make(map[naming.LOID]Instance),
		records:     make(map[naming.LOID]*Record),
		quarantined: make(map[naming.LOID]string),
	}
	m.methods = m.methodTable()
	return m
}

// SetJournal installs the evolution journal. Subsequent current-version
// designations and evolution passes are durably recorded before instances
// are touched, making them recoverable after a crash (see Recover). A nil
// journal disables journalling.
func (m *Manager) SetJournal(j *Journal) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// Journal returns the installed evolution journal (nil when disabled).
func (m *Manager) Journal() *Journal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal
}

// RegisterReplicaGroup tells the manager that loid is served by a replica
// group: evolution of loid switches to the zero-downtime replicated path
// (backups first, promote an evolved backup, then the old primary). A nil
// group deregisters. Unreplicated LOIDs pay nothing for this — the lookup
// is one nil-map read on the evolve path only.
func (m *Manager) RegisterReplicaGroup(loid naming.LOID, g *replica.Group) {
	m.mu.Lock()
	if g == nil {
		delete(m.groups, loid)
	} else {
		if m.groups == nil {
			m.groups = make(map[naming.LOID]*replica.Group)
		}
		m.groups[loid] = g
	}
	m.mu.Unlock()
}

// ReplicaGroup returns the group registered for loid (nil when loid is
// unreplicated).
func (m *Manager) ReplicaGroup(loid naming.LOID) *replica.Group {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[loid]
}

// Store exposes the manager's DFM store for version management.
func (m *Manager) Store() *Store { return m.store }

// Style returns the manager's evolution style.
func (m *Manager) Style() evolution.Style { return m.style }

// Policy returns the manager's update policy.
func (m *Manager) Policy() evolution.UpdatePolicy { return m.policy }

// CurrentVersion implements evolution.ManagerView.
func (m *Manager) CurrentVersion() (version.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current.Clone(), nil
}

// InstantiableDescriptor implements evolution.ManagerView.
func (m *Manager) InstantiableDescriptor(v version.ID) (*dfm.Descriptor, error) {
	return m.store.InstantiableDescriptor(v)
}

// SetCurrentVersion designates v as the official current version. Under the
// proactive update policy, every managed instance is immediately evolved
// (§3.4); errors are collected per instance and returned joined. ctx bounds
// the proactive fleet pass.
func (m *Manager) SetCurrentVersion(ctx context.Context, v version.ID) error {
	if !m.store.IsInstantiable(v) {
		return fmt.Errorf("%w: %s", ErrVersionNotReady, v)
	}
	// Journal the designation before adopting it, so a restarted manager
	// recovers the same current version (the store image does not carry it).
	if err := m.Journal().Current(v); err != nil {
		return err
	}
	m.mu.Lock()
	m.current = v.Clone()
	policy := m.policy
	m.mu.Unlock()
	m.event("set-current-version", naming.LOID{}, v, "policy="+policy.String())

	if policy != evolution.Proactive {
		return nil
	}
	_, err := m.EvolveFleet(ctx, v, nil, -1)
	return err
}

// CreateInstance initialises a fresh instance to the given instantiable
// version (or the current version when v is nil) and adds it to the DCDO
// table.
func (m *Manager) CreateInstance(ctx context.Context, inst Instance, v version.ID, impl registry.ImplType) error {
	if v.IsZero() {
		m.mu.Lock()
		v = m.current.Clone()
		m.mu.Unlock()
		if v.IsZero() {
			return ErrNoCurrentVersion
		}
	}
	desc, err := m.store.InstantiableDescriptor(v)
	if err != nil {
		return err
	}
	loid := inst.LOID()
	m.mu.Lock()
	if _, exists := m.records[loid]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateInstance, loid)
	}
	m.mu.Unlock()

	if _, err := inst.Apply(ctx, desc, v); err != nil {
		return fmt.Errorf("create %s at %s: %w", loid, v, err)
	}

	m.mu.Lock()
	// Re-check: a concurrent create/adopt may have claimed the LOID while
	// the descriptor was being applied outside the lock.
	if _, exists := m.records[loid]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateInstance, loid)
	}
	m.instances[loid] = inst
	m.records[loid] = &Record{LOID: loid, Version: v.Clone(), Impl: impl}
	m.mu.Unlock()
	m.event("instance-created", loid, v, "impl="+impl.String())
	return nil
}

// Adopt registers an already configured instance without evolving it (used
// when a DCDO migrates in from another manager replica).
func (m *Manager) Adopt(ctx context.Context, inst Instance, impl registry.ImplType) error {
	loid := inst.LOID()
	v, err := inst.Version(ctx)
	if err != nil {
		return fmt.Errorf("adopt %s: %w", loid, err)
	}
	m.mu.Lock()
	if _, exists := m.records[loid]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateInstance, loid)
	}
	m.instances[loid] = inst
	m.records[loid] = &Record{LOID: loid, Version: v.Clone(), Impl: impl}
	m.mu.Unlock()
	m.event("adopted", loid, v, "impl="+impl.String())
	return nil
}

// Drop removes an instance from the table (destroyed or migrated away).
func (m *Manager) Drop(loid naming.LOID) {
	m.mu.Lock()
	delete(m.instances, loid)
	delete(m.records, loid)
	delete(m.quarantined, loid)
	m.mu.Unlock()
	m.event("dropped", loid, version.ID{}, "")
}

// EvolveInstance evolves one managed DCDO to version v, enforcing the
// manager's style. This is the updateInstance() entry point the explicit
// update policy relies on. With a journal installed the evolution runs as a
// durable single-instance pass, recoverable if the manager crashes mid-way.
func (m *Manager) EvolveInstance(ctx context.Context, loid naming.LOID, v version.ID) error {
	return m.singlePass(ctx, loid, v, "")
}

// RollbackInstance forces one managed DCDO back to version v without
// consulting the evolution style. Styles encode *forward* discipline
// (multi-increasing only ever admits descendants), which is exactly wrong
// for an operational retreat: when a canary trips its SLO the supervisor
// must return it to the baseline the style would veto. The move is still a
// journalled single-instance pass — begun with the rollback reason, so a
// crash mid-retreat resumes as a rollback too — and still requires v to be
// instantiable in the store.
func (m *Manager) RollbackInstance(ctx context.Context, loid naming.LOID, v version.ID) error {
	return m.singlePass(ctx, loid, v, passReasonRollback)
}

// singlePass runs one instance's move as a journal pass of its own. The
// pass's four records reach the disk in two batches, one fsync each: begin
// and intent before the instance is touched, applied and done before the
// call returns. A move refused before the instance is touched leaves begin
// and done (one batch); one that fails after intent leaves the pass closed
// by a lone done. Only a crash leaves it open for Recover to finish.
func (m *Manager) singlePass(ctx context.Context, loid naming.LOID, v version.ID, reason string) error {
	j := m.Journal()
	planned := []naming.LOID{loid}
	st, err := m.planStep(loid, v, reason == passReasonRollback)
	if st == nil {
		_, jerr := j.beginPass(v, planned, reason, JournalRecord{Op: OpDone})
		if err == nil {
			err = jerr
		}
		return err
	}
	pass, err := j.beginPass(v, planned, reason, st.intent(0))
	if err == nil {
		done := JournalRecord{Op: OpDone, Pass: pass}
		if err = m.applyStep(ctx, j, pass, st); err == nil {
			err = j.AppendBatch(st.applied(pass), done)
		} else {
			_ = j.Append(done) // the apply's failure is the error to report
		}
	}
	m.finishStep(st, err)
	return err
}

// evolveOne moves one instance under a journal pass the caller has already
// opened (a fleet pass, or one Recover resumes): intent is durably recorded
// before the instance is touched, applied after it is verified there.
func (m *Manager) evolveOne(ctx context.Context, pass uint64, loid naming.LOID, v version.ID, rollback bool) error {
	st, err := m.planStep(loid, v, rollback)
	if st == nil {
		return err
	}
	j := m.Journal()
	if err = j.Append(st.intent(pass)); err == nil {
		if err = m.applyStep(ctx, j, pass, st); err == nil {
			err = j.Append(st.applied(pass))
		}
	}
	m.finishStep(st, err)
	return err
}

// step is one instance's move to a pass target: decided by planStep, not yet
// journalled or applied. rec is the table row captured under the lock
// alongside inst; the post-apply version update is applied only if that same
// row is still installed, so an evolution that raced with Drop (and possibly
// a re-Adopt) cannot resurrect a stale version onto a new record.
type step struct {
	loid     naming.LOID
	inst     Instance
	rec      *Record
	from, to version.ID
	desc     *dfm.Descriptor
	rollback bool
	sp       *obs.Span
}

func (st *step) intent(pass uint64) JournalRecord {
	return JournalRecord{Op: OpIntent, Pass: pass, LOID: st.loid, From: st.from.Clone(), To: st.to.Clone()}
}

func (st *step) applied(pass uint64) JournalRecord {
	return JournalRecord{Op: OpApplied, Pass: pass, LOID: st.loid, To: st.to.Clone()}
}

// planStep decides everything about one instance's move that can be decided
// without touching the instance or the journal: that it is managed, that it
// is not already at v, that the style admits the transition (a rollback is
// exempt from both of those), and which descriptor v names. A nil step means
// there is nothing to apply — the move was refused (err says why) or the
// instance is already at the target (err is nil).
func (m *Manager) planStep(loid naming.LOID, v version.ID, rollback bool) (*step, error) {
	m.mu.Lock()
	inst, ok := m.instances[loid]
	rec := m.records[loid]
	var from version.ID
	if rec != nil {
		from = rec.Version.Clone()
	}
	current := m.current.Clone()
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownInstance, loid)
	}
	st := &step{loid: loid, inst: inst, rec: rec, from: from, to: v, rollback: rollback}
	if tr := m.tracer(); tr != nil {
		st.sp = tr.StartSpan(obs.StageMgrEvolve, obs.SpanContext{})
		st.sp.Annotate("object", loid.String())
		st.sp.Annotate("from", from.String())
		st.sp.Annotate("to", v.String())
		if rollback {
			st.sp.Annotate("rollback", "true")
		}
	}
	err := func() error {
		if !rollback {
			// An instance already at the target has nothing to evolve:
			// succeed without consulting the style (whose rules govern
			// *transitions* — the increasing style, for one, deliberately
			// rejects the degenerate self-edge) and without re-applying
			// the descriptor.
			if !from.IsZero() && from.Equal(v) {
				return nil
			}
			input := evolution.TransitionInput{
				From:           from,
				To:             v,
				Current:        current,
				ToInstantiable: m.store.IsInstantiable(v),
			}
			if m.style == evolution.MultiHybrid && !from.IsZero() {
				input.DerivationErr = m.checkHybridDerivation(from, v)
			}
			if err := m.style.CheckTransition(input); err != nil {
				return err
			}
		}
		var err error
		st.desc, err = m.store.InstantiableDescriptor(v)
		return err
	}()
	if st.desc == nil {
		m.finishStep(st, err)
		return nil, err
	}
	return st, nil
}

// applyStep applies the step's descriptor — through the replica group when
// the LOID has one — and pins the table row to the target.
func (m *Manager) applyStep(ctx context.Context, j *Journal, pass uint64, st *step) error {
	verb := "evolve"
	if st.rollback {
		verb = "rollback"
	}
	if g := m.ReplicaGroup(st.loid); g != nil && !st.rollback {
		if err := m.evolveReplicated(ctx, j, pass, g, st.loid, st.desc, st.to); err != nil {
			return fmt.Errorf("%s %s to %s: %w", verb, st.loid, st.to, err)
		}
	} else if _, err := applyInstance(ctx, st.sp, st.inst, st.desc, st.to); err != nil {
		return fmt.Errorf("%s %s to %s: %w", verb, st.loid, st.to, err)
	}
	m.mu.Lock()
	if cur, ok := m.records[st.loid]; ok && cur == st.rec {
		cur.Version = st.to.Clone()
	}
	m.mu.Unlock()
	return nil
}

// finishStep closes the step's span and, on success, reports the move.
func (m *Manager) finishStep(st *step, err error) {
	if st.sp != nil {
		st.sp.Fail(err)
		st.sp.Finish()
	}
	if err == nil {
		kind := "evolved"
		if st.rollback {
			kind = "rolled-back"
		}
		m.event(kind, st.loid, st.to, "from="+st.from.String())
	}
}

// evolveReplicated evolves a replica group to v with the LOID continuously
// available: every backup is brought to the target first (each still serving
// shipped state, none serving clients), then an evolved backup is promoted
// to primary — the instant of hand-off is the only leadership change and
// both sides of it run the target version or the old one, never neither —
// and finally the deposed primary, now a backup, is evolved. Each member
// already at the target is skipped, which is what makes a crash-interrupted
// pass resumable: the re-run converges on the remaining members instead of
// repeating completed work or flipping leadership twice.
func (m *Manager) evolveReplicated(ctx context.Context, j *Journal, pass uint64, g *replica.Group, loid naming.LOID, desc *dfm.Descriptor, v version.ID) error {
	set := g.Set()
	apply := core.ApplyArgs{Target: desc, Version: v}

	memberAt := func(endpoint string) (bool, error) {
		st, err := g.Status(ctx, endpoint)
		if err != nil {
			return false, err
		}
		at, err := version.Decode(st.VersionSegs)
		if err != nil {
			return false, err
		}
		return at.Equal(v), nil
	}

	// Backups first: invisible to clients, the primary keeps serving.
	for _, ep := range set.Backups {
		done, err := memberAt(ep)
		if err != nil {
			return fmt.Errorf("replica %s: %w", ep, err)
		}
		if done {
			continue
		}
		if _, err := replica.Call(ctx, g, ep, core.MethodApplyDescriptor, apply); err != nil {
			return fmt.Errorf("replica %s: %w", ep, err)
		}
	}

	// If the primary already runs the target (a resumed pass promoted it
	// before the crash), the group is converged.
	done, err := memberAt(set.Primary)
	if err != nil {
		return fmt.Errorf("replica %s: %w", set.Primary, err)
	}
	if done {
		return nil
	}

	if len(set.Backups) > 0 {
		// Promote an evolved backup; the old primary stays in the set as a
		// backup of the new era and is evolved last.
		newPrimary := set.Backups[0]
		if err := j.ReplicaPromote(pass, loid, newPrimary); err != nil {
			return err
		}
		if _, err := g.Promote(ctx, newPrimary, true); err != nil {
			return err
		}
		m.event("replica-promoted", loid, v, "primary="+newPrimary)
	}
	if _, err := replica.Call(ctx, g, set.Primary, core.MethodApplyDescriptor, apply); err != nil {
		return fmt.Errorf("replica %s: %w", set.Primary, err)
	}
	return nil
}

// checkHybridDerivation applies the mandatory/permanent rules between two
// arbitrary versions — the hybrid style's "checks to see if evolving a DCDO
// to a version violates any rules" (§3.5).
func (m *Manager) checkHybridDerivation(from, to version.ID) error {
	fromDesc, err := m.store.Descriptor(from)
	if err != nil {
		return err
	}
	toDesc, err := m.store.Descriptor(to)
	if err != nil {
		return err
	}
	return toDesc.ValidateDerivation(fromDesc)
}

// InstanceLOIDs returns the managed LOIDs in sorted order.
func (m *Manager) InstanceLOIDs() []naming.LOID {
	m.mu.Lock()
	out := make([]naming.LOID, 0, len(m.records))
	for loid := range m.records {
		out = append(out, loid)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].String() < out[j].String()
	})
	return out
}

// Records returns a copy of the DCDO table.
func (m *Manager) Records() []Record {
	m.mu.Lock()
	out := make([]Record, 0, len(m.records))
	for _, r := range m.records {
		out = append(out, Record{LOID: r.LOID, Version: r.Version.Clone(), Impl: r.Impl})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].LOID.String() < out[j].LOID.String() })
	return out
}

// RecordOf returns the table row for one instance.
func (m *Manager) RecordOf(loid naming.LOID) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[loid]
	if !ok {
		return Record{}, fmt.Errorf("%w: %s", ErrUnknownInstance, loid)
	}
	return Record{LOID: r.LOID, Version: r.Version.Clone(), Impl: r.Impl}, nil
}

// --- Instance adapters -------------------------------------------------------

// LocalInstance adapts an in-process *core.DCDO to the Instance interface.
type LocalInstance struct {
	Obj *core.DCDO
}

var _ Instance = LocalInstance{}

// LOID implements Instance.
func (l LocalInstance) LOID() naming.LOID { return l.Obj.LOID() }

// Version implements Instance.
func (l LocalInstance) Version(context.Context) (version.ID, error) { return l.Obj.Version(), nil }

// Apply implements Instance.
func (l LocalInstance) Apply(ctx context.Context, target *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	return l.Obj.ApplyDescriptor(ctx, target, v)
}

// Interface implements Instance.
func (l LocalInstance) Interface(context.Context) ([]string, error) { return l.Obj.Interface(), nil }
