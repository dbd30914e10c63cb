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
	// ApplyPlan evolves the instance by a planned change (see
	// core.DCDO.ApplyPlan). core.ErrPlanRefused, or rpc.ErrNoSuchFunction
	// from an instance that predates the method, sends the manager back to
	// Apply.
	ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error)
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
	// fallbacks counts plans turned down (see EvolveFallbacks).
	fallbacks atomic.Uint64

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
	_, err := m.EvolveFleet(ctx, v, nil)
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
	return m.moveOne(ctx, loid, v, "")
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
	return m.moveOne(ctx, loid, v, passReasonRollback)
}

// moveOne runs one instance's move as a pass of its own. Its four records
// reach the disk in two batches: begin and intent before the instance is
// touched, applied and done before the call returns. A move refused before
// the instance is touched leaves begin and done (one batch); one that fails
// after intent leaves the pass closed by a lone done. Only a crash leaves it
// open for Recover to finish.
func (m *Manager) moveOne(ctx context.Context, loid naming.LOID, v version.ID, reason string) error {
	p := &pass{log: m.Journal().openPass(v, []naming.LOID{loid}, reason), rollback: reason == passReasonRollback}
	res, _, err := m.runPass(ctx, p, []move{{loid: loid, to: v}})
	if res[0].err != nil {
		return res[0].err // the move's failure is the error to report
	}
	return err
}

// pass is how the executor runs one journal pass.
type pass struct {
	log      *passLog
	rollback bool // skip the style check: the retreat a forward style vetoes
	recovery bool // probe each instance before planning its move
	// halting passes stop between moves once ctx ends. Recovery passes
	// also halt when it ended during their last move, which may have failed
	// for the ctx alone.
	halting bool
}

// move is one instance's move within a pass. A recovery move with only set
// leaves alone an instance found on a version other than only (the orphaned
// target a recovery rolls back from).
type move struct {
	loid     naming.LOID
	to, only version.ID
}

// outcome sorts how a move ended.
type outcome uint8

const (
	outMoved       outcome = iota // applied: now at the target
	outAt                         // found at the target, or left alone
	outDropped                    // no longer managed: left out
	outQuarantined                // unreachable: quarantined and skipped
	outFailed                     // refused, or failed for any other reason
)

type moveResult struct {
	loid naming.LOID
	out  outcome
	err  error
}

// runPass is the manager's one pass executor: every instance move —
// EvolveInstance and RollbackInstance (a pass of one), EvolveFleet and
// RollbackFleet, and Recover's resume and orphaned-target rollback — goes
// through it, one move at a time. Each move takes the same steps: in
// recovery, probe where the instance is; plan the step (a rollback skips
// the style check); sync its intent; apply. Any failure is sorted once: a
// dropped instance is left out, an unreachable one quarantined and skipped,
// anything else failed.
//
// The journal rule: an intent is synced before its instance is touched;
// every other record (begin, applied, skipped) rides in the next synced
// batch, and done closes the pass, so N moves cost N + 1 fsyncs. Its one
// stop is ctx: a halting pass whose ctx ends flushes what it holds and
// writes no done, leaving Recover to finish.
func (m *Manager) runPass(ctx context.Context, p *pass, moves []move) (res []moveResult, halted bool, err error) {
	for _, mv := range moves {
		if p.halting && ctx.Err() != nil {
			break
		}
		r := moveResult{loid: mv.loid}
		r.out, r.err = m.runMove(ctx, p, mv)
		switch {
		case r.err == nil:
			if p.recovery {
				m.UnquarantineInstance(mv.loid) // it answered: it is alive
			}
		case r.out == outFailed: // sorted by runMove
		case errors.Is(r.err, ErrUnknownInstance):
			r.out = outDropped
		case isConnectivityError(r.err):
			r.out = outQuarantined
			reason := fmt.Sprintf("unreachable during pass %d: %v", p.log.pass, r.err)
			m.quarantine(mv.loid, reason)
			p.log.add(JournalRecord{Op: OpSkipped, LOID: mv.loid, Reason: reason})
		default:
			r.out = outFailed
		}
		res = append(res, r)
	}
	if cerr := ctx.Err(); cerr != nil && (len(res) < len(moves) || p.recovery) {
		return res, true, errors.Join(fmt.Errorf("pass %d halted: %w", p.log.pass, cerr), p.log.sync())
	}
	return res, false, p.log.sync(JournalRecord{Op: OpDone})
}

// runMove takes one move through its steps; runPass sorts its failure,
// unless runMove already has.
func (m *Manager) runMove(ctx context.Context, p *pass, mv move) (outcome, error) {
	if p.recovery {
		actual, err := m.instanceProbe(ctx, mv.loid, mv.to)
		if err != nil {
			return 0, err
		}
		m.syncRecord(mv.loid, actual)
		if actual.Equal(mv.to) {
			// The apply landed before the crash; its applied record did not.
			p.log.add(JournalRecord{Op: OpApplied, LOID: mv.loid, To: mv.to})
			return outAt, nil
		}
		if !mv.only.IsZero() && !actual.Equal(mv.only) {
			return outAt, nil
		}
	}
	st, err := m.planStep(ctx, mv.loid, mv.to, p.rollback)
	if st == nil {
		return outAt, err
	}
	// A failed intent sync is not the instance's failure: it was never touched.
	out, err := outFailed, p.log.sync(JournalRecord{Op: OpIntent, LOID: st.loid, From: st.from, To: st.to})
	if err == nil {
		out, err = outMoved, m.applyStep(ctx, st)
	}
	if err == nil {
		p.log.add(JournalRecord{Op: OpApplied, LOID: st.loid, To: st.to})
	}
	m.finishStep(st, err)
	return out, err
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
	moves    bool // decided: the instance is not already at the target
	rollback bool
	sp       *obs.Span
}

// planStep decides everything about one instance's move that can be decided
// without touching the instance or the journal: that it is managed, that it
// is not already at v, that the style admits the transition (a rollback is
// exempt from both of those), and that v is instantiable. A nil step means
// there is nothing to apply — the move was refused (err says why) or the
// instance is already at the target (err is nil). The step's mgr.evolve
// span parents on the trace position ctx carries, and roots a trace when
// it carries none.
func (m *Manager) planStep(ctx context.Context, loid naming.LOID, v version.ID, rollback bool) (*step, error) {
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
		st.sp = tr.StartSpan(obs.StageMgrEvolve, obs.SpanFromContext(ctx))
		st.sp.Annotate("object", loid.String())
		st.sp.Annotate("from", from.String())
		st.sp.Annotate("to", v.String())
		if rollback {
			st.sp.Annotate("rollback", "true")
		}
	}
	moves, err := func() (bool, error) {
		if !rollback {
			// An instance already at the target has nothing to evolve:
			// succeed without consulting the style (whose rules govern
			// *transitions* — the increasing style, for one, deliberately
			// rejects the degenerate self-edge) and without re-applying
			// the descriptor.
			if !from.IsZero() && from.Equal(v) {
				return false, nil
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
				return false, err
			}
		}
		_, err := m.store.Plan(from, v)
		return true, err
	}()
	if st.moves = moves && err == nil; !st.moves {
		m.finishStep(st, err)
		return nil, err
	}
	return st, nil
}

// applyStep moves the instance to the step's target — through the replica
// group when the LOID has one, in either direction — and pins the table row
// to the target.
func (m *Manager) applyStep(ctx context.Context, st *step) error {
	verb := "evolve"
	if st.rollback {
		verb = "rollback"
	}
	var err error
	if g := m.ReplicaGroup(st.loid); g != nil {
		err = m.evolveReplicated(obs.ContextWithSpan(ctx, st.sp.Context()), g, st.loid, st.to)
	} else {
		err = m.applyPlanned(st.loid, st.from, st.to, func(a *core.PlanArgs, desc *dfm.Descriptor) error {
			return applyInstance(ctx, st.sp, st.inst, a, desc, st.to)
		})
	}
	if err != nil {
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
	if err == nil && st.moves { // an instance already at the target did not move
		kind := "evolved"
		if st.rollback {
			kind = "rolled-back"
		}
		m.event(kind, st.loid, st.to, "from="+st.from.String())
	}
}

// evolveReplicated moves a replica group to v — forward or back — with the
// LOID continuously available: every backup is brought to the target first
// (each still serving shipped state, none serving clients), then a moved
// backup is promoted to primary — the instant of hand-off is the only
// leadership change and both sides of it run the target version or the old
// one, never neither — and finally the deposed primary, now a backup, is
// moved. Each member already at the target is skipped, which is what makes a
// crash-interrupted pass resumable: the re-run converges on the remaining
// members instead of repeating completed work or flipping leadership twice.
func (m *Manager) evolveReplicated(ctx context.Context, g *replica.Group, loid naming.LOID, v version.ID) error {
	set := g.Set()
	apply := func(ep string, at version.ID) error {
		err := m.applyPlanned(loid, at, v, func(a *core.PlanArgs, desc *dfm.Descriptor) error {
			if a == nil {
				_, err := replica.Call(ctx, g, ep, core.MethodApplyDescriptor, core.ApplyArgs{Target: desc, Version: v})
				return err
			}
			res, err := replica.Call(ctx, g, ep, core.MethodApplyPlan, *a)
			if err == nil {
				_, err = res.Outcome()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("replica %s: %w", ep, err)
		}
		return nil
	}

	// Backups first: invisible to clients, the primary keeps serving.
	for _, ep := range set.Backups {
		at, err := memberAt(ctx, g, ep)
		if err != nil {
			return err
		}
		if at.Equal(v) {
			continue
		}
		if err := apply(ep, at); err != nil {
			return err
		}
	}

	// If the primary already runs the target (a resumed pass promoted it
	// before the crash), the group is converged.
	at, err := memberAt(ctx, g, set.Primary)
	if err != nil {
		return err
	}
	if at.Equal(v) {
		return nil
	}

	if len(set.Backups) > 0 {
		// Promote a moved backup; the old primary stays in the set as a
		// backup of the new era and is moved last.
		newPrimary := set.Backups[0]
		if _, err := g.Promote(ctx, newPrimary, true); err != nil {
			return err
		}
		m.event("replica-promoted", loid, v, "primary="+newPrimary)
	}
	return apply(set.Primary, at)
}

// applyPlanned moves one object from version from to version to through
// apply: with the store's plan for the pair when it has one (a non-nil
// *core.PlanArgs), with the full descriptor when it has none or the object
// turns the plan down. An object turns it down when it refuses it
// (core.ErrPlanRefused: it is not at from, or its table changed since) or
// predates the method (rpc.ErrNoSuchFunction); each such plan counts one
// evolve-fallback and one event.
func (m *Manager) applyPlanned(loid naming.LOID, from, to version.ID, apply func(*core.PlanArgs, *dfm.Descriptor) error) error {
	c, err := m.store.Plan(from, to)
	if err != nil {
		return err
	}
	if c != nil {
		err := apply(&core.PlanArgs{From: from, To: to, Change: c}, nil)
		if !errors.Is(err, core.ErrPlanRefused) && !errors.Is(err, rpc.ErrNoSuchFunction) {
			return err
		}
		m.fallbacks.Add(1)
		m.event("evolve-fallback", loid, to, fmt.Sprintf("from=%s: %v", from, err))
	}
	desc, err := m.store.InstantiableDescriptor(to)
	if err != nil {
		return err
	}
	return apply(nil, desc)
}

// EvolveFallbacks counts the plans objects turned down, each of whose moves
// then shipped the full descriptor.
func (m *Manager) EvolveFallbacks() uint64 { return m.fallbacks.Load() }

// memberAt reports the version the group member at endpoint runs.
func memberAt(ctx context.Context, g *replica.Group, endpoint string) (version.ID, error) {
	st, err := g.Status(ctx, endpoint)
	if err == nil {
		var at version.ID
		if at, err = version.Decode(st.VersionSegs); err == nil {
			return at, nil
		}
	}
	return nil, fmt.Errorf("replica %s: %w", endpoint, err)
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

// ApplyPlan implements Instance.
func (l LocalInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	return l.Obj.ApplyPlan(ctx, a)
}

// Interface implements Instance.
func (l LocalInstance) Interface(context.Context) ([]string, error) { return l.Obj.Interface(), nil }
