package manager

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// Recovery: a restarted manager owns a store image (LoadStore), a journal,
// and a set of re-registered instances — but no memory of what it was doing
// when it died. Recover replays the journal to find out: the last
// current-version designation is restored, and every pass that began but
// never recorded done is finished. For each instance the journal says a
// pass planned or touched, the instance's *actual* version is probed over
// its normal Instance interface (an RPC for remote instances) — the journal
// narrows the candidates, the probe decides. Unreachable instances are
// quarantined for the prober rather than blocking recovery.

// RecoveryReport summarises one Recover call.
type RecoveryReport struct {
	// Passes is the number of incomplete journal passes that were
	// recovered. 0 means the journal was clean — recovery was a no-op.
	Passes int
	// Current is the restored current version (nil if none was journalled).
	Current version.ID
	// Resumed lists instances evolved forward to an interrupted pass's
	// target during recovery.
	Resumed []naming.LOID
	// Verified lists instances probed and found already consistent.
	Verified []naming.LOID
	// RolledBack lists instances moved back to their pre-pass version
	// because the pass target is no longer instantiable in the store.
	RolledBack []naming.LOID
	// Quarantined lists instances that could not be probed and were
	// quarantined for the prober to re-converge later.
	Quarantined []naming.LOID
	// Policies is the number of distribution-policy documents restored
	// from the journal (latest per LOID).
	Policies int
}

// passState is one journal pass reconstructed from its records.
type passState struct {
	pass    uint64
	target  version.ID
	reason  string // OpBegin reason; passReasonRollback marks style-exempt
	planned []naming.LOID
	intents map[naming.LOID]JournalRecord // latest intent per instance
	applied map[naming.LOID]bool
	skipped map[naming.LOID]bool
	done    bool
}

// AdoptUnverified registers an instance without probing it (Adopt calls
// Version, which fails for a partitioned instance). The instance enters the
// table at lastKnown, quarantined with the given reason, so recovery and
// the prober can converge it when it becomes reachable. This is the restart
// path's adoption primitive for instances that were unreachable at boot.
func (m *Manager) AdoptUnverified(inst Instance, impl registry.ImplType, lastKnown version.ID, reason string) error {
	loid := inst.LOID()
	m.mu.Lock()
	if _, exists := m.records[loid]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateInstance, loid)
	}
	m.instances[loid] = inst
	m.records[loid] = &Record{LOID: loid, Version: lastKnown.Clone(), Impl: impl}
	m.quarantined[loid] = reason
	m.mu.Unlock()
	m.event("adopted", loid, lastKnown, "unverified impl="+impl.String())
	m.event("quarantined", loid, nil, reason)
	return nil
}

// Recover replays the evolution journal against the (re-loaded) store and
// the re-registered instances, finishing every interrupted pass: instances
// are probed for their actual version, evolved forward when the pass target
// is still instantiable, rolled back to their pre-pass version when it is
// not, and quarantined when unreachable. Completed passes are then
// compacted out of the journal, so a second Recover is a no-op. Requires a
// journal (ErrNoJournal otherwise). ctx bounds the probes and evolutions
// recovery performs.
func (m *Manager) Recover(ctx context.Context) (RecoveryReport, error) {
	j := m.Journal()
	if j == nil {
		return RecoveryReport{}, ErrNoJournal
	}
	recs, err := j.Records()
	if err != nil {
		return RecoveryReport{}, err
	}

	var sp *obs.Span
	if tr := m.tracer(); tr != nil {
		sp = tr.StartSpan(obs.StageMgrRecover, obs.SpanContext{})
	}
	report, err := m.recover(ctx, sp, j, recs)
	if sp != nil {
		sp.Annotate("passes", fmt.Sprintf("%d", report.Passes))
		sp.Fail(err)
		sp.Finish()
	}
	m.event("recovered", naming.LOID{}, report.Current,
		fmt.Sprintf("passes=%d resumed=%d verified=%d rolledback=%d quarantined=%d",
			report.Passes, len(report.Resumed), len(report.Verified),
			len(report.RolledBack), len(report.Quarantined)))
	return report, err
}

func (m *Manager) recover(ctx context.Context, sp *obs.Span, j *Journal, recs []JournalRecord) (RecoveryReport, error) {
	var report RecoveryReport
	var lastCurrent version.ID
	var lastEpoch uint64
	passes := make(map[uint64]*passState)
	var order []uint64
	// Rollout records belong to the supervisor, not the manager: recovery
	// finishes the manager's evolution passes but must carry any rollout
	// still open (start without done) through its compaction so a restarted
	// supervisor can resume it.
	rolloutRecs := make(map[uint64][]JournalRecord)
	rolloutDone := make(map[uint64]bool)
	var rolloutOrder []uint64
	// Distribution policies are designations like OpCurrent: the latest
	// document per LOID is restored and carried through compaction.
	// OpReconcile records are a transient audit trail and compact away —
	// the reconciler re-derives its work from policy vs observed state.
	lastPolicy := make(map[naming.LOID]string)
	var policyOrder []naming.LOID
	for _, r := range recs {
		switch r.Op {
		case OpCurrent:
			lastCurrent = r.Target
		case OpPolicySet:
			if _, seen := lastPolicy[r.LOID]; !seen {
				policyOrder = append(policyOrder, r.LOID)
			}
			lastPolicy[r.LOID] = r.Reason
		case OpMgrEpoch:
			// Manager-epoch bumps are era markers, not pass records: track
			// the latest so compaction carries it forward like OpCurrent.
			if r.Pass > lastEpoch {
				lastEpoch = r.Pass
			}
		case OpRolloutStart:
			if _, seen := rolloutRecs[r.Pass]; !seen {
				rolloutOrder = append(rolloutOrder, r.Pass)
			}
			rolloutRecs[r.Pass] = append(rolloutRecs[r.Pass], r)
		case OpRolloutWave, OpRolloutRollback:
			rolloutRecs[r.Pass] = append(rolloutRecs[r.Pass], r)
		case OpRolloutDone:
			rolloutDone[r.Pass] = true
		case OpBegin:
			passes[r.Pass] = &passState{
				pass:    r.Pass,
				target:  r.Target,
				reason:  r.Reason,
				planned: r.Planned,
				intents: make(map[naming.LOID]JournalRecord),
				applied: make(map[naming.LOID]bool),
				skipped: make(map[naming.LOID]bool),
			}
			order = append(order, r.Pass)
		case OpIntent:
			if p := passes[r.Pass]; p != nil {
				p.intents[r.LOID] = r
			}
		case OpApplied:
			if p := passes[r.Pass]; p != nil {
				p.applied[r.LOID] = true
			}
		case OpSkipped:
			if p := passes[r.Pass]; p != nil {
				p.skipped[r.LOID] = true
			}
		case OpDone:
			if p := passes[r.Pass]; p != nil {
				p.done = true
			}
		}
	}

	// Restore the current-version designation, provided the loaded store
	// still considers it instantiable (a store image older than the journal
	// may not).
	if !lastCurrent.IsZero() && m.store.IsInstantiable(lastCurrent) {
		m.mu.Lock()
		m.current = lastCurrent.Clone()
		m.mu.Unlock()
		report.Current = lastCurrent.Clone()
	}

	var errs []error
	for _, loid := range policyOrder {
		if err := m.restorePolicy(loid, lastPolicy[loid]); err != nil {
			errs = append(errs, err)
			delete(lastPolicy, loid) // do not carry a corrupt document forward
			continue
		}
		report.Policies++
	}
	for _, id := range order {
		p := passes[id]
		if p.done {
			continue
		}
		report.Passes++
		if m.store.IsInstantiable(p.target) {
			m.resumePass(ctx, j, p, &report, &errs)
		} else {
			m.rollbackPass(ctx, sp, j, p, &report, &errs)
		}
		if err := j.Done(p.pass); err != nil {
			errs = append(errs, err)
		}
	}

	// Every pass is now closed; shrink the journal to just the designation
	// a future restart needs — plus any open rollout's records, which the
	// supervisor (not this recovery) will close.
	var keep []JournalRecord
	if !report.Current.IsZero() {
		keep = append(keep, JournalRecord{Op: OpCurrent, Target: report.Current})
	}
	if lastEpoch > 0 {
		keep = append(keep, JournalRecord{Op: OpMgrEpoch, Pass: lastEpoch})
	}
	for _, loid := range policyOrder {
		if doc, ok := lastPolicy[loid]; ok {
			keep = append(keep, JournalRecord{Op: OpPolicySet, LOID: loid, Reason: doc})
		}
	}
	for _, id := range rolloutOrder {
		if !rolloutDone[id] {
			keep = append(keep, rolloutRecs[id]...)
		}
	}
	if err := j.Compact(keep); err != nil {
		errs = append(errs, err)
	}
	sortLOIDs(report.Resumed)
	sortLOIDs(report.Verified)
	sortLOIDs(report.RolledBack)
	sortLOIDs(report.Quarantined)
	return report, errors.Join(errs...)
}

// resumePass drives an interrupted pass forward: every planned instance
// still managed is probed and, if not already on the target, evolved to it.
func (m *Manager) resumePass(ctx context.Context, j *Journal, p *passState, report *RecoveryReport, errs *[]error) {
	for _, loid := range p.planned {
		inst := m.instanceOf(loid)
		if inst == nil {
			continue // dropped or never re-registered; nothing to converge
		}
		actual, err := inst.Version(ctx)
		if err != nil {
			m.quarantineUnreachable(j, p.pass, loid, err, report, errs)
			continue
		}
		m.syncRecord(loid, actual)
		if actual.Equal(p.target) {
			// Already there — either the applied record was lost with the
			// crash or the apply landed before it. Record it now.
			if err := j.Applied(p.pass, loid, p.target); err != nil {
				*errs = append(*errs, err)
			}
			m.UnquarantineInstance(loid) // probe succeeded: it is alive
			report.Verified = append(report.Verified, loid)
			continue
		}
		// A normal pass re-runs the style check; a rollback pass (begin
		// reason passReasonRollback) applies the target descriptor directly
		// — the forward-only style vetoed the transition when the rollback
		// was decided live, so it must not be consulted again on resume.
		switch err := m.evolveOne(ctx, p.pass, loid, p.target, p.reason == passReasonRollback); {
		case err == nil:
			m.UnquarantineInstance(loid)
			report.Resumed = append(report.Resumed, loid)
		case isConnectivityError(err):
			m.quarantineUnreachable(j, p.pass, loid, err, report, errs)
		default:
			*errs = append(*errs, fmt.Errorf("resume %s: %w", loid, err))
		}
	}
}

// rollbackPass undoes an interrupted pass whose target the loaded store no
// longer offers: any instance observed on the orphaned target is forced
// back to its journalled pre-pass version. The style is deliberately not
// consulted — the orphaned version does not exist as far as the store is
// concerned, so the only consistent state is the pre-pass one.
func (m *Manager) rollbackPass(ctx context.Context, sp *obs.Span, j *Journal, p *passState, report *RecoveryReport, errs *[]error) {
	loids := make([]naming.LOID, 0, len(p.intents))
	for loid := range p.intents {
		loids = append(loids, loid)
	}
	sortLOIDs(loids)
	for _, loid := range loids {
		intent := p.intents[loid]
		inst := m.instanceOf(loid)
		if inst == nil {
			continue
		}
		actual, err := inst.Version(ctx)
		if err != nil {
			m.quarantineUnreachable(j, p.pass, loid, err, report, errs)
			continue
		}
		m.syncRecord(loid, actual)
		if !actual.Equal(p.target) {
			report.Verified = append(report.Verified, loid)
			continue
		}
		desc, err := m.store.InstantiableDescriptor(intent.From)
		if err != nil {
			*errs = append(*errs, fmt.Errorf("rollback %s to %s: %w", loid, intent.From, err))
			continue
		}
		if _, err := applyInstance(ctx, sp, inst, desc, intent.From); err != nil {
			if isConnectivityError(err) {
				m.quarantineUnreachable(j, p.pass, loid, err, report, errs)
			} else {
				*errs = append(*errs, fmt.Errorf("rollback %s to %s: %w", loid, intent.From, err))
			}
			continue
		}
		m.syncRecord(loid, intent.From)
		m.event("rolled-back", loid, intent.From, "orphaned target "+p.target.String())
		report.RolledBack = append(report.RolledBack, loid)
	}
}

// quarantineUnreachable handles a probe/evolve connectivity failure during
// recovery: quarantine the instance, journal the skip, report it.
func (m *Manager) quarantineUnreachable(j *Journal, pass uint64, loid naming.LOID, cause error, report *RecoveryReport, errs *[]error) {
	reason := fmt.Sprintf("unreachable during recovery of pass %d: %v", pass, cause)
	m.quarantine(loid, reason)
	if err := j.Skipped(pass, loid, reason); err != nil {
		*errs = append(*errs, err)
	}
	report.Quarantined = append(report.Quarantined, loid)
}

// syncRecord pins the DCDO table to an instance's observed version.
func (m *Manager) syncRecord(loid naming.LOID, v version.ID) {
	m.mu.Lock()
	if rec, ok := m.records[loid]; ok {
		rec.Version = v.Clone()
	}
	m.mu.Unlock()
}

func sortLOIDs(loids []naming.LOID) {
	sort.Slice(loids, func(i, j int) bool { return loids[i].String() < loids[j].String() })
}
