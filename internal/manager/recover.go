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
	begin   JournalRecord
	intents map[naming.LOID]JournalRecord // first intent per instance
	recs    []JournalRecord               // every record but done, in order
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
		sp = tr.StartSpan(obs.StageMgrRecover, obs.SpanFromContext(ctx))
		ctx = obs.ContextWithSpan(ctx, sp.Context())
	}
	report, err := m.recover(ctx, j, recs)
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

func (m *Manager) recover(ctx context.Context, j *Journal, recs []JournalRecord) (RecoveryReport, error) {
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
			passes[r.Pass] = &passState{begin: r, intents: make(map[naming.LOID]JournalRecord), recs: []JournalRecord{r}}
			order = append(order, r.Pass)
		case OpIntent:
			// The first intent holds the pre-pass version a rollback
			// restores; a recovery's own intents come after it.
			if p := passes[r.Pass]; p != nil {
				if _, seen := p.intents[r.LOID]; !seen {
					p.intents[r.LOID] = r
				}
				p.recs = append(p.recs, r)
			}
		case OpApplied, OpSkipped:
			if p := passes[r.Pass]; p != nil {
				p.recs = append(p.recs, r)
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
	var open []uint64 // passes this recovery halted, ctx having ended
	for _, id := range order {
		p := passes[id]
		if p.done {
			continue
		}
		report.Passes++
		closed, err := m.recoverPass(ctx, j, p, &report)
		if !closed {
			open = append(open, id)
		}
		errs = append(errs, err)
	}

	// Shrink the journal to just the designations a future restart needs —
	// plus any open rollout's records, which the supervisor (not this
	// recovery) will close, and every pass this recovery could not close, as
	// its records stood, for the next Recover to finish.
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
	for _, id := range open {
		keep = append(keep, passes[id].recs...)
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

// recoverPass finishes an interrupted pass through the executor, probing
// each instance first. While the store offers the pass target, every planned
// instance still managed is moved to it (a rollback pass stays style-exempt).
// Once the target is orphaned, each instance with an intent that is found on
// it is rolled back, style-exempt, to its pre-pass version. It reports
// whether it closed the pass: a ctx that ends halts it, open.
func (m *Manager) recoverPass(ctx context.Context, j *Journal, ps *passState, report *RecoveryReport) (bool, error) {
	b := ps.begin
	p := &pass{log: &passLog{j: j, pass: b.Pass}, recovery: true, rollback: b.Reason == passReasonRollback, halting: true}
	var moves []move
	resume := m.store.IsInstantiable(b.Target)
	if resume {
		for _, loid := range b.Planned {
			moves = append(moves, move{loid: loid, to: b.Target})
		}
	} else {
		p.rollback = true
		for loid, intent := range ps.intents {
			moves = append(moves, move{loid: loid, to: intent.From, only: b.Target})
		}
		sort.Slice(moves, func(a, b int) bool { return moves[a].loid.String() < moves[b].loid.String() })
	}
	res, halted, err := m.runPass(ctx, p, moves)
	errs := []error{err}
	for _, r := range res {
		switch {
		case r.out == outMoved && resume:
			report.Resumed = append(report.Resumed, r.loid)
		case r.out == outMoved:
			report.RolledBack = append(report.RolledBack, r.loid)
		case r.out == outAt:
			report.Verified = append(report.Verified, r.loid)
		case r.out == outQuarantined:
			report.Quarantined = append(report.Quarantined, r.loid)
		case r.out == outFailed:
			errs = append(errs, fmt.Errorf("recover %s: %w", r.loid, r.err))
		}
	}
	return !halted, errors.Join(errs...)
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
