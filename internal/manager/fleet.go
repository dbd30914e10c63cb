package manager

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/version"
)

// Fleet evolution: a manager-driven pass that brings every managed instance
// to a target version. Unlike the per-instance EvolveInstance entry point, a
// fleet pass tolerates partial connectivity — instances that cannot be
// reached are quarantined and skipped rather than failing the whole pass
// (the prober re-converges them when they return, see Prober) — and the
// whole pass is journalled so a crashed manager resumes it on restart.

// FleetReport summarises one fleet evolution pass.
type FleetReport struct {
	// Target is the version the pass drove instances towards.
	Target version.ID
	// Pass is the journal pass identifier (0 with no journal).
	Pass uint64
	// Evolved lists instances successfully brought to Target.
	Evolved []naming.LOID
	// Skipped lists instances quarantined during (or before) the pass.
	Skipped []naming.LOID
	// Failed lists instances whose evolution failed for non-connectivity
	// reasons (style violation, descriptor errors, application failures).
	Failed []naming.LOID
	// Halted reports that the pass was abandoned mid-way because its ctx
	// ended: no done record, the pass left open for Recover.
	Halted bool
}

// EvolveFleet evolves managed, non-quarantined instances to v as one
// journalled pass: every one of them when subset is nil, otherwise only
// those listed in subset. A subset pass is the rollout supervisor's wave
// primitive: the journal pass plans exactly the subset, so a crash mid-wave
// makes Recover finish the wave — and only the wave — rather than pushing
// the whole fleet to the target behind the SLO guard's back. Quarantined
// and unknown LOIDs in the subset are skipped.
//
// The pass runs through the executor (runPass): unreachable instances are
// quarantined and skipped; other failures are returned joined, each wrapped
// with its LOID, without stopping the pass; instances dropped meanwhile are
// left out of the report. N moves cost N + 1 fsyncs. A ctx that ends
// mid-pass halts it between instances, leaving the journal open for
// Recover, exactly as a crash would: the report is Halted and the error
// carries ctx's.
func (m *Manager) EvolveFleet(ctx context.Context, v version.ID, subset []naming.LOID) (FleetReport, error) {
	return m.fleetPass(ctx, v, subset, "")
}

// RollbackFleet is EvolveFleet's retreat: it forces the instances back to v
// without consulting the evolution style (see RollbackInstance), as one
// pass begun with the rollback reason, so a crash mid-retreat resumes as a
// rollback. Like RollbackInstance it moves quarantined instances too: the
// prober's style-checked re-convergence may not take one back. The rollout
// supervisor retreats through it.
func (m *Manager) RollbackFleet(ctx context.Context, v version.ID, subset []naming.LOID) (FleetReport, error) {
	return m.fleetPass(ctx, v, subset, passReasonRollback)
}

func (m *Manager) fleetPass(ctx context.Context, v version.ID, subset []naming.LOID, reason string) (FleetReport, error) {
	m.mu.Lock()
	j := m.journal
	if subset == nil {
		for loid := range m.records {
			subset = append(subset, loid)
		}
	}
	planned := make([]naming.LOID, 0, len(subset))
	for _, loid := range subset {
		if _, q := m.quarantined[loid]; m.records[loid] != nil && (!q || reason == passReasonRollback) {
			planned = append(planned, loid)
		}
	}
	m.mu.Unlock()
	sortLOIDs(planned)
	moves := make([]move, len(planned))
	for i, loid := range planned {
		moves[i] = move{loid: loid, to: v}
	}
	p := &pass{log: j.openPass(v, planned, reason), rollback: reason == passReasonRollback, halting: true}
	res, halted, err := m.runPass(ctx, p, moves)
	report := FleetReport{Target: v.Clone(), Pass: p.log.pass, Halted: halted}
	var errs []error
	for _, r := range res {
		switch r.out {
		case outMoved, outAt:
			report.Evolved = append(report.Evolved, r.loid)
		case outQuarantined:
			report.Skipped = append(report.Skipped, r.loid)
		case outFailed:
			report.Failed = append(report.Failed, r.loid)
			errs = append(errs, fmt.Errorf("%s: %w", r.loid, r.err))
		}
	}
	return report, errors.Join(append(errs, err)...)
}

// isConnectivityError reports whether err indicates the instance could not
// be reached (as opposed to refusing or failing the evolution): transport
// faults, retry exhaustion, ambiguous outcomes, unresolvable or evicted
// bindings. Connectivity failures quarantine an instance; anything else is
// a real evolution failure.
func isConnectivityError(err error) bool {
	var ce *transport.CallError
	if errors.As(err, &ce) {
		return true
	}
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrTimeout) ||
		errors.Is(err, transport.ErrReset) ||
		errors.Is(err, rpc.ErrBudgetExhausted) ||
		errors.Is(err, rpc.ErrAmbiguousResult) ||
		errors.Is(err, rpc.ErrNoSuchObject) ||
		errors.Is(err, rpc.ErrUnavailable) ||
		errors.Is(err, naming.ErrNotBound)
}

// QuarantineInstance marks a managed instance unreachable: fleet passes
// skip it until it is unquarantined (normally by the prober observing it
// respond again).
func (m *Manager) QuarantineInstance(loid naming.LOID, reason string) error {
	m.mu.Lock()
	_, ok := m.records[loid]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, loid)
	}
	m.quarantine(loid, reason)
	return nil
}

// quarantine records the quarantine and emits the event; the instance need
// not be re-checked (callers hold evidence it is managed).
func (m *Manager) quarantine(loid naming.LOID, reason string) {
	m.mu.Lock()
	_, already := m.quarantined[loid]
	m.quarantined[loid] = reason
	m.mu.Unlock()
	if !already {
		m.event("quarantined", loid, nil, reason)
	}
}

// UnquarantineInstance clears an instance's quarantine, making it eligible
// for fleet passes again. Clearing a non-quarantined instance is a no-op.
func (m *Manager) UnquarantineInstance(loid naming.LOID) {
	m.mu.Lock()
	_, was := m.quarantined[loid]
	delete(m.quarantined, loid)
	m.mu.Unlock()
	if was {
		m.event("unquarantined", loid, nil, "")
	}
}

// IsQuarantined reports whether loid is quarantined, and why.
func (m *Manager) IsQuarantined(loid naming.LOID) (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	reason, ok := m.quarantined[loid]
	return ok, reason
}

// Quarantined returns the quarantined LOIDs in sorted order.
func (m *Manager) Quarantined() []naming.LOID {
	m.mu.Lock()
	out := make([]naming.LOID, 0, len(m.quarantined))
	for loid := range m.quarantined {
		out = append(out, loid)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// instanceOf returns the managed instance for loid (nil when unknown).
func (m *Manager) instanceOf(loid naming.LOID) Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.instances[loid]
}
