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
	// Halted reports that the pass was abandoned mid-way (only by
	// EvolveFleetPartial, the crash-simulation hook).
	Halted bool
}

// EvolveFleet evolves every managed, non-quarantined instance to v as one
// journalled pass. Unreachable instances are quarantined and skipped; other
// per-instance failures are collected and returned joined (each wrapped
// with its LOID), without stopping the pass. Instances dropped while the
// pass runs are left out of the report. A ctx that ends mid-pass halts
// the pass between instances — never mid-instance — leaving the journal
// open for Recover to resume, exactly as a crash would.
func (m *Manager) EvolveFleet(ctx context.Context, v version.ID) (FleetReport, error) {
	return m.evolveFleet(ctx, v, -1, nil)
}

// EvolveFleetPartial is EvolveFleet with a crash point: the pass is
// abandoned — journal left open, no done record — after maxApplies
// successful applications. It exists so tests and the chaos harness can
// simulate a manager dying mid-pass; production callers want EvolveFleet.
func (m *Manager) EvolveFleetPartial(ctx context.Context, v version.ID, maxApplies int) (FleetReport, error) {
	return m.evolveFleet(ctx, v, maxApplies, nil)
}

// EvolveFleetSubset evolves only the given instances to v, as one journalled
// pass. This is the rollout supervisor's wave primitive: the journal pass
// plans exactly the subset, so a crash mid-wave makes Recover finish the
// wave — and only the wave — rather than pushing the whole fleet to the
// target behind the SLO guard's back. Quarantined and unknown LOIDs in the
// subset are skipped.
func (m *Manager) EvolveFleetSubset(ctx context.Context, v version.ID, subset []naming.LOID) (FleetReport, error) {
	return m.evolveFleet(ctx, v, -1, subset)
}

// EvolveFleetSubsetPartial is EvolveFleetSubset with EvolveFleetPartial's
// crash point, for chaos tests that kill a supervisor mid-wave.
func (m *Manager) EvolveFleetSubsetPartial(ctx context.Context, v version.ID, subset []naming.LOID, maxApplies int) (FleetReport, error) {
	return m.evolveFleet(ctx, v, maxApplies, subset)
}

func (m *Manager) evolveFleet(ctx context.Context, v version.ID, maxApplies int, only []naming.LOID) (FleetReport, error) {
	m.mu.Lock()
	j := m.journal
	var planned []naming.LOID
	if only != nil {
		planned = make([]naming.LOID, 0, len(only))
		for _, loid := range only {
			_, q := m.quarantined[loid]
			if m.records[loid] != nil && !q {
				planned = append(planned, loid)
			}
		}
	} else {
		planned = make([]naming.LOID, 0, len(m.records))
		for loid := range m.records {
			if _, q := m.quarantined[loid]; !q {
				planned = append(planned, loid)
			}
		}
	}
	m.mu.Unlock()
	sort.Slice(planned, func(i, j int) bool { return planned[i].String() < planned[j].String() })

	report := FleetReport{Target: v.Clone()}
	pass, err := j.BeginPass(v, planned)
	if err != nil {
		return report, err
	}
	report.Pass = pass

	var errs []error
	for _, loid := range planned {
		if err := ctx.Err(); err != nil {
			// Halt like a crash: the journal pass stays open, so Recover
			// resumes the instances this pass never reached.
			report.Halted = true
			errs = append(errs, fmt.Errorf("fleet pass %d halted: %w", pass, err))
			return report, errors.Join(errs...)
		}
		if maxApplies >= 0 && len(report.Evolved) >= maxApplies {
			report.Halted = true
			return report, errors.Join(errs...)
		}
		// Already converged instances need no transition (styles like
		// multi-increasing would even deny the self-transition).
		m.mu.Lock()
		atTarget := m.records[loid] != nil && m.records[loid].Version.Equal(v)
		m.mu.Unlock()
		if atTarget {
			report.Evolved = append(report.Evolved, loid)
			continue
		}
		switch evErr := m.evolveOne(ctx, pass, loid, v, false); {
		case evErr == nil:
			report.Evolved = append(report.Evolved, loid)
		case errors.Is(evErr, ErrUnknownInstance):
			// Dropped after the pass was planned: it has left the fleet,
			// so there is nothing to converge (Recover skips it likewise).
		case isConnectivityError(evErr):
			reason := fmt.Sprintf("unreachable during pass %d: %v", pass, evErr)
			m.quarantine(loid, reason)
			if jerr := j.Skipped(pass, loid, reason); jerr != nil {
				errs = append(errs, fmt.Errorf("%s: %w", loid, jerr))
			}
			report.Skipped = append(report.Skipped, loid)
		default:
			report.Failed = append(report.Failed, loid)
			errs = append(errs, fmt.Errorf("%s: %w", loid, evErr))
		}
	}
	if err := j.Done(pass); err != nil {
		errs = append(errs, err)
	}
	return report, errors.Join(errs...)
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
