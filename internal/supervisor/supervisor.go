package supervisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

// Rollout phases, as reported by Status.
const (
	PhaseIdle        = "idle"
	PhaseCanary      = "canary"
	PhaseBaking      = "baking"
	PhaseWidening    = "widening"
	PhaseRollingBack = "rolling-back"
	PhaseCompleted   = "completed"
	PhaseRolledBack  = "rolled-back"
	PhaseAborted     = "aborted"
	PhaseFailed      = "failed"
)

// Terminal rollout dispositions (journalled on the rollout-done record).
const (
	DispositionCompleted  = "completed"
	DispositionRolledBack = "rolled-back"
	DispositionAborted    = "aborted"
)

// ErrRolloutActive is returned by Start/Resume while a rollout is running.
var ErrRolloutActive = errors.New("supervisor: a rollout is already active")

// ErrNoRollout is returned by Pause/Unpause/Abort with no active rollout.
var ErrNoRollout = errors.New("supervisor: no active rollout")

// Supervisor executes rollout policies against one manager's fleet.
// Configure the exported fields before the first Start/Resume; they must
// not change afterwards.
type Supervisor struct {
	// Mgr is the manager whose fleet is rolled out.
	Mgr *manager.Manager
	// Reg is the metrics registry SLO guards read (typically the node's
	// obs registry).
	Reg *metrics.Registry
	// Obs receives rollout events (nil disables them).
	Obs *obs.Obs
	// Hub, when set, receives the node's event feed (the caller binds it);
	// it is exposed here so Status consumers can find it.
	Hub *Hub
	// Clock supplies time (vclock.Real when nil).
	Clock vclock.Clock

	mu     sync.Mutex
	ro     *rollout // active rollout (nil when idle)
	last   Status   // status of the last finished rollout
	paused bool
	abort  string // non-empty requests an abort with this reason
}

// rollout is the in-flight state of one policy execution.
type rollout struct {
	id       uint64 // journal rollout identifier
	policy   Policy
	baseline version.ID
	promoted map[naming.LOID]bool
	wave     int // waves completed (canary = wave 1 once promoted)
	unbaked  []naming.LOID
	phase    string
	verdict  Verdict
	err      string
	done     chan struct{}
}

// Status is a point-in-time view of the supervisor, JSON-shaped for the
// rollout service and /debug/rollout.
type Status struct {
	Active   bool          `json:"active"`
	Paused   bool          `json:"paused,omitempty"`
	Rollout  uint64        `json:"rollout,omitempty"`
	Policy   *Policy       `json:"policy,omitempty"`
	Phase    string        `json:"phase"`
	Baseline string        `json:"baseline,omitempty"`
	Target   string        `json:"target,omitempty"`
	Wave     int           `json:"wave"`
	Promoted []naming.LOID `json:"promoted,omitempty"`
	Verdict  Verdict       `json:"verdict"`
	Err      string        `json:"error,omitempty"`
}

func (s *Supervisor) clock() vclock.Clock {
	if s.Clock == nil {
		return vclock.Real{}
	}
	return s.Clock
}

func (s *Supervisor) event(kind string, v version.ID, detail string) {
	if s.Obs == nil {
		return
	}
	s.Obs.GetEvents().Append(obs.Event{Kind: kind, Version: v.String(), Detail: detail})
}

// Start begins executing policy. The baseline every rollback returns to is
// the manager's current version at start (the target's parent in the
// version tree when no current version is designated). One rollout runs at
// a time; the rollout itself proceeds on a background goroutine, bounded by
// ctx — use Wait or Status to follow it. Once ctx ends, the rollout stops
// as a killed process would: it journals nothing more and parks in
// PhaseFailed, open for Resume.
func (s *Supervisor) Start(ctx context.Context, policy Policy) error {
	if err := policy.Validate(); err != nil {
		return err
	}
	if !s.Mgr.Store().IsInstantiable(policy.Target) {
		return fmt.Errorf("supervisor: target %s is not instantiable", policy.Target)
	}
	baseline, _ := s.Mgr.CurrentVersion()
	if baseline.IsZero() {
		parent, err := s.Mgr.Store().Parent(policy.Target)
		if err != nil {
			return fmt.Errorf("supervisor: no baseline: no current version and %w", err)
		}
		baseline = parent
	}
	if baseline.Equal(policy.Target) {
		return fmt.Errorf("supervisor: target %s is already the baseline", policy.Target)
	}
	if !s.Mgr.Store().IsInstantiable(baseline) {
		return fmt.Errorf("supervisor: baseline %s is not instantiable — rollback would strand the fleet", baseline)
	}

	encoded, err := json.Marshal(policy)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.ro != nil {
		s.mu.Unlock()
		return ErrRolloutActive
	}
	id, jerr := s.Mgr.Journal().RolloutStart(policy.Target, baseline, string(encoded))
	if jerr != nil {
		s.mu.Unlock()
		return jerr
	}
	ro := &rollout{
		id:       id,
		policy:   policy,
		baseline: baseline.Clone(),
		promoted: make(map[naming.LOID]bool),
		phase:    PhaseCanary,
		done:     make(chan struct{}),
	}
	s.ro, s.paused, s.abort = ro, false, ""
	s.mu.Unlock()

	s.event("rollout-started", policy.Target, fmt.Sprintf("rollout=%d baseline=%s policy=%s", id, baseline, policy.Name))
	go s.run(ctx, ro)
	return nil
}

// Resume continues a rollout an earlier supervisor left open in the
// journal. It first runs the manager's own Recover — which finishes any
// evolution pass (including a wave or a rollback) the crash interrupted —
// then reconstructs the rollout from its journalled records: policy from
// the start record, promoted set and wave count from the wave records.
// Instances found on the target beyond the promoted set are the crashed
// wave; they bake first before widening continues. Returns false when the
// journal holds no open rollout.
func (s *Supervisor) Resume(ctx context.Context) (bool, error) {
	s.mu.Lock()
	if s.ro != nil {
		s.mu.Unlock()
		return false, ErrRolloutActive
	}
	s.mu.Unlock()

	if _, err := s.Mgr.Recover(ctx); err != nil {
		return false, fmt.Errorf("supervisor: resume recovery: %w", err)
	}
	recs, err := s.Mgr.Journal().Records()
	if err != nil {
		return false, err
	}
	var start *manager.JournalRecord
	promoted := make(map[naming.LOID]bool)
	waves := 0
	rolledBack := false
	for i, r := range recs {
		if r.Op == manager.OpRolloutStart {
			start, promoted, waves, rolledBack = &recs[i], make(map[naming.LOID]bool), 0, false
		}
		if start == nil || r.Pass != start.Pass {
			continue
		}
		switch r.Op {
		case manager.OpRolloutWave:
			waves++
			for _, loid := range r.Planned {
				promoted[loid] = true
			}
		case manager.OpRolloutRollback:
			rolledBack = true
		case manager.OpRolloutDone:
			start = nil
		}
	}
	if start == nil {
		return false, nil
	}

	var policy Policy
	if err := json.Unmarshal([]byte(start.Reason), &policy); err != nil {
		return false, fmt.Errorf("supervisor: corrupt rollout policy in journal: %w", err)
	}
	policy.Target = start.Target.Clone()

	ro := &rollout{
		id:       start.Pass,
		policy:   policy,
		baseline: start.From.Clone(),
		promoted: promoted,
		wave:     waves,
		done:     make(chan struct{}),
	}
	// Instances already on the target but never promoted are the wave the
	// crash interrupted (completed by Recover above): bake them before
	// widening further. If the crash happened mid-rollback instead, finish
	// the retreat.
	if rolledBack {
		ro.phase = PhaseRollingBack
	} else {
		for _, rec := range s.Mgr.Records() {
			if rec.Version.Equal(policy.Target) && !promoted[rec.LOID] {
				ro.unbaked = append(ro.unbaked, rec.LOID)
			}
		}
		sortLOIDs(ro.unbaked)
		ro.phase = PhaseCanary
		if len(promoted) > 0 || len(ro.unbaked) > 0 {
			ro.phase = PhaseWidening
		}
	}

	s.mu.Lock()
	if s.ro != nil {
		s.mu.Unlock()
		return false, ErrRolloutActive
	}
	s.ro, s.paused, s.abort = ro, false, ""
	s.mu.Unlock()

	s.event("rollout-resumed", policy.Target,
		fmt.Sprintf("rollout=%d promoted=%d unbaked=%d", ro.id, len(promoted), len(ro.unbaked)))
	go s.run(ctx, ro)
	return true, nil
}

// Pause suspends the rollout before its next guard tick or wave; promoted
// instances stay on the target. Unpause continues it.
func (s *Supervisor) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro == nil {
		return ErrNoRollout
	}
	s.paused = true
	return nil
}

// Unpause resumes a paused rollout.
func (s *Supervisor) Unpause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro == nil {
		return ErrNoRollout
	}
	s.paused = false
	return nil
}

// Abort stops the rollout and rolls every instance on the target back to
// the baseline. The retreat happens on the rollout goroutine; Wait for it.
func (s *Supervisor) Abort(reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro == nil {
		return ErrNoRollout
	}
	if reason == "" {
		reason = "aborted by operator"
	}
	s.abort = reason
	s.paused = false // an abort overrides a pause
	return nil
}

// Status reports the active rollout (or the last finished one).
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ro == nil {
		if s.last.Phase == "" {
			return Status{Phase: PhaseIdle}
		}
		return s.last
	}
	return s.statusLocked()
}

func (s *Supervisor) statusLocked() Status {
	ro := s.ro
	promoted := make([]naming.LOID, 0, len(ro.promoted))
	for loid := range ro.promoted {
		promoted = append(promoted, loid)
	}
	sortLOIDs(promoted)
	policy := ro.policy
	return Status{
		Active:   true,
		Paused:   s.paused,
		Rollout:  ro.id,
		Policy:   &policy,
		Phase:    ro.phase,
		Baseline: ro.baseline.String(),
		Target:   ro.policy.Target.String(),
		Wave:     ro.wave,
		Promoted: promoted,
		Verdict:  ro.verdict,
		Err:      ro.err,
	}
}

// Wait blocks until the active rollout finishes (or ctx ends) and returns
// its terminal status. With no active rollout it returns immediately.
func (s *Supervisor) Wait(ctx context.Context) (Status, error) {
	s.mu.Lock()
	ro := s.ro
	s.mu.Unlock()
	if ro == nil {
		return s.Status(), nil
	}
	select {
	case <-ro.done:
		return s.Status(), nil
	case <-ctx.Done():
		return s.Status(), ctx.Err()
	}
}

// finish moves the rollout's terminal status into last and clears it.
func (s *Supervisor) finish(ro *rollout) {
	s.mu.Lock()
	if s.ro == ro {
		s.last = s.statusLocked()
		s.last.Active = false
		s.last.Paused = false
		s.ro = nil
	}
	s.mu.Unlock()
	close(ro.done)
}

// checkControl handles pause and abort between steps. It blocks while
// paused and returns the abort reason ("" to continue). ctx ends the wait;
// the caller then halts.
func (s *Supervisor) checkControl(ctx context.Context, ro *rollout) string {
	for {
		s.mu.Lock()
		abort := s.abort
		paused := s.paused
		s.mu.Unlock()
		if abort != "" {
			return abort
		}
		if !paused {
			return ""
		}
		select {
		case <-ctx.Done():
			return ""
		case <-s.clock().After(ro.policy.probeInterval()):
		}
	}
}

func (s *Supervisor) setPhase(ro *rollout, phase string) {
	s.mu.Lock()
	ro.phase = phase
	s.mu.Unlock()
}

// run is the rollout loop: pick a wave, evolve it, bake it under the
// guard, promote or retreat, repeat until the fleet is covered. It halts
// once ctx ends.
func (s *Supervisor) run(ctx context.Context, ro *rollout) {
	defer s.finish(ro)
	target := ro.policy.Target
	if ro.phase == PhaseRollingBack { // resumed mid-retreat
		s.retreat(ctx, ro, "resumed rollback")
		return
	}

	for {
		reason := s.checkControl(ctx, ro)
		if s.halted(ctx, ro) {
			return
		}
		if reason != "" {
			s.retreat(ctx, ro, reason)
			return
		}

		var wave []naming.LOID
		if len(ro.unbaked) > 0 {
			// A resumed rollout: the crashed wave is already on the target
			// (Recover finished it) but never baked. Bake it now.
			wave, ro.unbaked = ro.unbaked, nil
		} else {
			pending := s.pendingInstances(ro)
			if len(pending) == 0 {
				s.complete(ctx, ro)
				return
			}
			wave = pending[:min(ro.policy.waveWidth(ro.wave), len(pending))]

			phase := PhaseWidening
			if ro.wave == 0 {
				phase = PhaseCanary
			}
			s.setPhase(ro, phase)
			rep, err := s.Mgr.EvolveFleet(ctx, target, wave)
			if s.halted(ctx, ro) {
				return
			}
			if err != nil && len(rep.Evolved) == 0 {
				s.fail(ro, fmt.Sprintf("wave evolution failed: %v", err))
				return
			}
			wave = rep.Evolved
			s.event("rollout-wave", target, fmt.Sprintf("rollout=%d wave=%d evolved=%d skipped=%d",
				ro.id, ro.wave+1, len(rep.Evolved), len(rep.Skipped)))
			if len(wave) == 0 {
				// Everything in the wave was quarantined mid-pass; let the
				// next iteration re-plan (or complete) rather than spin.
				continue
			}
		}

		s.setPhase(ro, PhaseBaking)
		healthy, breach := s.bake(ctx, ro, wave)
		if s.halted(ctx, ro) {
			return
		}
		if !healthy {
			s.retreat(ctx, ro, breach)
			return
		}

		s.mu.Lock()
		for _, loid := range wave {
			ro.promoted[loid] = true
		}
		ro.wave++
		s.mu.Unlock()
		if err := s.Mgr.Journal().RolloutWave(ro.id, wave); err != nil {
			s.fail(ro, fmt.Sprintf("journal wave: %v", err))
			return
		}
		s.event("rollout-promoted", target, fmt.Sprintf("rollout=%d wave=%d instances=%d",
			ro.id, ro.wave, len(wave)))
	}
}

// pendingInstances lists managed, non-quarantined instances not yet
// promoted, sorted for deterministic wave composition.
func (s *Supervisor) pendingInstances(ro *rollout) []naming.LOID {
	s.mu.Lock()
	promoted := make(map[naming.LOID]bool, len(ro.promoted))
	for loid := range ro.promoted {
		promoted[loid] = true
	}
	s.mu.Unlock()
	var out []naming.LOID
	for _, loid := range s.Mgr.InstanceLOIDs() {
		if promoted[loid] {
			continue
		}
		if q, _ := s.Mgr.IsQuarantined(loid); q {
			continue
		}
		out = append(out, loid)
	}
	sortLOIDs(out)
	return out
}

// bake watches the SLO guard for the policy's bake time, evaluating every
// probe interval. Returns false (with the breach) the moment a guard
// trips. Windows with too few samples extend the bake rather than count
// toward it, so a quiet fleet is not promoted on no evidence — bounded at
// 8 extra bake times so a dead workload cannot wedge the rollout forever.
// wave is the cohort under judgement: when the policy arms the burn-rate
// guard, only those instances' dimensioned invoke counters feed it, so a
// sick canary is caught even while fleet-wide rates stay green.
func (s *Supervisor) bake(ctx context.Context, ro *rollout, wave []naming.LOID) (bool, string) {
	guard := NewGuard(s.Reg, ro.policy.SLO)
	if len(wave) > 0 {
		cohort := make([]string, len(wave))
		for i, loid := range wave {
			cohort[i] = loid.String()
		}
		guard.SetCohort(cohort)
	}
	guard.Prime()
	clk := s.clock()
	interval := ro.policy.probeInterval()
	deadline := clk.Now().Add(ro.policy.bakeTime())
	hardStop := clk.Now().Add(9 * ro.policy.bakeTime())

	for {
		select {
		case <-ctx.Done():
			return false, ""
		case <-clk.After(interval):
		}
		if reason := s.checkControl(ctx, ro); reason != "" {
			return false, reason
		}
		v := guard.Evaluate()
		s.mu.Lock()
		ro.verdict = v
		s.mu.Unlock()
		if !v.Healthy {
			return false, v.Breach
		}
		now := clk.Now()
		if v.Insufficient && ro.policy.SLO.Enabled() {
			if now.Before(hardStop) {
				continue // not enough evidence yet — keep baking
			}
			return true, "" // workload went quiet; promote on no counter-evidence
		}
		if !now.Before(deadline) {
			return true, ""
		}
	}
}

// complete finishes a fully promoted rollout: the target becomes the
// manager's designated current version and the rollout closes.
func (s *Supervisor) complete(ctx context.Context, ro *rollout) {
	target := ro.policy.Target
	if err := s.Mgr.SetCurrentVersion(ctx, target); err != nil {
		s.fail(ro, fmt.Sprintf("designate %s current: %v", target, err))
		return
	}
	if err := s.Mgr.Journal().RolloutDone(ro.id, DispositionCompleted); err != nil {
		s.fail(ro, fmt.Sprintf("journal done: %v", err))
		return
	}
	s.setPhase(ro, PhaseCompleted)
	s.event("rollout-completed", target, fmt.Sprintf("rollout=%d waves=%d", ro.id, ro.wave))
}

// retreat rolls every instance on the target back to the baseline as one
// RollbackFleet pass, journalling the decision first so a crash mid-retreat
// resumes as a retreat. Only a pass that moves them all closes the rollout;
// a failed or skipped (unreachable) instance leaves it open, failed, for
// Resume to retreat again. reason distinguishes an SLO breach from an
// operator abort in the terminal disposition.
func (s *Supervisor) retreat(ctx context.Context, ro *rollout, reason string) {
	if s.halted(ctx, ro) {
		return
	}
	s.setPhase(ro, PhaseRollingBack)
	s.mu.Lock()
	aborted := s.abort != ""
	s.mu.Unlock()
	s.event("rollout-rollback", ro.baseline, fmt.Sprintf("rollout=%d reason=%s", ro.id, reason))
	if err := s.Mgr.Journal().RolloutRollback(ro.id, reason); err != nil {
		s.fail(ro, fmt.Sprintf("journal rollback: %v", err))
		return
	}

	onTarget := []naming.LOID{} // not nil: a nil subset is the whole fleet
	for _, rec := range s.Mgr.Records() {
		if rec.Version.Equal(ro.policy.Target) {
			onTarget = append(onTarget, rec.LOID)
		}
	}
	rep, err := s.Mgr.RollbackFleet(ctx, ro.baseline, onTarget)
	if s.halted(ctx, ro) {
		return
	}
	if err == nil && len(rep.Skipped) > 0 {
		err = fmt.Errorf("unreachable: %v", rep.Skipped)
	}
	if err != nil {
		s.fail(ro, fmt.Sprintf("%s: rollback: %v", reason, err))
		return
	}
	disposition, phase := DispositionRolledBack, PhaseRolledBack
	if aborted {
		disposition, phase = DispositionAborted, PhaseAborted
	}
	if err := s.Mgr.Journal().RolloutDone(ro.id, disposition); err != nil {
		s.fail(ro, fmt.Sprintf("journal done: %v", err))
		return
	}
	s.mu.Lock()
	ro.phase, ro.err = phase, reason
	s.mu.Unlock()
	s.event("rollout-"+disposition, ro.baseline, fmt.Sprintf("rollout=%d reason=%s", ro.id, reason))
}

// halted reports whether ctx has ended and, if so, parks the rollout as a
// killed process leaves it: nothing more journalled, open for Resume.
func (s *Supervisor) halted(ctx context.Context, ro *rollout) bool {
	if ctx.Err() == nil {
		return false
	}
	s.fail(ro, fmt.Sprintf("halted: %v", ctx.Err()))
	return true
}

// fail parks the rollout in the failed phase without journaling done: the
// journal still holds the open rollout, so a restart can resume it.
func (s *Supervisor) fail(ro *rollout, msg string) {
	s.mu.Lock()
	ro.phase, ro.err = PhaseFailed, msg
	s.mu.Unlock()
	s.event("rollout-failed", ro.policy.Target, fmt.Sprintf("rollout=%d: %s", ro.id, msg))
}

func sortLOIDs(loids []naming.LOID) {
	sort.Slice(loids, func(i, j int) bool { return loids[i].String() < loids[j].String() })
}
