package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// ApplyReport summarises what one evolution did — the quantities the
// evolution-cost experiments (E5/E6) are driven by.
type ApplyReport struct {
	ComponentsAdded    int
	ComponentsRemoved  int
	ComponentsReplaced int
	EntriesRetuned     int
	BytesFetched       int64
}

// ErrPlanRefused means the object refused a planned change: it is not at
// the plan's source version, or its table has changed since that version was
// stamped. Nothing was touched; the full descriptor is the way forward.
var ErrPlanRefused = errors.New("core: plan refused: object is not at the plan's source configuration")

// ApplyDescriptor evolves the object to match target, stamping it with
// newVersion: it plans the change from a snapshot of the object, then runs
// it through the same executor as ApplyPlan. The target descriptor must
// already be validated (managers only hand out instantiable versions), so
// constraint checks are bypassed here; thread-activity policies still apply
// to component removal.
//
// The object keeps servicing calls throughout: evolution never deactivates
// the process. The whole reconfiguration is one DFM transaction, published
// once, so callers resolve against the configuration before the apply or the
// one after it and never a table in between: a function enabled in both is
// never observed disabled or unknown while the apply runs, and Interface()
// is always exactly the old set or the new one.
//
// Everything slow or fallible on outside input happens first, with no lock
// held: the plan, the thread-activity wait for every departing component,
// and the fetch, load and function resolution of every arriving one. ctx
// bounds those steps (a deadline that expires mid-transfer aborts the
// download) and a failure there leaves the object untouched. A failure
// inside the transaction leaves what it had staged — a consistent, if
// intermediate, configuration — published once, with the version unchanged.
func (d *DCDO) ApplyDescriptor(ctx context.Context, target *dfm.Descriptor, newVersion version.ID) (ApplyReport, error) {
	return d.apply(ctx, nil, newVersion, true, func() *dfm.Change { return d.changeTo(target) })
}

// changeTo plans the change from the object's configuration to target.
func (d *DCDO) changeTo(target *dfm.Descriptor) *dfm.Change {
	return dfm.NewChange(d.snapshotOf(d.table.EntriesUnordered()), target) // Diff does not read the order
}

// PlanArgs carry a planned change: the plan that moves an object configured
// as version From to version To.
type PlanArgs struct {
	From, To version.ID
	Change   *dfm.Change
}

// ApplyPlan applies a.Change and stamps the object a.To, provided the object
// is at a.From with its table unchanged since that version was stamped — no
// direct enable, incorporate or removal, no failed apply and no restore,
// since. Otherwise it refuses with ErrPlanRefused and touches nothing. Past
// that check it is ApplyDescriptor without the planning.
func (d *DCDO) ApplyPlan(ctx context.Context, a PlanArgs) (ApplyReport, error) {
	return d.apply(ctx, a.From, a.To, true, func() *dfm.Change { return a.Change })
}

// atLocked reports whether the object is at version from with its table as
// that version's stamp left it. The caller holds d.mu.
func (d *DCDO) atLocked(from version.ID) bool {
	return !from.IsZero() && d.ver.Equal(from) && d.stamp == d.table.Publishes()
}

// unstamped is a stamp no Publishes() count reaches.
const unstamped = ^uint64(0)

// apply is the one evolution executor: it runs the change plan returns and
// stamps the object newVersion. A non-nil from makes it conditional on
// atLocked(from), checked before the plan and again inside the transaction,
// before anything is staged. With stamp false the object ends up unstamped,
// so ApplyPlan refuses every plan until the next full apply: RestoreState's
// target is the object's captured table, not necessarily newVersion's
// configuration as the store describes it.
func (d *DCDO) apply(ctx context.Context, from, newVersion version.ID, stamp bool, plan func() *dfm.Change) (report ApplyReport, err error) {
	if sp := d.span(ctx, obs.StageDCDOApply); sp != nil {
		sp.Annotate("object", d.cfg.LOID.String())
		sp.Annotate("version", newVersion.String())
		ctx = obs.ContextWithSpan(ctx, sp.Context()) // the fetches nest under it
		defer func() {
			sp.Fail(err)
			sp.Finish()
		}()
	}
	d.evolveMu.Lock()
	defer d.evolveMu.Unlock()
	if err := ctx.Err(); err != nil {
		return ApplyReport{}, fmt.Errorf("apply: %w", err)
	}
	d.mu.Lock()
	refused := from != nil && !d.atLocked(from)
	d.mu.Unlock()
	if refused {
		return ApplyReport{}, ErrPlanRefused
	}
	c := plan()
	departing := slices.Concat(c.RemoveComponents, c.ReplaceComponents)
	keys := d.table.ComponentKeys(departing)
	for _, id := range departing {
		active := func() (n int64) {
			for _, k := range keys[id] {
				n += d.table.ActiveThreads(k)
			}
			return n
		}
		if err := d.waitComponentIdle(id, active); err != nil {
			return report, fmt.Errorf("apply: %w", err)
		}
	}
	arrivals := make([]*arrival, len(c.Arriving))
	for i, a := range c.Arriving {
		comp, err := d.cfg.Fetcher.Fetch(ctx, a.Ref.ICO)
		if err != nil {
			return report, fmt.Errorf("apply: fetch %q: %w", a.ID, err)
		}
		report.BytesFetched += int64(len(comp.Code))
		if arrivals[i], err = d.prepareArrival(comp, a.Ref.ICO); err != nil {
			return report, fmt.Errorf("apply: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("apply: %w", err)
	}

	staged := 0 // arrivals incorporated, for the events emitted afterwards
	d.mu.Lock()
	published, err := d.table.UpdateAt(func(tx *dfm.Tx) error {
		if from != nil && !d.atLocked(from) {
			return ErrPlanRefused // changed while the arrivals were fetched
		}
		// Phase 1: retune entries being disabled, releasing function names
		// that later phases re-bind to other implementations.
		for _, e := range c.Retune {
			if e.Enabled {
				continue
			}
			if err := tx.SetFlags(e.Key(), e.Exported, e.Mandatory, e.Permanent); err != nil {
				return fmt.Errorf("apply: retune %s: %w", e.Key(), err)
			}
			if err := tx.Disable(e.Key(), true); err != nil {
				return fmt.Errorf("apply: disable %s: %w", e.Key(), err)
			}
			report.EntriesRetuned++
		}

		// Phase 2: remove departing and replaced components.
		for _, id := range departing {
			for _, k := range keys[id] {
				if err := tx.Disable(k, true); err != nil {
					return fmt.Errorf("apply: disable %s: %w", k, err)
				}
				if err := tx.Remove(k); err != nil {
					return fmt.Errorf("apply: remove %q: %w", id, err)
				}
			}
			delete(d.components, id)
		}

		// Phase 3: incorporate arriving and replaced components, entries
		// initially disabled so cross-component swaps never double-enable,
		// then stamp the target's flags on them.
		for i, a := range c.Arriving {
			if err := d.stageArrival(tx, arrivals[i], false); err != nil {
				return fmt.Errorf("apply: %w", err)
			}
			staged++
			for _, te := range a.Entries {
				if err := tx.SetFlags(te.Key(), te.Exported, te.Mandatory, te.Permanent); err != nil {
					return fmt.Errorf("apply: flag %s: %w", te.Key(), err)
				}
			}
		}

		// Phase 4: enable everything the target enables — retunes and new
		// entries alike.
		for _, e := range c.Retune {
			if !e.Enabled {
				continue
			}
			if err := tx.SetFlags(e.Key(), e.Exported, e.Mandatory, e.Permanent); err != nil {
				return fmt.Errorf("apply: retune %s: %w", e.Key(), err)
			}
			if err := tx.Enable(e.Key()); err != nil {
				return fmt.Errorf("apply: enable %s: %w", e.Key(), err)
			}
			report.EntriesRetuned++
		}
		for _, a := range c.Arriving {
			for _, te := range a.Entries {
				if !te.Enabled {
					continue
				}
				if err := tx.Enable(te.Key()); err != nil {
					return fmt.Errorf("apply: enable %s: %w", te.Key(), err)
				}
			}
		}
		tx.SetDeps(c.Deps)
		d.ver = newVersion.Clone()
		return nil
	})
	if err == nil {
		d.stamp = unstamped
		if stamp {
			d.stamp = published
		}
	}
	d.mu.Unlock()
	for _, a := range arrivals[:staged] {
		d.emitIncorporated(a)
	}
	if err != nil {
		return report, err
	}
	report.ComponentsAdded = len(c.AddComponents)
	report.ComponentsReplaced = len(c.ReplaceComponents)
	report.ComponentsRemoved = len(c.RemoveComponents)
	if d.listened() {
		d.emit(EventEvolved, "", "", newVersion, fmt.Sprintf(
			"+%d components, -%d, ~%d replaced, %d entries retuned, %d bytes fetched",
			report.ComponentsAdded, report.ComponentsRemoved, report.ComponentsReplaced,
			report.EntriesRetuned, report.BytesFetched))
	}
	return report, nil
}

// --- Remote control plane --------------------------------------------------

// ApplyArgs are MethodApplyDescriptor's arguments.
type ApplyArgs struct {
	Target  *dfm.Descriptor
	Version version.ID
}

// PlanResult is MethodApplyPlan's result: the report of an applied plan, or
// Refused, ErrPlanRefused carried as a value so that a caller tells a refusal
// from a failure without reading an error's text.
type PlanResult struct {
	Refused bool
	Report  ApplyReport
}

// Outcome is the result as ApplyPlan returned it.
func (r PlanResult) Outcome() (ApplyReport, error) {
	if r.Refused {
		return ApplyReport{}, ErrPlanRefused
	}
	return r.Report, nil
}

// IncorporateArgs are MethodIncorporate's arguments.
type IncorporateArgs struct {
	ICO    naming.LOID
	Enable bool
}

// The control table: the DCDO's remotely callable configuration and status
// functions. Only the three status reads are idempotent.
var (
	MethodInterface = rpc.Method[rpc.None, []string]{Name: ControlPrefix + "interface", Idempotent: true,
		Args: rpc.NoneCodec, Result: rpc.NewCodec((*wire.Encoder).PutStringSlice, (*wire.Decoder).StringSlice)}
	MethodVersion = rpc.Method[rpc.None, version.ID]{Name: ControlPrefix + "version", Idempotent: true,
		Args: rpc.NoneCodec, Result: VersionCodec}
	MethodSnapshot = rpc.Method[rpc.None, *dfm.Descriptor]{Name: ControlPrefix + "snapshot", Idempotent: true,
		Args: rpc.NoneCodec, Result: DescriptorCodec}
	MethodApplyDescriptor = rpc.Method[ApplyArgs, ApplyReport]{Name: ControlPrefix + "applyDescriptor",
		Args: ApplyArgsCodec, Result: rpc.NewCodec(putApplyReport, getApplyReport)}
	MethodApplyPlan = rpc.Method[PlanArgs, PlanResult]{Name: ControlPrefix + "applyPlan",
		Args: rpc.NewCodec(putPlanArgs, getPlanArgs), Result: rpc.NewCodec(putPlanResult, getPlanResult)}
	MethodEnable = rpc.Method[dfm.EntryKey, rpc.None]{Name: ControlPrefix + "enable",
		Args: rpc.NewCodec(PutEntryKey, GetEntryKey), Result: rpc.NoneCodec}
	MethodDisable = rpc.Method[dfm.EntryKey, rpc.None]{Name: ControlPrefix + "disable",
		Args: rpc.NewCodec(PutEntryKey, GetEntryKey), Result: rpc.NoneCodec}
	MethodIncorporate = rpc.Method[IncorporateArgs, rpc.None]{Name: ControlPrefix + "incorporate",
		Args: rpc.NewCodec(putIncorporateArgs, getIncorporateArgs), Result: rpc.NoneCodec}
	MethodRemoveComponent = rpc.Method[string, rpc.None]{Name: ControlPrefix + "removeComponent",
		Args: rpc.StringCodec, Result: rpc.NoneCodec}
)

// controlTable serves the control methods. ctx bounds the long-running
// operations (applyDescriptor, incorporate); status queries answer
// regardless.
func (d *DCDO) controlTable() rpc.Table {
	return rpc.Serve(
		MethodInterface.Handle(func(context.Context, rpc.None) ([]string, error) { return d.Interface(), nil }),
		MethodVersion.Handle(func(context.Context, rpc.None) (version.ID, error) { return d.Version(), nil }),
		MethodSnapshot.Handle(func(context.Context, rpc.None) (*dfm.Descriptor, error) { return d.Snapshot(), nil }),
		MethodApplyDescriptor.Handle(func(ctx context.Context, a ApplyArgs) (ApplyReport, error) {
			return d.ApplyDescriptor(ctx, a.Target, a.Version)
		}),
		MethodApplyPlan.Handle(func(ctx context.Context, a PlanArgs) (PlanResult, error) {
			report, err := d.ApplyPlan(ctx, a)
			if errors.Is(err, ErrPlanRefused) {
				return PlanResult{Refused: true}, nil
			}
			return PlanResult{Report: report}, err
		}),
		MethodEnable.Handle(func(_ context.Context, key dfm.EntryKey) (rpc.None, error) {
			return rpc.None{}, d.EnableFunction(key)
		}),
		MethodDisable.Handle(func(_ context.Context, key dfm.EntryKey) (rpc.None, error) {
			return rpc.None{}, d.DisableFunction(key)
		}),
		MethodIncorporate.Handle(func(ctx context.Context, a IncorporateArgs) (rpc.None, error) {
			return rpc.None{}, d.Incorporate(ctx, a.ICO, a.Enable)
		}),
		MethodRemoveComponent.Handle(func(_ context.Context, id string) (rpc.None, error) {
			return rpc.None{}, d.RemoveComponent(id)
		}),
	)
}

// Control returns the object's control table.
func (d *DCDO) Control() rpc.Table { return d.control }

// VersionCodec carries a version as its segment list.
var VersionCodec = rpc.NewCodec(PutVersion, GetVersion)

// ApplyArgsCodec carries MethodApplyDescriptor's and mgr.author's arguments.
var ApplyArgsCodec = rpc.NewCodec(putApplyArgs, getApplyArgs)

// DescriptorCodec carries a configuration descriptor unframed.
var DescriptorCodec = rpc.Codec[*dfm.Descriptor]{Encode: (*dfm.Descriptor).Encode, Decode: dfm.DecodeDescriptor}

// PutVersion writes v as its segment list.
func PutVersion(e *wire.Encoder, v version.ID) { e.PutUintSlice(v.Encode()) }

// GetVersion reads a PutVersion version.
func GetVersion(d *wire.Decoder) (version.ID, error) {
	segs, err := d.UintSlice()
	if err != nil {
		return nil, err
	}
	return version.Decode(segs)
}

// PutEntryKey writes a DFM entry key.
func PutEntryKey(e *wire.Encoder, key dfm.EntryKey) {
	e.PutString(key.Function)
	e.PutString(key.Component)
}

// GetEntryKey reads a PutEntryKey key.
func GetEntryKey(d *wire.Decoder) (key dfm.EntryKey, err error) {
	if key.Function, err = d.String(); err != nil {
		return key, err
	}
	key.Component, err = d.String()
	return key, err
}

func putApplyArgs(e *wire.Encoder, a ApplyArgs) {
	e.PutBytes(a.Target.Encode())
	PutVersion(e, a.Version)
}

func getApplyArgs(d *wire.Decoder) (a ApplyArgs, err error) {
	desc, err := d.Bytes()
	if err != nil {
		return a, err
	}
	if a.Target, err = dfm.DecodeDescriptor(desc); err != nil {
		return a, err
	}
	a.Version, err = GetVersion(d)
	return a, err
}

// putPlanArgs writes the versions, the plan's three component lists and its
// retunes, then each arriving component's ref and entries (added, then
// replaced, in the lists' order), then the dependencies.
func putPlanArgs(e *wire.Encoder, a PlanArgs) {
	PutVersion(e, a.From)
	PutVersion(e, a.To)
	c := a.Change
	e.PutStringSlice(c.AddComponents)
	e.PutStringSlice(c.RemoveComponents)
	e.PutStringSlice(c.ReplaceComponents)
	dfm.PutCounted(e, c.Retune, dfm.PutEntry)
	for _, ar := range c.Arriving {
		dfm.PutComponentRef(e, ar.Ref)
		dfm.PutCounted(e, ar.Entries, dfm.PutEntry)
	}
	dfm.PutCounted(e, c.Deps, dfm.PutDependency)
}

func getPlanArgs(d *wire.Decoder) (a PlanArgs, err error) {
	if a.From, err = GetVersion(d); err != nil {
		return a, err
	}
	if a.To, err = GetVersion(d); err != nil {
		return a, err
	}
	c := &dfm.Change{}
	for _, list := range []*[]string{&c.AddComponents, &c.RemoveComponents, &c.ReplaceComponents} {
		if *list, err = d.StringSlice(); err != nil {
			return a, err
		}
	}
	if c.Retune, err = dfm.GetCounted(d, dfm.GetEntry); err != nil {
		return a, err
	}
	for _, id := range slices.Concat(c.AddComponents, c.ReplaceComponents) {
		ar := dfm.Arrival{ID: id}
		if ar.Ref, err = dfm.GetComponentRef(d); err != nil {
			return a, err
		}
		if ar.Entries, err = dfm.GetCounted(d, dfm.GetEntry); err != nil {
			return a, err
		}
		for _, en := range ar.Entries {
			if en.Component != id {
				return a, fmt.Errorf("%w: arriving %q carries entry %s", dfm.ErrCorruptDescriptor, id, en.Key())
			}
		}
		c.Arriving = append(c.Arriving, ar)
	}
	if c.Deps, err = dfm.GetCounted(d, dfm.GetDependency); err != nil {
		return a, err
	}
	a.Change = c
	return a, nil
}

func putPlanResult(e *wire.Encoder, r PlanResult) {
	e.PutBool(r.Refused)
	if !r.Refused {
		putApplyReport(e, r.Report)
	}
}

func getPlanResult(d *wire.Decoder) (r PlanResult, err error) {
	if r.Refused, err = d.Bool(); err != nil || r.Refused {
		return r, err
	}
	r.Report, err = getApplyReport(d)
	return r, err
}

func putApplyReport(e *wire.Encoder, r ApplyReport) {
	e.PutUvarint(uint64(r.ComponentsAdded))
	e.PutUvarint(uint64(r.ComponentsRemoved))
	e.PutUvarint(uint64(r.ComponentsReplaced))
	e.PutUvarint(uint64(r.EntriesRetuned))
	e.PutVarint(r.BytesFetched)
}

func getApplyReport(d *wire.Decoder) (r ApplyReport, err error) {
	for _, field := range []*int{&r.ComponentsAdded, &r.ComponentsRemoved, &r.ComponentsReplaced, &r.EntriesRetuned} {
		v, err := d.Uvarint()
		if err != nil {
			return r, err
		}
		*field = int(v)
	}
	r.BytesFetched, err = d.Varint()
	return r, err
}

func putIncorporateArgs(e *wire.Encoder, a IncorporateArgs) {
	rpc.PutLOID(e, a.ICO)
	e.PutBool(a.Enable)
}

func getIncorporateArgs(d *wire.Decoder) (a IncorporateArgs, err error) {
	if a.ICO, err = rpc.GetLOID(d); err != nil {
		return a, err
	}
	a.Enable, err = d.Bool()
	return a, err
}
