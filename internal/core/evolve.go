package core

import (
	"context"
	"fmt"

	"godcdo/internal/dfm"
	"godcdo/internal/naming"
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

// ApplyDescriptor evolves the object to match target, stamping it with
// newVersion. The target descriptor must already be validated (managers
// only hand out instantiable versions), so constraint checks are bypassed
// here; thread-activity policies still apply to component removal.
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
	d.evolveMu.Lock()
	defer d.evolveMu.Unlock()

	var report ApplyReport
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("apply: %w", err)
	}
	current := d.snapshotOf(d.table.EntriesUnordered()) // Diff does not read the order
	plan := dfm.Diff(current, target)

	// byComp groups desc's entries for the named components only, so its cost
	// is one pass over the entries however many components move.
	byComp := func(desc *dfm.Descriptor, ids []string) map[string][]dfm.EntryDesc {
		m := make(map[string][]dfm.EntryDesc, len(ids))
		for _, id := range ids {
			m[id] = nil
		}
		for _, e := range desc.Entries {
			if _, wanted := m[e.Component]; wanted {
				m[e.Component] = append(m[e.Component], e)
			}
		}
		return m
	}
	remove := append(append([]string{}, plan.RemoveComponents...), plan.ReplaceComponents...)
	departing := byComp(current, remove)
	for _, id := range remove {
		active := func() (n int64) {
			for _, e := range departing[id] {
				n += d.table.ActiveThreads(e.Key())
			}
			return n
		}
		if err := d.waitComponentIdle(id, active); err != nil {
			return report, fmt.Errorf("apply: %w", err)
		}
	}
	add := append(append([]string{}, plan.AddComponents...), plan.ReplaceComponents...)
	arriving := byComp(target, add)
	arrivals := make([]*arrival, len(add))
	for i, id := range add {
		ref, ok := target.Components[id]
		if !ok {
			return report, fmt.Errorf("apply: target missing component ref %q", id)
		}
		comp, err := d.cfg.Fetcher.Fetch(ctx, ref.ICO)
		if err != nil {
			return report, fmt.Errorf("apply: fetch %q: %w", id, err)
		}
		report.BytesFetched += int64(len(comp.Code))
		if arrivals[i], err = d.prepareArrival(comp, ref.ICO); err != nil {
			return report, fmt.Errorf("apply: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("apply: %w", err)
	}

	staged := 0 // arrivals incorporated, for the events emitted afterwards
	d.mu.Lock()
	err := d.table.Update(func(tx *dfm.Tx) error {
		// Phase 1: retune entries being disabled, releasing function names
		// that later phases re-bind to other implementations.
		for _, e := range plan.Retune {
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
		for _, id := range remove {
			for _, e := range departing[id] {
				if err := tx.Disable(e.Key(), true); err != nil {
					return fmt.Errorf("apply: disable %s: %w", e.Key(), err)
				}
				if err := tx.Remove(e.Key()); err != nil {
					return fmt.Errorf("apply: remove %q: %w", id, err)
				}
			}
			delete(d.components, id)
		}

		// Phase 3: incorporate arriving and replaced components, entries
		// initially disabled so cross-component swaps never double-enable,
		// then stamp the target's flags on them.
		for i, id := range add {
			if err := d.stageArrival(tx, arrivals[i], false); err != nil {
				return fmt.Errorf("apply: %w", err)
			}
			staged++
			for _, te := range arriving[id] {
				if err := tx.SetFlags(te.Key(), te.Exported, te.Mandatory, te.Permanent); err != nil {
					return fmt.Errorf("apply: flag %s: %w", te.Key(), err)
				}
			}
		}

		// Phase 4: enable everything the target enables — retunes and new
		// entries alike.
		for _, e := range plan.Retune {
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
		for _, id := range add {
			for _, te := range arriving[id] {
				if !te.Enabled {
					continue
				}
				if err := tx.Enable(te.Key()); err != nil {
					return fmt.Errorf("apply: enable %s: %w", te.Key(), err)
				}
			}
		}
		tx.SetDeps(plan.Deps)
		d.ver = newVersion.Clone()
		return nil
	})
	d.mu.Unlock()
	for _, a := range arrivals[:staged] {
		d.emitIncorporated(a)
	}
	if err != nil {
		return report, err
	}
	report.ComponentsAdded = len(plan.AddComponents)
	report.ComponentsReplaced = len(plan.ReplaceComponents)
	report.ComponentsRemoved = len(plan.RemoveComponents)
	d.emit(EventEvolved, "", "", newVersion, fmt.Sprintf(
		"+%d components, -%d, ~%d replaced, %d entries retuned, %d bytes fetched",
		report.ComponentsAdded, report.ComponentsRemoved, report.ComponentsReplaced,
		report.EntriesRetuned, report.BytesFetched))
	return report, nil
}

// --- Remote control plane --------------------------------------------------

// ApplyArgs are MethodApplyDescriptor's arguments.
type ApplyArgs struct {
	Target  *dfm.Descriptor
	Version version.ID
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
		Args: rpc.NewCodec(putApplyArgs, getApplyArgs), Result: rpc.NewCodec(putApplyReport, getApplyReport)}
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
