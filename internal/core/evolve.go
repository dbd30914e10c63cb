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

// invokeControl dispatches "dcdo."-prefixed methods, the remotely callable
// configuration and status interface. ctx bounds the long-running operations
// (applyDescriptor, incorporate); status queries answer regardless.
func (d *DCDO) invokeControl(ctx context.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case MethodInterface:
		e := wire.NewEncoder(64)
		e.PutStringSlice(d.Interface())
		return e.Bytes(), nil

	case MethodVersion:
		e := wire.NewEncoder(16)
		e.PutUintSlice(d.Version().Encode())
		return e.Bytes(), nil

	case MethodSnapshot:
		return d.Snapshot().Encode(), nil

	case MethodApplyDescriptor:
		dec := wire.NewDecoder(args)
		descBytes, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: descriptor: %v", rpc.ErrBadRequest, err)
		}
		target, err := dfm.DecodeDescriptor(descBytes)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", rpc.ErrBadRequest, err)
		}
		segs, err := dec.UintSlice()
		if err != nil {
			return nil, fmt.Errorf("%w: version: %v", rpc.ErrBadRequest, err)
		}
		ver, err := version.Decode(segs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", rpc.ErrBadRequest, err)
		}
		report, err := d.ApplyDescriptor(ctx, target, ver)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(32)
		e.PutUvarint(uint64(report.ComponentsAdded))
		e.PutUvarint(uint64(report.ComponentsRemoved))
		e.PutUvarint(uint64(report.ComponentsReplaced))
		e.PutUvarint(uint64(report.EntriesRetuned))
		e.PutVarint(report.BytesFetched)
		return e.Bytes(), nil

	case MethodEnable, MethodDisable:
		dec := wire.NewDecoder(args)
		fn, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: function: %v", rpc.ErrBadRequest, err)
		}
		comp, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: component: %v", rpc.ErrBadRequest, err)
		}
		key := dfm.EntryKey{Function: fn, Component: comp}
		if method == MethodEnable {
			return nil, d.EnableFunction(key)
		}
		return nil, d.DisableFunction(key)

	case MethodIncorporate:
		dec := wire.NewDecoder(args)
		loidStr, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: ico: %v", rpc.ErrBadRequest, err)
		}
		ico, err := naming.ParseLOID(loidStr)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", rpc.ErrBadRequest, err)
		}
		enable, err := dec.Bool()
		if err != nil {
			return nil, fmt.Errorf("%w: enable flag: %v", rpc.ErrBadRequest, err)
		}
		return nil, d.Incorporate(ctx, ico, enable)

	case MethodRemoveComponent:
		dec := wire.NewDecoder(args)
		id, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: component id: %v", rpc.ErrBadRequest, err)
		}
		return nil, d.RemoveComponent(id)

	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

// DecodeApplyReport parses the payload returned by MethodApplyDescriptor.
func DecodeApplyReport(buf []byte) (ApplyReport, error) {
	dec := wire.NewDecoder(buf)
	var r ApplyReport
	vals := make([]uint64, 4)
	for i := range vals {
		v, err := dec.Uvarint()
		if err != nil {
			return r, fmt.Errorf("core: corrupt apply report: %w", err)
		}
		vals[i] = v
	}
	bytesFetched, err := dec.Varint()
	if err != nil {
		return r, fmt.Errorf("core: corrupt apply report: %w", err)
	}
	r.ComponentsAdded = int(vals[0])
	r.ComponentsRemoved = int(vals[1])
	r.ComponentsReplaced = int(vals[2])
	r.EntriesRetuned = int(vals[3])
	r.BytesFetched = bytesFetched
	return r, nil
}

// EncodeApplyArgs builds the argument payload for MethodApplyDescriptor.
func EncodeApplyArgs(target *dfm.Descriptor, ver version.ID) []byte {
	e := wire.NewEncoder(256)
	e.PutBytes(target.Encode())
	e.PutUintSlice(ver.Encode())
	return e.Bytes()
}

// EncodeEntryKeyArgs builds the argument payload for MethodEnable/Disable.
func EncodeEntryKeyArgs(key dfm.EntryKey) []byte {
	e := wire.NewEncoder(32)
	e.PutString(key.Function)
	e.PutString(key.Component)
	return e.Bytes()
}

// EncodeIncorporateArgs builds the argument payload for MethodIncorporate.
func EncodeIncorporateArgs(ico naming.LOID, enable bool) []byte {
	e := wire.NewEncoder(32)
	e.PutString(ico.String())
	e.PutBool(enable)
	return e.Bytes()
}

// EncodeRemoveComponentArgs builds the argument payload for
// MethodRemoveComponent.
func EncodeRemoveComponentArgs(id string) []byte {
	e := wire.NewEncoder(16)
	e.PutString(id)
	return e.Bytes()
}
