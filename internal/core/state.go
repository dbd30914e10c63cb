package core

import (
	"context"
	"fmt"

	"godcdo/internal/dfm"
	"godcdo/internal/objstate"
	"godcdo/internal/wire"
)

// A DCDO carries persistent state alongside its replaceable implementation:
// dynamic functions read and write it through their Caller, and it survives
// evolution (the implementation changes underneath it) and migration (it is
// captured, moved, and restored while the implementation is *rebuilt* at
// the destination from the same version descriptor, using components that
// match the destination's implementation type — the heterogeneity story of
// §2.1).

// State implements registry.Caller: dynamic functions access the object's
// persistent state through it.
func (d *DCDO) State() *objstate.State { return d.state }

// CaptureState serialises everything needed to re-instantiate the object
// elsewhere: its version, its configuration descriptor, and its persistent
// state. Together with RestoreState this makes a DCDO a
// legion.StatefulObject, so the generic migration path applies to DCDOs.
func (d *DCDO) CaptureState() ([]byte, error) {
	snap := d.Snapshot()
	e := wire.NewEncoder(256)
	PutVersion(e, d.Version())
	e.PutBytes(snap.Encode())
	e.PutBytes(d.state.Encode())
	return e.Bytes(), nil
}

// RestoreState rebuilds a (typically fresh) DCDO from a capture: it applies
// the captured descriptor — fetching components through this object's own
// fetcher and binding implementations that match this object's host
// implementation type — and then reinstates the persistent state.
func (d *DCDO) RestoreState(buf []byte) error {
	dec := wire.NewDecoder(buf)
	ver, err := GetVersion(dec)
	if err != nil {
		return fmt.Errorf("core: restore: version: %w", err)
	}
	descBytes, err := dec.Bytes()
	if err != nil {
		return fmt.Errorf("core: restore: descriptor: %w", err)
	}
	desc, err := dfm.DecodeDescriptor(descBytes)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	stateBytes, err := dec.Bytes()
	if err != nil {
		return fmt.Errorf("core: restore: state: %w", err)
	}
	// Validate before touching anything: a capture that cannot be restored
	// must not leave the new descriptor over the old state.
	if _, err := objstate.Decode(stateBytes); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}

	// RestoreState implements the context-free legion.StatefulObject
	// contract; restoration runs to completion rather than inheriting any
	// caller deadline — a half-restored object is worse than a slow one. The
	// capture is the table as it stood, which a direct reconfiguration may
	// have taken away from ver's configuration: the object comes back
	// unstamped, so its next evolution ships the full descriptor.
	if _, err := d.apply(context.Background(), nil, ver, false, func() *dfm.Change { return d.changeTo(desc) }); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	// In place: State() hands the container out unlocked, to running
	// functions and to the replica wrapper, whose shipped generations must
	// stay comparable across the restore.
	if err := d.state.ReplaceFrom(stateBytes); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	return nil
}
