package core

import (
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/version"
)

// EventKind classifies configuration events a DCDO emits.
type EventKind int

// Event kinds.
const (
	// EventIncorporated fires after a component is incorporated.
	EventIncorporated EventKind = iota + 1
	// EventComponentRemoved fires after a component is removed.
	EventComponentRemoved
	// EventEnabled fires after a function implementation is enabled.
	EventEnabled
	// EventDisabled fires after a function implementation is disabled.
	EventDisabled
	// EventEvolved fires after a whole-descriptor evolution completes.
	EventEvolved
	// EventDependencyAdded fires after a dependency is installed.
	EventDependencyAdded
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventIncorporated:
		return "incorporated"
	case EventComponentRemoved:
		return "component-removed"
	case EventEnabled:
		return "enabled"
	case EventDisabled:
		return "disabled"
	case EventEvolved:
		return "evolved"
	case EventDependencyAdded:
		return "dependency-added"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event records one configuration change on a DCDO. Events let operators
// audit evolution — which components arrived, which functions flipped, when
// versions changed — without scraping logs.
type Event struct {
	Kind      EventKind
	Object    naming.LOID
	Component string
	Function  string
	Version   version.ID
	Detail    string
	Time      time.Time
}

// String renders a log-friendly line.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s", e.Object, e.Kind)
	if e.Function != "" {
		s += " " + e.Function
	}
	if e.Component != "" {
		s += "@" + e.Component
	}
	if !e.Version.IsZero() {
		s += " version=" + e.Version.String()
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Observer receives configuration events. Observers run synchronously on
// the configuring goroutine and must return quickly; hand slow work to a
// channel or goroutine.
type Observer func(Event)

// listened reports whether an emitted event reaches an observer or event
// log; a caller checks it before formatting a detail nobody would read.
func (d *DCDO) listened() bool {
	st := d.obsState.Load()
	return d.cfg.Observer != nil || (st != nil && st.events != nil)
}

// emit delivers an event to the configured observer, if any, and mirrors it
// into the node's obs event log when SetObs wired one.
func (d *DCDO) emit(kind EventKind, component, function string, ver version.ID, detail string) {
	observer := d.cfg.Observer
	st := d.obsState.Load()
	if observer == nil && (st == nil || st.events == nil) {
		return
	}
	ev := Event{
		Kind:      kind,
		Object:    d.cfg.LOID,
		Component: component,
		Function:  function,
		Version:   ver,
		Detail:    detail,
		Time:      d.cfg.Clock.Now(),
	}
	if observer != nil {
		observer(ev)
	}
	if st != nil && st.events != nil {
		verStr := ""
		if !ver.IsZero() {
			verStr = ver.String()
		}
		st.events.Append(obs.Event{
			Time:      ev.Time,
			Kind:      kind.String(),
			Object:    d.cfg.LOID.String(),
			Component: component,
			Function:  function,
			Version:   verStr,
			Detail:    detail,
		})
	}
}
