package dfm

import (
	"slices"
	"sort"
)

// Plan describes the operations needed to evolve a DCDO from one descriptor
// to another. Managers compute plans when driving evolution; the costs the
// paper reports for DCDO evolution (sub-second without new components,
// download-dominated otherwise) are determined by the plan's shape.
type Plan struct {
	// AddComponents are component IDs present only in the target; the DCDO
	// must fetch and incorporate them.
	AddComponents []string
	// RemoveComponents are component IDs present only in the current
	// descriptor; the DCDO removes them (after thread-activity checks).
	RemoveComponents []string
	// ReplaceComponents are component IDs present in both whose revision,
	// code reference, or entry set changed; the DCDO removes the old
	// incarnation and incorporates the new one.
	ReplaceComponents []string
	// Retune carries the target entry state (enabled/exported/mandatory/
	// permanent) for every entry of a kept component.
	Retune []EntryDesc
	// Deps is the target dependency set, applied wholesale.
	Deps []Dependency
}

// Empty reports whether the plan performs no component changes and no
// entry retuning (dependency replacement alone is considered empty).
func (p Plan) Empty() bool {
	return len(p.AddComponents) == 0 && len(p.RemoveComponents) == 0 &&
		len(p.ReplaceComponents) == 0 && len(p.Retune) == 0
}

// NeedsComponents reports whether the plan incorporates any component, the
// condition under which the paper's evolution cost jumps from sub-second to
// download-dominated.
func (p Plan) NeedsComponents() bool {
	return len(p.AddComponents) > 0 || len(p.ReplaceComponents) > 0
}

// Diff computes the plan that evolves current into target. Both descriptors
// are assumed individually valid.
func Diff(current, target *Descriptor) Plan {
	var plan Plan

	entriesByComp := func(d *Descriptor) map[string][]EntryDesc {
		m := make(map[string][]EntryDesc)
		for _, e := range d.Entries {
			m[e.Component] = append(m[e.Component], e)
		}
		return m
	}
	curEntries := entriesByComp(current)
	tgtEntries := entriesByComp(target)

	for id := range target.Components {
		if _, ok := current.Components[id]; !ok {
			plan.AddComponents = append(plan.AddComponents, id)
		}
	}
	for id := range current.Components {
		if _, ok := target.Components[id]; !ok {
			plan.RemoveComponents = append(plan.RemoveComponents, id)
		}
	}

	for id, curRef := range current.Components {
		tgtRef, ok := target.Components[id]
		if !ok {
			continue
		}
		// Kept component: same revision, code and entry keys. Retune every
		// entry whose state differs.
		cur, tgt := curEntries[id], tgtEntries[id]
		kept := curRef.Revision == tgtRef.Revision && curRef.CodeRef == tgtRef.CodeRef && len(cur) == len(tgt)
		mark := len(plan.Retune)
		if kept {
			curByKey := make(map[EntryKey]EntryDesc, len(cur))
			for _, e := range cur {
				curByKey[e.Key()] = e
			}
			for _, te := range tgt {
				ce, ok := curByKey[te.Key()]
				if !ok {
					kept = false
					break
				}
				if ce != te {
					plan.Retune = append(plan.Retune, te)
				}
			}
		}
		if !kept {
			plan.Retune = plan.Retune[:mark]
			plan.ReplaceComponents = append(plan.ReplaceComponents, id)
		}
	}

	sort.Strings(plan.AddComponents)
	sort.Strings(plan.RemoveComponents)
	sort.Strings(plan.ReplaceComponents)
	sort.Slice(plan.Retune, func(i, j int) bool {
		ki, kj := plan.Retune[i].Key(), plan.Retune[j].Key()
		if ki.Function != kj.Function {
			return ki.Function < kj.Function
		}
		return ki.Component < kj.Component
	})
	plan.Deps = make([]Dependency, len(target.Deps))
	copy(plan.Deps, target.Deps)
	return plan
}

// Change is a Plan made self-contained: it carries what applying the plan
// needs from the target — the ref and entry states of every arriving (added
// or replaced) component — so an object configured as the plan's source
// applies it without the target descriptor. Arriving lists the added
// components, then the replaced ones, each in the plan's order.
type Change struct {
	Plan
	Arriving []Arrival
}

// Arrival is one component a Change incorporates, with its target entries.
type Arrival struct {
	ID      string
	Ref     ComponentRef
	Entries []EntryDesc
}

// NewChange is Diff completed into a Change.
func NewChange(current, target *Descriptor) *Change {
	c := &Change{Plan: Diff(current, target)}
	at := make(map[string]int)
	for _, id := range slices.Concat(c.AddComponents, c.ReplaceComponents) {
		at[id] = len(c.Arriving)
		c.Arriving = append(c.Arriving, Arrival{ID: id, Ref: target.Components[id]})
	}
	for _, e := range target.Entries {
		if i, ok := at[e.Component]; ok {
			c.Arriving[i].Entries = append(c.Arriving[i].Entries, e)
		}
	}
	return c
}
