package dfm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/registry"
)

func TestDiffIdenticalIsEmpty(t *testing.T) {
	a := twoCompDescriptor()
	b := twoCompDescriptor()
	plan := Diff(a, b)
	if !plan.Empty() {
		t.Fatalf("plan = %+v, want empty", plan)
	}
	if plan.NeedsComponents() {
		t.Fatal("empty plan claims to need components")
	}
}

func TestDiffAddAndRemoveComponents(t *testing.T) {
	cur := twoCompDescriptor()
	tgt := twoCompDescriptor()
	// Target drops c2 and adds c3.
	delete(tgt.Components, "c2")
	tgt.Entries = tgt.Entries[:2]
	tgt.Components["c3"] = ComponentRef{ICO: naming.LOID{Instance: 3}, CodeRef: "c3:1", Impl: registry.NativeImplType, Revision: 1}
	tgt.Entries = append(tgt.Entries, EntryDesc{Function: "hash", Component: "c3", Exported: true, Enabled: true})

	plan := Diff(cur, tgt)
	if !reflect.DeepEqual(plan.AddComponents, []string{"c3"}) {
		t.Fatalf("AddComponents = %v", plan.AddComponents)
	}
	if !reflect.DeepEqual(plan.RemoveComponents, []string{"c2"}) {
		t.Fatalf("RemoveComponents = %v", plan.RemoveComponents)
	}
	if len(plan.ReplaceComponents) != 0 || len(plan.Retune) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if !plan.NeedsComponents() {
		t.Fatal("plan with additions should need components")
	}
}

func TestDiffRevisionChangeReplaces(t *testing.T) {
	cur := twoCompDescriptor()
	tgt := twoCompDescriptor()
	ref := tgt.Components["c2"]
	ref.Revision = 2
	ref.CodeRef = "c2:2"
	tgt.Components["c2"] = ref

	plan := Diff(cur, tgt)
	if !reflect.DeepEqual(plan.ReplaceComponents, []string{"c2"}) {
		t.Fatalf("ReplaceComponents = %v", plan.ReplaceComponents)
	}
	if !plan.NeedsComponents() {
		t.Fatal("replacement should need components")
	}
}

func TestDiffEntrySetChangeReplaces(t *testing.T) {
	cur := twoCompDescriptor()
	tgt := twoCompDescriptor()
	// Same revision but c2 now also implements "max": entry set changed.
	tgt.Entries = append(tgt.Entries, EntryDesc{Function: "max", Component: "c2"})

	plan := Diff(cur, tgt)
	if !reflect.DeepEqual(plan.ReplaceComponents, []string{"c2"}) {
		t.Fatalf("ReplaceComponents = %v", plan.ReplaceComponents)
	}
}

func TestDiffRetuneFlagsOnly(t *testing.T) {
	cur := twoCompDescriptor()
	tgt := twoCompDescriptor()
	// Swap compare's enabled implementation from c1 to c2: pure retune, no
	// component changes — the sub-half-second evolution case.
	tgt.Entries[1].Enabled = false
	tgt.Entries[2].Enabled = true

	plan := Diff(cur, tgt)
	if plan.NeedsComponents() || len(plan.RemoveComponents) != 0 {
		t.Fatalf("plan = %+v, want retune only", plan)
	}
	if len(plan.Retune) != 2 {
		t.Fatalf("Retune = %v, want 2 entries", plan.Retune)
	}
	// Retune is sorted by (function, component).
	if plan.Retune[0].Component != "c1" || plan.Retune[1].Component != "c2" {
		t.Fatalf("Retune order = %v", plan.Retune)
	}
	if plan.Retune[0].Enabled || !plan.Retune[1].Enabled {
		t.Fatalf("Retune states = %v", plan.Retune)
	}
}

func TestDiffCarriesTargetDeps(t *testing.T) {
	cur := twoCompDescriptor()
	tgt := twoCompDescriptor()
	tgt.Deps = []Dependency{{Kind: DepD, FromFunc: "sort", ToFunc: "compare"}}
	plan := Diff(cur, tgt)
	if !plan.Empty() {
		t.Fatalf("dep-only change should be empty plan, got %+v", plan)
	}
	if len(plan.Deps) != 1 || plan.Deps[0].Kind != DepD {
		t.Fatalf("Deps = %v", plan.Deps)
	}
	// Plan's dep slice is a copy.
	plan.Deps[0].FromFunc = "mutated"
	if tgt.Deps[0].FromFunc != "sort" {
		t.Fatal("plan aliases target deps")
	}
}

// randomConfig draws a descriptor over components c0..c2 and functions
// f0..f2: each component present or not, at revision 1 or 2, holding a
// random subset of the functions with random flags, at most one enabled
// implementation per function.
func randomConfig(rng *rand.Rand) *Descriptor {
	d := NewDescriptor()
	enabled := make(map[string]bool)
	for c := 0; c < 3; c++ {
		if rng.Intn(4) == 0 {
			continue
		}
		id := fmt.Sprintf("c%d", c)
		rev := uint64(1 + rng.Intn(2))
		d.Components[id] = ComponentRef{CodeRef: fmt.Sprintf("%s:%d", id, rev), Impl: registry.NativeImplType, Revision: rev}
		for f := 0; f < 3; f++ {
			if rng.Intn(3) == 0 {
				continue
			}
			fn := fmt.Sprintf("f%d", f)
			e := EntryDesc{Function: fn, Component: id, Exported: rng.Intn(2) == 0, Mandatory: rng.Intn(2) == 0}
			if !enabled[fn] && rng.Intn(2) == 0 {
				e.Enabled, enabled[fn] = true, true
			}
			d.Entries = append(d.Entries, e)
		}
	}
	return d
}

// TestNewChangeCarriesArrivals: NewChange's plan is Diff(current, target),
// and it carries every arriving component's ref and target entries.
func TestNewChangeCarriesArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		current, target := randomConfig(rng), randomConfig(rng)
		c := NewChange(current, target)
		if want := Diff(current, target); !reflect.DeepEqual(c.Plan, want) {
			t.Fatalf("pair %d: NewChange plans %+v, Diff %+v", i, c.Plan, want)
		}
		if len(c.Arriving) != len(c.AddComponents)+len(c.ReplaceComponents) {
			t.Fatalf("pair %d: %d arriving for %+v", i, len(c.Arriving), c.Plan)
		}
		for _, a := range c.Arriving {
			var entries []EntryDesc
			for _, e := range target.Entries {
				if e.Component == a.ID {
					entries = append(entries, e)
				}
			}
			if a.Ref != target.Components[a.ID] || !slices.Equal(a.Entries, entries) {
				t.Fatalf("pair %d: arrival %+v, want ref %+v and entries %+v", i, a, target.Components[a.ID], entries)
			}
		}
	}
}
