package godcdo_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// The counts below carry the evolution-cost claim (EXPERIMENTS.md E5): an
// evolution's price follows the change because the DFM publishes one snapshot
// per reconfiguration and the journal fsyncs twice per single-instance pass.
// They are exact, so a regression to per-mutation publishing or per-record
// fsyncs fails tier-1 rather than waiting for a benchmark to notice.

func TestOnePublishPerReconfiguration(t *testing.T) {
	obj, base, next := evolvePair(t, "cnt", 100, 10)
	table := obj.DFM()
	publishes := func(what string, want uint64, fn func() error) {
		t.Helper()
		before := table.Publishes()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := table.Publishes() - before; got != want {
			t.Fatalf("%s published %d snapshots, want %d", what, got, want)
		}
	}
	ctx := context.Background()
	publishes("ApplyDescriptor forward", 1, func() error {
		_, err := obj.ApplyDescriptor(ctx, next, version.ID{1, 1})
		return err
	})
	publishes("ApplyDescriptor back", 1, func() error {
		_, err := obj.ApplyDescriptor(ctx, base, version.ID{1})
		return err
	})
	publishes("ApplyDescriptor to the configuration it already has", 0, func() error {
		_, err := obj.ApplyDescriptor(ctx, base, version.ID{1})
		return err
	})

	// A whole object built from nothing is one apply, hence one publish.
	fresh, _, _ := evolvePair(t, "cnt2", 100, 10)
	if got := fresh.DFM().Publishes(); got != 1 {
		t.Fatalf("building a 100-function object published %d snapshots, want 1", got)
	}

	key := dfm.EntryKey{Function: "cnt_f0_0", Component: "cnt_c0"}
	publishes("DisableFunction", 1, func() error { return obj.DisableFunction(key) })
	publishes("EnableFunction", 1, func() error { return obj.EnableFunction(key) })
	publishes("SetFunctionFlags", 1, func() error { return obj.SetFunctionFlags(key, false, false, false) })
	extra := dfm.EntryKey{Function: "cnt_f0_0", Component: "spare"}
	noop := func(registry.Caller, []byte) ([]byte, error) { return nil, nil }
	publishes("DFM.Add", 1, func() error {
		return table.Add(dfm.EntryDesc{Function: extra.Function, Component: extra.Component}, noop)
	})
	publishes("DFM.Remove", 1, func() error { return table.Remove(extra) })
	publishes("DFM.Add", 1, func() error {
		return table.Add(dfm.EntryDesc{Function: extra.Function, Component: extra.Component}, noop)
	})
	publishes("DFM.RemoveComponent", 1, func() error { return table.RemoveComponent(extra.Component) })
}

func TestOnePublishPerIncorporatedComponent(t *testing.T) {
	obj, _, next := evolvePair(t, "inc", 100, 10)
	id := "incx_c0"
	ref, ok := next.Components[id]
	if !ok {
		t.Fatalf("next version has no component %q", id)
	}
	before := obj.DFM().Publishes()
	if err := obj.Incorporate(context.Background(), ref.ICO, true); err != nil {
		t.Fatal(err)
	}
	if got := obj.DFM().Publishes() - before; got != 1 {
		t.Fatalf("incorporating a component published %d snapshots, want 1", got)
	}
}

func TestTwoSyncsPerSingleInstancePass(t *testing.T) {
	obj, base, next := evolvePair(t, "jc", 100, 10)
	mgr := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	store := mgr.Store()
	root, err := store.CreateRoot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(root); err != nil {
		t.Fatal(err)
	}
	child, err := store.Derive(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Configure(child, func(d *dfm.Descriptor) error { *d = *next.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := store.MarkInstantiable(child); err != nil {
		t.Fatal(err)
	}
	journal, err := manager.OpenJournal(filepath.Join(t.TempDir(), "evolve.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	mgr.SetJournal(journal)
	ctx := context.Background()
	if err := mgr.Adopt(ctx, manager.LocalInstance{Obj: obj}, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	for _, move := range []struct {
		name string
		run  func() error
	}{
		{"EvolveInstance", func() error { return mgr.EvolveInstance(ctx, obj.LOID(), child) }},
		{"RollbackInstance", func() error { return mgr.RollbackInstance(ctx, obj.LOID(), root) }},
	} {
		before, published := journal.Stats(), obj.DFM().Publishes()
		if err := move.run(); err != nil {
			t.Fatalf("%s: %v", move.name, err)
		}
		after := journal.Stats()
		if after.Records-before.Records != 4 || after.Syncs-before.Syncs != 2 {
			t.Fatalf("%s wrote %d records in %d syncs, want 4 in 2",
				move.name, after.Records-before.Records, after.Syncs-before.Syncs)
		}
		if got := obj.DFM().Publishes() - published; got != 1 {
			t.Fatalf("%s published %d snapshots, want 1", move.name, got)
		}
	}
}

// TestBenchmarkModuleBuilds compiles and vets benchmark/, a module of its own
// that `go test ./...` here never sees, so a change to a signature it uses
// (Journal.Append, dfm.Diff, core.New, manager.Instance, ...) fails tier-1.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	// -o discards the binary `go build` would otherwise leave in benchmark/.
	for _, args := range [][]string{{"build", "-o", os.DevNull, "./..."}, {"vet", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmark: go %v: %v\n%s", args, err, out)
		}
	}
}
