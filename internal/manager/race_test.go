package manager

import (
	"context"

	"errors"
	"sync"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/version"
)

// gateInstance is a minimal Instance whose Apply can be made to block,
// letting tests freeze an evolution at the point where the manager's lock
// is not held.
type gateInstance struct {
	loid    naming.LOID
	gate    chan struct{} // Apply waits for this to close when non-nil
	entered chan struct{} // closed when Apply is first entered, when non-nil

	once sync.Once
	mu   sync.Mutex
	ver  version.ID
}

func (g *gateInstance) LOID() naming.LOID { return g.loid }

func (g *gateInstance) Version(context.Context) (version.ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ver.Clone(), nil
}

func (g *gateInstance) Apply(_ context.Context, _ *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	if g.entered != nil {
		g.once.Do(func() { close(g.entered) })
	}
	if g.gate != nil {
		<-g.gate
	}
	g.mu.Lock()
	g.ver = v.Clone()
	g.mu.Unlock()
	return core.ApplyReport{}, nil
}

func (g *gateInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	return g.Apply(ctx, nil, a.To)
}

func (g *gateInstance) Interface(context.Context) ([]string, error) { return nil, nil }

// TestEvolveDropAdoptNoResurrection pins the evolve/drop race fix: an
// evolution in flight when its instance is dropped and the LOID re-adopted
// must not stamp the stale target version onto the new record.
func TestEvolveDropAdoptNoResurrection(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	loid := naming.LOID{Domain: 9, Class: 1, Instance: 1}

	old := &gateInstance{loid: loid, ver: v(1), gate: make(chan struct{}), entered: make(chan struct{})}
	if err := m.Adopt(context.Background(), old, registry.NativeImplType); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- m.EvolveInstance(context.Background(), loid, v(1, 1)) }()

	// Wait until the evolution is parked inside Apply (outside the lock).
	<-old.entered

	// Drop the instance mid-evolution and re-adopt the LOID at version 1.
	m.Drop(loid)
	fresh := &gateInstance{loid: loid, ver: v(1)}
	if err := m.Adopt(context.Background(), fresh, registry.NativeImplType); err != nil {
		t.Fatalf("re-adopt: %v", err)
	}

	close(old.gate) // let the stale evolution finish
	if err := <-done; err != nil {
		t.Fatalf("evolve: %v", err)
	}

	rec, err := m.RecordOf(loid)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if !rec.Version.Equal(v(1)) {
		t.Fatalf("stale evolution resurrected version %s onto re-adopted record, want %s", rec.Version, v(1))
	}
	actual, _ := fresh.Version(context.Background())
	if !rec.Version.Equal(actual) {
		t.Fatalf("record %s disagrees with instance %s", rec.Version, actual)
	}
}

// TestConcurrentEvolveDropAdopt hammers evolve/drop/adopt from several
// goroutines under -race, then checks the DCDO table agrees with the
// surviving instance.
func TestConcurrentEvolveDropAdopt(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiGeneral, evolution.Explicit)
	loid := naming.LOID{Domain: 9, Class: 1, Instance: 2}
	if err := m.Adopt(context.Background(), &gateInstance{loid: loid, ver: v(1)}, registry.NativeImplType); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	const iters = 200
	var wg sync.WaitGroup
	evolver := func(target version.ID) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// ErrUnknownInstance is expected while the dropper has the
			// LOID out of the table.
			if err := m.EvolveInstance(context.Background(), loid, target); err != nil && !errors.Is(err, ErrUnknownInstance) {
				t.Errorf("evolve to %s: %v", target, err)
				return
			}
		}
	}
	wg.Add(3)
	go evolver(v(1))
	go evolver(v(1, 1))
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Drop(loid)
			if err := m.Adopt(context.Background(), &gateInstance{loid: loid, ver: v(1)}, registry.NativeImplType); err != nil {
				t.Errorf("re-adopt: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	rec, err := m.RecordOf(loid)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	inst := m.instanceOf(loid)
	if inst == nil {
		t.Fatal("instance missing after stress")
	}
	actual, err := inst.Version(context.Background())
	if err != nil {
		t.Fatalf("version: %v", err)
	}
	if !rec.Version.Equal(actual) {
		t.Fatalf("table version %s disagrees with instance version %s", rec.Version, actual)
	}
}

// TestCreateInstanceConcurrentDuplicate pins the CreateInstance re-check: a
// LOID claimed while the descriptor was being applied outside the lock must
// yield ErrDuplicateInstance, not a silent overwrite.
func TestCreateInstanceConcurrentDuplicate(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	loid := naming.LOID{Domain: 9, Class: 1, Instance: 3}

	slow := &gateInstance{loid: loid, gate: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- m.CreateInstance(context.Background(), slow, v(1), registry.NativeImplType) }()

	// While the slow create is parked in Apply, another creator claims the
	// LOID.
	if err := m.Adopt(context.Background(), &gateInstance{loid: loid, ver: v(1)}, registry.NativeImplType); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	close(slow.gate)
	if err := <-done; !errors.Is(err, ErrDuplicateInstance) {
		t.Fatalf("slow create returned %v, want ErrDuplicateInstance", err)
	}
}
