package manager

import (
	"context"
	"sync"
	"testing"
	"time"

	"godcdo/internal/evolution"
	"godcdo/internal/registry"
)

// TestProberRacesEvolvingFleet hammers a running Prober (Run/Stop plus
// manual Sweeps) while the fleet underneath it churns — instances created,
// dropped, and evolved concurrently. It asserts nothing beyond "no crash,
// no deadlock, prober state pruned to the survivors": the point is the
// -race run in CI.
func TestProberRacesEvolvingFleet(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	if err := m.SetCurrentVersion(context.Background(), v(1)); err != nil {
		t.Fatal(err)
	}

	// A stable core of instances that live for the whole test.
	for i := 0; i < 4; i++ {
		obj := f.newDCDO()
		if err := m.CreateInstance(context.Background(), LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
	}

	p := &Prober{Mgr: m, FailureThreshold: 2, BaseBackoff: time.Millisecond}
	p.Run(time.Millisecond)

	ctx := context.Background()
	var wg sync.WaitGroup

	// Churn: create short-lived instances and drop them again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			obj := f.newDCDO()
			if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
			m.Drop(obj.LOID())
		}
	}()

	// Fleet evolution passes racing the prober's sweeps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := m.EvolveFleet(ctx, v(1, 1), nil); err != nil {
				t.Errorf("evolve fleet: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Manual sweeps racing the Run loop's own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := p.Sweep(ctx); err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
			time.Sleep(150 * time.Microsecond)
		}
	}()

	wg.Wait()
	p.Stop()

	// After the churn settles, one final sweep prunes state down to the
	// survivors: no entries for dropped instances may linger.
	if _, err := p.Sweep(ctx); err != nil {
		t.Fatalf("final sweep: %v", err)
	}
	live := make(map[string]bool)
	for _, loid := range m.InstanceLOIDs() {
		live[loid.String()] = true
	}
	p.mu.Lock()
	for loid := range p.state {
		if !live[loid.String()] {
			t.Errorf("prober retains state for dropped instance %s", loid)
		}
	}
	p.mu.Unlock()
}
