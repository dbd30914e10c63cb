package dfm

import (
	"errors"
	"sync"
	"testing"
)

// TestUpdatePublishesOnce: a transaction of many mutations is invisible to
// callers until Update returns, and then costs exactly one publish.
func TestUpdatePublishesOnce(t *testing.T) {
	d := buildDFM(t)
	before := d.Publishes()
	err := d.Update(func(tx *Tx) error {
		if err := tx.Disable(key("compare", "c1"), true); err != nil {
			return err
		}
		// Mid-transaction the published table is still the old one: compare
		// resolves to c1's implementation although it is staged disabled.
		impl, err := d.Peek("compare")
		if err != nil {
			t.Errorf("compare unresolvable mid-transaction: %v", err)
		} else if out, _ := impl(nil, nil); string(out) != "asc" {
			t.Errorf("mid-transaction compare = %q, want the old implementation", out)
		}
		if _, ok := tx.EnabledImpl("compare"); ok {
			t.Error("transaction does not see its own staged disable")
		}
		if err := tx.Enable(key("compare", "c2")); err != nil {
			return err
		}
		if c, ok := tx.EnabledImpl("compare"); !ok || c != "c2" {
			t.Errorf("EnabledImpl = %q, %v, want c2", c, ok)
		}
		return tx.Add(EntryDesc{Function: "hash", Component: "c2", Enabled: true}, constFunc("h"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Publishes() - before; got != 1 {
		t.Fatalf("transaction published %d snapshots, want 1", got)
	}
	impl, err := d.Peek("compare")
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := impl(nil, nil); string(out) != "desc" {
		t.Fatalf("compare = %q after the swap, want c2's implementation", out)
	}
	if _, err := d.Peek("hash"); err != nil {
		t.Fatalf("hash: %v", err)
	}
}

// TestUpdateFailurePublishesWhatWasStaged: Update does not undo. The steps
// before the failing one are published, once; a transaction that fails before
// its first edit publishes nothing.
func TestUpdateFailurePublishesWhatWasStaged(t *testing.T) {
	d := buildDFM(t)
	before := d.Publishes()
	err := d.Update(func(tx *Tx) error {
		if err := tx.Disable(key("sort", "c1"), true); err != nil {
			return err
		}
		return tx.Enable(key("ghost", "c9"))
	})
	if !errors.Is(err, ErrUnknownEntry) {
		t.Fatalf("err = %v, want ErrUnknownEntry", err)
	}
	if got := d.Publishes() - before; got != 1 {
		t.Fatalf("failed transaction published %d snapshots, want 1", got)
	}
	if _, err := d.Peek("sort"); !errors.Is(err, ErrDisabledFunction) {
		t.Fatalf("sort after failed transaction: %v, want the staged disable published", err)
	}

	before = d.Publishes()
	if err := d.Enable(key("ghost", "c9")); !errors.Is(err, ErrUnknownEntry) {
		t.Fatalf("err = %v, want ErrUnknownEntry", err)
	}
	if err := d.Enable(key("compare", "c1")); err != nil { // already enabled: no edit
		t.Fatal(err)
	}
	d.SetDeps([]Dependency{{Kind: DepD, FromFunc: "sort", ToFunc: "compare"}}) // not in the snapshot
	if got := d.Publishes() - before; got != 0 {
		t.Fatalf("transactions that changed nothing published %d snapshots, want 0", got)
	}
}

// TestEnabledIndexFollowsEveryMutator: the enabled-implementation index the
// conflict checks read must agree with the table after every kind of edit.
func TestEnabledIndexFollowsEveryMutator(t *testing.T) {
	d := buildDFM(t)
	check := func(step string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		want := make(map[string]*liveEntry)
		for _, e := range d.entries {
			if e.desc.Enabled {
				want[e.desc.Function] = e
			}
		}
		if len(want) != len(d.enabled) {
			t.Fatalf("%s: index holds %d functions, table enables %d", step, len(d.enabled), len(want))
		}
		for f, e := range want {
			if d.enabled[f] != e {
				t.Fatalf("%s: index disagrees with the table for %q", step, f)
			}
		}
	}
	check("built")
	if err := d.Enable(key("compare", "c2")); !errors.Is(err, ErrAlreadyEnabled) {
		t.Fatalf("err = %v, want ErrAlreadyEnabled", err)
	}
	check("refused enable")
	if err := d.Disable(key("compare", "c1"), false); err != nil {
		t.Fatal(err)
	}
	check("disable")
	if err := d.Enable(key("compare", "c2")); err != nil {
		t.Fatal(err)
	}
	check("enable")
	if err := d.Remove(key("compare", "c1")); err != nil {
		t.Fatal(err)
	}
	check("remove")
	if err := d.Add(EntryDesc{Function: "compare", Component: "c3", Enabled: true}, constFunc("x")); !errors.Is(err, ErrAlreadyEnabled) {
		t.Fatalf("err = %v, want ErrAlreadyEnabled", err)
	}
	check("refused add")
	if err := d.Disable(key("compare", "c2"), true); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveComponent("c2"); err != nil {
		t.Fatal(err)
	}
	check("remove component")
}

// TestCallersNeverSeeInsideATransaction swaps compare between its two
// implementations inside one transaction per swap. Unlike the per-mutator
// swap of TestConcurrentCallsDuringReconfiguration, no caller may ever find
// the function disabled.
func TestCallersNeverSeeInsideATransaction(t *testing.T) {
	d := buildDFM(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, release, err := d.BeginCall("compare")
				if err != nil {
					t.Errorf("compare unresolvable during a transactional swap: %v", err)
					return
				}
				release()
			}
		}()
	}
	from, to := key("compare", "c1"), key("compare", "c2")
	for i := 0; i < 400; i++ {
		err := d.Update(func(tx *Tx) error {
			if err := tx.Disable(from, true); err != nil {
				return err
			}
			return tx.Enable(to)
		})
		if err != nil {
			t.Fatal(err)
		}
		from, to = to, from
	}
	close(stop)
	wg.Wait()
}
