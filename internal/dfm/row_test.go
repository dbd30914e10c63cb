package dfm

import (
	"errors"
	"sync"
	"testing"

	"godcdo/internal/metrics"
)

// row returns the fast-path row function's published snapshot holds.
func row(d *DFM, function string) *fastEntry { return d.lookup.Load().byFunc[function] }

// TestUntouchedEntryKeepsItsRow: a publish reuses the row of every enabled
// entry its transaction did not touch, so it allocates rows only for what
// changed. Callers resolve sort throughout, sharing the row with the
// publishes that swap compare.
func TestUntouchedEntryKeepsItsRow(t *testing.T) {
	d := buildDFM(t)
	sortRow := row(d, "sort")
	if sortRow == nil {
		t.Fatal("sort has no row")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, release, err := d.BeginExportedCall("sort")
				if err != nil {
					t.Errorf("sort: %v", err)
					return
				}
				release()
			}
		}()
	}
	from, to := key("compare", "c1"), key("compare", "c2")
	for i := 0; i < 200; i++ {
		before := d.Publishes()
		err := d.Update(func(tx *Tx) error {
			if err := tx.Disable(from, true); err != nil {
				return err
			}
			return tx.Enable(to)
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Publishes() != before+1 {
			t.Fatal("swap did not publish")
		}
		if got := row(d, "sort"); got != sortRow {
			t.Fatalf("swap %d replaced sort's row, which it did not touch", i)
		}
		from, to = to, from
	}
	close(stop)
	wg.Wait()
}

// TestExportedFlipPublishesWithTheTransaction: the exported flag is frozen in
// a row, so a flip replaces the row, and callers see the flip only once the
// transaction that made it publishes, in either direction.
func TestExportedFlipPublishesWithTheTransaction(t *testing.T) {
	d := buildDFM(t)
	sortKey := key("sort", "c1")
	flip := func(exported bool, before, after error) {
		t.Helper()
		err := d.Update(func(tx *Tx) error {
			if err := tx.SetFlags(sortKey, exported, false, false); err != nil {
				return err
			}
			if _, release, err := d.BeginExportedCall("sort"); !errors.Is(err, before) {
				t.Errorf("inside the flip to exported=%v: err = %v, want %v", exported, err, before)
			} else if err == nil {
				release()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, release, err := d.BeginExportedCall("sort"); !errors.Is(err, after) {
			t.Fatalf("after the flip to exported=%v: err = %v, want %v", exported, err, after)
		} else if err == nil {
			release()
		}
		// An internal call resolves either way.
		if _, release, err := d.BeginCall("sort"); err != nil {
			t.Fatalf("internal call after the flip to exported=%v: %v", exported, err)
		} else {
			release()
		}
	}
	flip(false, nil, ErrNotExported)
	flip(true, ErrNotExported, nil)
}

// TestEnableLatencyRebuildsRows: the histogram is frozen in a row, so
// EnableLatency rebuilds every row. Calls through rows that later publishes
// reuse stay metered, EnableLatency(nil) stops metering, and neither call
// counts as a publish.
func TestEnableLatencyRebuildsRows(t *testing.T) {
	d := buildDFM(t)
	h := metrics.NewHistogram("dfm.sort")
	call := func() {
		t.Helper()
		_, release, err := d.BeginCall("sort")
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	publishes := d.Publishes()
	d.EnableLatency(func(fn string) *metrics.Histogram {
		if fn == "sort" {
			return h
		}
		return nil
	})
	metered := row(d, "sort")
	// A publish that touches only compare reuses sort's metered row.
	if err := d.Disable(key("compare", "c1"), true); err != nil {
		t.Fatal(err)
	}
	if row(d, "sort") != metered {
		t.Fatal("a publish that did not touch sort replaced its row")
	}
	call()
	call()
	if got := h.Count(); got != 2 {
		t.Fatalf("metered calls through a reused row observed %d samples, want 2", got)
	}
	d.EnableLatency(nil)
	if err := d.Enable(key("compare", "c2")); err != nil {
		t.Fatal(err)
	}
	call()
	if got := h.Count(); got != 2 {
		t.Fatalf("a call after EnableLatency(nil) was metered: %d samples, want 2", got)
	}
	if got := d.Publishes() - publishes; got != 2 {
		t.Fatalf("Publishes advanced by %d over two transactions and two EnableLatency calls, want 2", got)
	}
}
