package simnet

import (
	"testing"
	"time"
)

func TestCenturionDownloadTimesMatchPaper(t *testing.T) {
	m := Centurion()
	// Paper: 550 KB implementation downloads in about 4 seconds.
	small := m.TransferTime(550 << 10)
	if small < 3*time.Second || small > 5*time.Second {
		t.Fatalf("550KB transfer = %v, want ≈4s", small)
	}
	// Paper: 5.1 MB implementation takes 15 to 25 seconds.
	large := m.TransferTime(5_347_738) // 5.1 MB
	if large < 15*time.Second || large > 25*time.Second {
		t.Fatalf("5.1MB transfer = %v, want within [15s,25s]", large)
	}
	// Shape: bigger transfers take longer.
	if large <= small {
		t.Fatalf("5.1MB (%v) not slower than 550KB (%v)", large, small)
	}
}

func TestCenturionCreationTimesMatchPaper(t *testing.T) {
	m := Centurion()
	mono := m.CreationTime(1, true)
	// Paper: monolithic creation with 500 functions ≈ 2.2 s.
	if mono < 1800*time.Millisecond || mono > 2600*time.Millisecond {
		t.Fatalf("monolithic creation = %v, want ≈2.2s", mono)
	}
	// Paper: 500 functions in 50 components ≈ 10 s.
	fifty := m.CreationTime(50, false)
	if fifty < 8*time.Second || fifty > 12*time.Second {
		t.Fatalf("50-component creation = %v, want ≈10s", fifty)
	}
	// Paper: "for more reasonably configured objects (fewer components),
	// results are comparable to the static executables".
	few := m.CreationTime(3, false)
	if few > 2*mono {
		t.Fatalf("3-component creation = %v, not comparable to monolithic %v", few, mono)
	}
	// Monotone in component count.
	prev := time.Duration(0)
	for _, c := range []int{1, 5, 10, 25, 50} {
		cur := m.CreationTime(c, false)
		if cur <= prev {
			t.Fatalf("creation time not monotone at %d components: %v <= %v", c, cur, prev)
		}
		prev = cur
	}
}

func TestCostModelEdgeCases(t *testing.T) {
	m := Centurion()
	if m.TransferTime(0) != 0 {
		t.Fatal("zero-byte transfer should cost zero")
	}
	if m.TransferTime(-5) != 0 {
		t.Fatal("negative transfer should cost zero")
	}
	if got := m.CreationTime(0, false); got != m.CreationTime(1, true) {
		t.Fatalf("zero components should fall back to monolithic cost, got %v", got)
	}
	var zero CostModel
	if zero.MessageTime(100) != 0 {
		t.Fatal("zero model message time should be zero")
	}
}

func TestRPCTimeComponents(t *testing.T) {
	m := Centurion()
	rpc := m.RPCTime(100, 100)
	if rpc < m.RTT {
		t.Fatalf("RPC time %v less than RTT %v", rpc, m.RTT)
	}
	// Payload size matters but only via serialization.
	bigger := m.RPCTime(1<<20, 100)
	if bigger <= rpc {
		t.Fatal("larger request should cost more")
	}
}
