package main

import (
	"encoding/hex"
	"testing"
)

// TestPriceBytes pins price's payloads, captured from the hand-written
// encoders the declaration replaced.
func TestPriceBytes(t *testing.T) {
	for _, row := range []struct {
		qty              uint64
		args, flat, disc string
	}{{5, "05", "f403", "f403"}, {20, "14", "d00f", "c00c"}} {
		args := price.Args.Encode(row.qty)
		if got := hex.EncodeToString(args); got != row.args {
			t.Errorf("%d units: args = %s, want %s", row.qty, got, row.args)
		}
		v1, err1 := priceV1(nil, args)
		if got := hex.EncodeToString(v1); err1 != nil || got != row.flat {
			t.Errorf("%d units at v1 = %s, %v; want %s", row.qty, got, err1, row.flat)
		}
		v2, err2 := priceV2(nil, args)
		if got := hex.EncodeToString(v2); err2 != nil || got != row.disc {
			t.Errorf("%d units at v2 = %s, %v; want %s", row.qty, got, err2, row.disc)
		}
	}
}
