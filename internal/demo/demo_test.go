package demo

import (
	"encoding/hex"
	"errors"
	"testing"

	"godcdo/internal/rpc"
)

// TestPriceBytes pins Price's payloads, captured from the hand-written
// encoders its declaration replaced: dcdo-ctl's --uint and nodes built
// before the declaration send and read the same uvarints.
func TestPriceBytes(t *testing.T) {
	for _, row := range []struct {
		name             string
		qty              uint64
		args, flat, disc string
	}{
		{"5 units", 5, "05", "f403", "f403"},
		{"20 units", 20, "14", "d00f", "c00c"},
	} {
		args := Price.Args.Encode(row.qty)
		if got := hex.EncodeToString(args); got != row.args {
			t.Errorf("%s: args = %s, want %s", row.name, got, row.args)
		}
		for _, impl := range []struct {
			discount uint64
			want     string
		}{{0, row.flat}, {20, row.disc}} {
			out, err := PriceFunc(100, impl.discount)(nil, args)
			if got := hex.EncodeToString(out); err != nil || got != impl.want {
				t.Errorf("%s at %d%% off = %s, %v; want %s", row.name, impl.discount, got, err, impl.want)
			}
		}
	}
}

// TestPriceRefusesMalformedArgs holds Price to its declaration: a payload
// that is not exactly one minimal uvarint — empty, oversized (a valid
// quantity with bytes after it) or non-minimal — is refused with
// ErrBadRequest, whichever revision serves it.
func TestPriceRefusesMalformedArgs(t *testing.T) {
	for _, args := range []string{"", "14ffff", "9400"} {
		raw, _ := hex.DecodeString(args)
		for _, discount := range []uint64{0, 20} {
			if out, err := PriceFunc(100, discount)(nil, raw); !errors.Is(err, rpc.ErrBadRequest) {
				t.Errorf("price %q at %d%% off = %x, %v; want ErrBadRequest", args, discount, out, err)
			}
		}
	}
}
