package main

import (
	"encoding/hex"
	"testing"

	"godcdo/dcdo"
	"godcdo/internal/objstate"
)

// caller runs compare for sort's intra-object calls.
type caller struct{ compare dcdo.Func }

func (c caller) CallInternal(_ string, args []byte) ([]byte, error) { return c.compare(c, args) }
func (caller) State() *objstate.State                               { return nil }

// TestSortBytes pins sort's and compare's payloads, captured from the
// hand-written encoders the declarations replaced.
func TestSortBytes(t *testing.T) {
	for _, row := range []struct {
		name string
		got  []byte
		want string
	}{
		{"sort args", sortFn.Args.Encode([]int64{5, 1, 4, 2, 3}), "050a02080406"},
		{"sort result", sortFn.Result.Encode([]int64{1, 2, 3, 4, 5}), "05020406080a"},
		{"compare args", cmpFn.Args.Encode(pair{5, 1}), "0a02"},
		{"compare result", cmpFn.Result.Encode(-1), "01"},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
	}
	args, _ := hex.DecodeString("0a02")
	for desc, want := range map[bool]string{false: "02", true: "01"} {
		out, err := compareImpl(desc)(nil, args)
		if got := hex.EncodeToString(out); err != nil || got != want {
			t.Errorf("compare(5, 1) descending=%v = %s, %v; want %s", desc, got, err, want)
		}
	}
	in, _ := hex.DecodeString("050a02080406")
	out, err := sortImpl(caller{compareImpl(false)}, in)
	if got := hex.EncodeToString(out); err != nil || got != "05020406080a" {
		t.Errorf("sort = %s, %v; want 05020406080a", got, err)
	}
}
