package harness

import (
	"encoding/hex"
	"testing"

	"godcdo/internal/rpc"
)

// TestDrillFunctionBytes pins the payloads of E7's and E15's declared
// functions, captured from the hand-written calls they replaced: no
// arguments, E7's object answering the method name and E15's the counter as
// decimal text.
func TestDrillFunctionBytes(t *testing.T) {
	none := rpc.None{}
	for _, row := range []struct {
		name string
		got  []byte
		want string
	}{
		{"e7 get args", e7Get.Args.Encode(none), ""},
		{"e7 get result", e7Get.Result.Encode([]byte("get")), "676574"},
		{"e7 inc args", e7Inc.Args.Encode(none), ""},
		{"e7 inc result", e7Inc.Result.Encode([]byte("inc")), "696e63"},
		{"e15 add args", e15Add.Args.Encode(none), ""},
		{"e15 add result", e15Add.Result.Encode(132), "313332"},
		{"e15 get args", e15Get.Args.Encode(none), ""},
		{"e15 get result", e15Get.Result.Encode(132), "313332"},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
	}
	if n, err := e15Get.Result.Decode([]byte("132")); err != nil || n != 132 {
		t.Errorf("e15 get decodes 132 as %d, %v", n, err)
	}
}
