package godcdo_test

import (
	"testing"
)

// BenchmarkInvokeDefaultPolicy measures the idempotent invoke path for a
// degree-1 object with an explicit default DistributionPolicy attached to
// its binding. The policy plane's cost on the common path must be one nil
// check plus one BackupReadsAllowed call — no allocation: TestAllocBudgets
// holds allocs/op at the unreplicated seed baseline.
func BenchmarkInvokeDefaultPolicy(b *testing.B) {
	call := inprocInvoke(b, "polbench", nil, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}
