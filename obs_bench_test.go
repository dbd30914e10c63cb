package godcdo_test

import (
	"testing"
)

// BenchmarkInvokeTracingOff measures the allocation cost of one in-process
// invoke through legion.Node with no observability installed.
// TestAllocBudgets holds allocs/op at the seed baseline: the obs layer must
// be zero-cost when disabled.
func BenchmarkInvokeTracingOff(b *testing.B) {
	call := inprocInvoke(b, "obsoff", nil, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeUnsampled measures the allocation cost of an invoke whose
// trace the head sampler drops: tracing is on, a flight recorder is armed,
// but the call is healthy and fast, so nothing is retained.
// TestAllocBudgets holds allocs/op near the tracing-off cost, because at a
// 1% sample rate this is 99% of all calls.
func BenchmarkInvokeUnsampled(b *testing.B) {
	o := unsampledObs()
	call := inprocInvoke(b, "obsuns", o, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := len(o.Tracer.Recent(0)); got != 0 {
		b.Fatalf("unsampled benchmark recorded %d spans", got)
	}
	if st := o.GetFlight().Stats(); st.Retained != 0 {
		b.Fatalf("unsampled benchmark retained %d traces", st.Retained)
	}
}
