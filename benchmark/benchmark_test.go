package main

import (
	"bytes"
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want)+1e-12 }

func TestHistQuantiles(t *testing.T) {
	var small hist
	for v := int64(0); v < 100; v++ {
		small.add(v)
	}
	if got := small.quantile(0.5); got < 49 || got > 51 {
		t.Errorf("median of 0..99 = %v, want 50±1 (values under %d are exact)", got, histSub)
	}
	var h hist
	for us := int64(1); us <= 1000; us++ {
		h.add(us * 1000)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got, want := h.quantile(q), q*1e6; !near(got, want, 0.01) {
			t.Errorf("quantile(%v) = %v ns, want %v within 1%%", q, got, want)
		}
	}
	var a, b hist
	a.add(10)
	b.add(1 << 20)
	a.merge(&b)
	if a.n != 2 || a.quantile(1) < 1<<20 {
		t.Errorf("merge lost samples: n=%d max=%v", a.n, a.quantile(1))
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty hist median = %v, want 0", got)
	}
	lo, width := histBounds(histBucket(1 << 50))
	if lo+width < 1<<40 {
		t.Errorf("overflow bucket tops out at %v", lo+width)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[uint64]float64{10: 0.5, 100: 0.9, 1000: 0.99, 1e6: 0.99, 500: 0.98} {
		if got := tailQuantile(n); !near(got, want, 1e-9) {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestBandIsMedianOfSegments(t *testing.T) {
	b := bandOf([]float64{5, 1, 4, 2, 3})
	if b.Median != 3 || !near(b.P10, 1.4, 1e-9) || !near(b.P90, 4.6, 1e-9) || b.N != 5 {
		t.Errorf("band of 1..5 = %+v, want median 3, p10 1.4, p90 4.6", b)
	}
	if even := bandOf([]float64{1, 2, 3, 10}); even.Median != 2.5 {
		t.Errorf("median of 1,2,3,10 = %v, want 2.5", even.Median)
	}
}

func TestNestSelfTimes(t *testing.T) {
	// One call whose server span has two overlapping children (30–50 and
	// 40–60), recorded the way the wrappers record: innermost first.
	spans := []span{
		{32, 38, 1, spanFuncBody},
		{30, 50, 1, spanObjectInvoke},
		{40, 60, 1, spanObjectInvoke},
		{20, 80, 1, spanServerHandle},
		{10, 90, 1, spanTransportCall},
		{0, 100, 1, spanOp},
	}
	st := nest(spans)
	calls := st.self[spanOp]
	want := map[spanKind][]float64{
		spanOp:            {20},
		spanTransportCall: {20},
		spanServerHandle:  {30},     // 60 long, children cover 30–60 once
		spanObjectInvoke:  {10, 14}, // the second child owns only 50–60
		spanFuncBody:      {6},
	}
	for kind, w := range want {
		got := append([]float64(nil), calls[kind]...)
		sort.Float64s(got)
		if len(got) != len(w) {
			t.Fatalf("kind %d: self times %v, want %v", kind, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("kind %d: self times %v, want %v", kind, got, w)
			}
		}
	}
	if st.selfTotal != 100 || st.rootTotal != 100 || st.residualPct() != 0 {
		t.Errorf("self times sum to %v against root %v (residual %v%%), want 100, 100, 0",
			st.selfTotal, st.rootTotal, st.residualPct())
	}

	// Identical intervals: the later record is the parent, so the child keeps
	// the time and the parent's self time is zero.
	same := nest([]span{{5, 9, 2, spanServerHandle}, {5, 9, 2, spanTransportCall}, {0, 10, 2, spanOp}})
	if got := same.self[spanOp][spanTransportCall]; len(got) != 1 || got[0] != 0 {
		t.Errorf("parent of an identical interval has self %v, want [0]", got)
	}
	if got := same.self[spanOp][spanServerHandle]; len(got) != 1 || got[0] != 4 {
		t.Errorf("child of an identical interval has self %v, want [4]", got)
	}

	// Spans whose root was never recorded, or that poke out of it, are the
	// ledger's residual rather than silently dropped.
	lost := nest([]span{{0, 10, 3, spanOp}, {5, 15, 3, spanTransportCall}, {1, 2, 4, spanServerHandle}})
	if lost.stray != 11 || lost.residualPct() != 110 {
		t.Errorf("stray = %v, residual = %v%%, want 11 and 110", lost.stray, lost.residualPct())
	}

	// An evolve's spans stay out of the call ledger.
	ev := nest([]span{{2, 8, 5, spanObjectInvoke}, {0, 10, 5, spanEvolve}})
	if len(ev.self[spanOp][spanObjectInvoke]) != 0 || len(ev.duration[spanEvolve][spanObjectInvoke]) != 1 {
		t.Errorf("evolve spans filed under the wrong root: %+v", ev.duration)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	m := mix{
		objects:    populationObjects,
		classes:    []fnClass{{[]string{"a", "b", "c"}, 0.7}, {[]string{"d"}, 0.3}},
		sizes:      []sizeShare{{64, 0.8}, {1 << 10, 0.2}},
		writeShare: 0.2,
	}
	draw := func(seed int64, caller int) []byte {
		g := newGenerator(m, seed, caller)
		var buf bytes.Buffer
		for i := 0; i < 5000; i++ {
			op := g.next()
			buf.WriteByte(byte(op.object))
			buf.WriteString(op.fn)
			if op.write {
				buf.WriteByte(1)
			}
			buf.Write(op.payload[opIDBytes:])
		}
		return buf.Bytes()
	}
	if !bytes.Equal(draw(7, 0), draw(7, 0)) {
		t.Error("the same seed and caller drew different inputs")
	}
	if bytes.Equal(draw(7, 0), draw(8, 0)) {
		t.Error("seeds 7 and 8 drew the same inputs")
	}
	if bytes.Equal(draw(7, 0), draw(7, 1)) {
		t.Error("callers 0 and 1 of one seed drew the same inputs")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	flat := func(v float64) band { return band{Median: v, P10: v * 0.99, P90: v * 1.01} }
	wide := func(v float64) band { return band{Median: v, P10: v * 0.7, P90: v * 1.3} }
	cases := []struct {
		d    metricDef
		a, b band
		want verdict
	}{
		{lat, flat(100), flat(105), within},
		{lat, flat(100), flat(120), worse},
		{lat, flat(100), flat(80), better},
		{lat, wide(100), wide(120), unresolved},
		{thr, flat(1000), flat(800), worse},
		{thr, flat(1000), flat(1300), better},
		{metricDef{Name: "allocs_per_op", Better: lower, Bound: 0.05}, flat(1.3), flat(1.5), within}, // under the 0.25 floor
		{metricDef{Name: "allocs_per_op", Better: lower, Bound: 0.05}, flat(13), flat(14), worse},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestDeclaredNamesAreEmitted runs every workload for a fraction of a second,
// untraced and traced, and holds the names it emits to exactly the sets
// BENCHMARK.json declares to the driver.
func TestDeclaredNamesAreEmitted(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	sameDefs := func(kind string, declared, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the program emits %d", len(declared), kind, len(emitted))
		}
		for i := range declared {
			if declared[i] != emitted[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, declared[i], emitted[i])
			}
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEndMetrics)
	sameDefs("per_layer", spec.PerLayer, perLayerMetrics)

	for i, w := range spec.Workloads {
		def := &workloads[i]
		if w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, def.name)
		}
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			cfg := &config{
				seed: 11, seconds: 0.2, segments: 2, warm: 40 * time.Millisecond,
				setups: 1, journalDir: t.TempDir(), replayScale: 0.002,
			}
			res, err := runUntraced(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.EndToEnd) != len(endToEndMetrics) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(res.EndToEnd), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				if b, ok := res.EndToEnd[d.Name]; !ok || b.Median <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive measurement", d.Name, b)
				}
			}
			res, err = runTraced(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
			}
			if len(res.PerLayer) != len(perLayerMetrics) {
				t.Errorf("traced run emitted %d metrics, want %d", len(res.PerLayer), len(perLayerMetrics))
			}
			for _, d := range perLayerMetrics {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if r := res.PerLayer["bench.ledger_residual_pct"]; r > 1 {
				t.Errorf("ledger residual %v%%, want ≤ 1", r)
			}
			if res.PerLayer["bench.samples"] == 0 {
				t.Error("traced run recorded no operation")
			}
		})
	}
}
