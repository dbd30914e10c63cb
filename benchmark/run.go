package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // measured time of one run
	// segments cuts the measured time; every end-to-end metric is the median
	// of its per-segment values.
	segments   int
	warm       time.Duration
	setups     int // set-ups per run; setup_s is their median
	journalDir string
	// replayScale shrinks the per-layer replays' iteration counts (tests).
	replayScale float64
}

// segmentsFor cuts a run into two-second segments: ten for the 20 s the full
// method measures, never fewer than five.
func segmentsFor(seconds float64) int {
	if n := int(seconds / 2); n > 5 {
		return n
	}
	return 5
}

// A segStat is what one actor completed in one segment.
type segStat struct {
	ops, failed, attempted uint64
	lat                    hist
	aux                    *hist
}

// A snapshot is the process's cumulative cost at a segment boundary.
type snapshot struct {
	at         time.Time
	cpuUs      float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heapInuse  uint64
	goroutines int
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:         time.Now(),
		cpuUs:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		heapInuse:  ms.HeapInuse,
		goroutines: runtime.NumGoroutine(),
	}
}

// A window is one measured stretch of a workload: per-segment counts, costs
// and merged latency histograms.
type window struct {
	segs   []segStat  // merged over actors
	snaps  []snapshot // len(segs)+1 boundaries
	traced hist       // latencies of operations that recorded spans
	// before and after are the program's counters at the edges of a traced
	// window (untraced windows leave them zero).
	before, after counters
	attempted     uint64
	failed        uint64
}

func (w *window) segSeconds(i int) float64 {
	return w.snaps[i+1].at.Sub(w.snaps[i].at).Seconds()
}

// measure drives r's actors: warm-up (discarded), then segments × segLen
// measured. With a tracer the measured stretch is also the tracing window.
func measure(r *running, t *tracer, warm time.Duration, segments int, segLen time.Duration) *window {
	const warming = -1
	var cur atomic.Int32
	cur.Store(warming)
	perActor := make([][]segStat, len(r.actors))
	tracedLat := make([]hist, len(r.actors))
	var wg sync.WaitGroup
	for i, a := range r.actors {
		perActor[i] = make([]segStat, segments)
		if r.auxMetric != "" {
			for s := range perActor[i] {
				perActor[i][s].aux = new(hist)
			}
		}
		wg.Add(1)
		go func(a actor, stats []segStat, traced *hist) {
			defer wg.Done()
			bg := context.Background()
			var seq uint64
			for int(cur.Load()) < segments {
				id, ctx := uint64(0), bg
				if t == nil {
					seq++
					id = seq
				} else if id = t.begin(); id != 0 {
					ctx = withOp(bg, id)
				}
				start := time.Now()
				ops, failed, aux := a.step(ctx, id)
				elapsed := time.Since(start)
				if t != nil && id != 0 {
					from := int64(start.Sub(t.base))
					t.record(a.root, id, from, from+int64(elapsed))
					traced.add(int64(elapsed))
				}
				if s := int(cur.Load()); s >= 0 && s < segments {
					st := &stats[s]
					st.ops += uint64(ops)
					st.failed += uint64(failed)
					if ops == 0 {
						st.attempted++
					} else {
						st.attempted += uint64(ops)
						st.lat.add(int64(elapsed))
					}
					if aux && st.aux != nil {
						st.aux.add(int64(elapsed))
					}
				}
				if a.pause > 0 {
					time.Sleep(a.pause)
				}
			}
		}(a, perActor[i], &tracedLat[i])
	}

	time.Sleep(warm)
	w := &window{segs: make([]segStat, segments), snaps: make([]snapshot, 0, segments+1)}
	w.snaps = append(w.snaps, takeSnapshot())
	start := w.snaps[0].at
	if t != nil {
		w.before = takeCounters(r)
		t.on.Store(true)
	}
	cur.Store(0)
	for s := 1; s <= segments; s++ {
		time.Sleep(time.Until(start.Add(time.Duration(s) * segLen)))
		w.snaps = append(w.snaps, takeSnapshot())
		if s == segments && t != nil {
			t.on.Store(false)
			w.after = takeCounters(r)
		}
		cur.Store(int32(s))
	}
	wg.Wait()

	for s := range w.segs {
		m := &w.segs[s]
		if r.auxMetric != "" {
			m.aux = new(hist)
		}
		for i := range perActor {
			st := &perActor[i][s]
			m.ops += st.ops
			m.failed += st.failed
			m.attempted += st.attempted
			m.lat.merge(&st.lat)
			if m.aux != nil {
				m.aux.merge(st.aux)
			}
		}
		w.attempted += m.attempted
		w.failed += m.failed
	}
	for i := range tracedLat {
		w.traced.merge(&tracedLat[i])
	}
	return w
}

// latencyDiv is how many operations one latency sample of r spans.
func (r *running) latencyDiv() float64 {
	if r.sampleOps > 0 {
		return float64(r.sampleOps)
	}
	return 1
}

// endToEnd derives the end-to-end metrics from an untraced window: each is
// computed per segment, then summarised as median with p10/p90.
func endToEnd(w *window, r *running) map[string]band {
	n := len(w.segs)
	per := map[string][]float64{}
	div := r.latencyDiv()
	for i := 0; i < n; i++ {
		s := &w.segs[i]
		if s.ops == 0 {
			continue
		}
		ops := float64(s.ops)
		p50us := s.lat.quantile(0.5) / div / 1e3
		per["ops_per_s"] = append(per["ops_per_s"], ops/w.segSeconds(i))
		per["op_p50_us"] = append(per["op_p50_us"], p50us)
		per["op_p99_us"] = append(per["op_p99_us"], s.lat.quantile(tailQuantile(s.lat.n))/div/1e3)
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], (w.snaps[i+1].cpuUs-w.snaps[i].cpuUs)/ops)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(w.snaps[i+1].mallocs-w.snaps[i].mallocs)/ops)
		writeUs, evolveMs := p50us, p50us/1e3
		if s.aux != nil && s.aux.n > 0 {
			switch r.auxMetric {
			case "write_p50_us":
				writeUs = s.aux.quantile(0.5) / 1e3
			case "evolve_p50_ms":
				evolveMs = s.aux.quantile(0.5) / 1e6
			}
		}
		per["write_p50_us"] = append(per["write_p50_us"], writeUs)
		per["evolve_p50_ms"] = append(per["evolve_p50_ms"], evolveMs)
	}
	out := make(map[string]band, len(per))
	for name, vals := range per {
		out[name] = bandOf(vals)
	}
	return out
}

// A result is one workload's outcome in one mode.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Samples   uint64             `json:"samples"`
	WallS     float64            `json:"wall_s"`
	EndToEnd  map[string]band    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// finish adds one window's counts to res and checks the state its load left
// behind.
func (res *result) finish(r *running, w *window) {
	res.Attempted += w.attempted
	res.Failed += w.failed
	for i := range w.segs {
		res.Samples += w.segs[i].lat.n
	}
	if r.verify != nil {
		if err := r.verify(); err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
	}
}

func (res *result) conclude(begin time.Time) {
	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed their output check", res.Failed, res.Attempted))
	}
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no operation was attempted")
	}
	res.Correct = len(res.Problems) == 0
	res.WallS = time.Since(begin).Seconds()
}

// runUntraced is the end-to-end run: set up cfg.setups times (setup_s is the
// median), keep the last set-up, warm up, measure. No wrapper is installed
// anywhere.
func runUntraced(def *workloadDef, cfg *config) (*result, error) {
	begin := time.Now()
	res := &result{Workload: def.name}
	var r *running
	setupS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = def.setup(cfg, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()
	runtime.GC() // drop the discarded set-ups before anything is timed
	segLen := time.Duration(cfg.seconds / float64(cfg.segments) * float64(time.Second))
	w := measure(r, nil, cfg.warm, cfg.segments, segLen)
	res.finish(r, w)
	res.EndToEnd = endToEnd(w, r)
	res.EndToEnd["setup_s"] = bandOf(setupS)
	for _, m := range endToEndMetrics {
		if b, ok := res.EndToEnd[m.Name]; !ok || b.Median <= 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s was not measured", m.Name))
		}
	}
	res.conclude(begin)
	return res, nil
}

// Traced runs split the measured time in two: an untraced reference stretch
// of the same cluster shape, then the traced stretch, each of tracedSegments.
// The reference gives trace overhead and the process-level costs a number to
// stand on inside the same process.
const tracedSegments = 3

// runTraced is the per-layer run.
func runTraced(def *workloadDef, cfg *config) (*result, error) {
	begin := time.Now()
	res := &result{Workload: def.name, Traced: true}
	segLen := time.Duration(cfg.seconds / (2 * tracedSegments) * float64(time.Second))

	ref, err := def.setup(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	runtime.GC()
	refWin := measure(ref, nil, cfg.warm/2, tracedSegments, segLen)
	res.finish(ref, refWin)
	ref.close()

	t := newTracer(spanCapacity)
	r, err := def.setup(cfg, t)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
	}
	defer r.close()
	runtime.GC()
	win := measure(r, t, cfg.warm/2, tracedSegments, segLen)
	res.finish(r, win)

	res.PerLayer, err = perLayer(cfg, r, t, refWin, win)
	if err != nil {
		return nil, fmt.Errorf("%s: per-layer: %w", def.name, err)
	}
	res.conclude(begin)
	return res, nil
}
