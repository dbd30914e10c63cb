package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"godcdo/internal/dfm"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// counters are the program's own public counters, read before and after the
// traced window so every count in the ledger is a delta over that window.
type counters struct {
	client   rpc.ClientStats
	dialer   transport.DialerStats
	dispatch rpc.DispatchStats
	cache    naming.CacheStats
	pool     wire.PoolStats
	journal  int64 // bytes on disk
	refusals uint64
}

func takeCounters(r *running) counters {
	c := counters{
		client: r.c.client.Stats(),
		dialer: r.c.dialer.Stats(),
		cache:  r.c.cache.Stats(),
		pool:   wire.FramePoolStats(),

		refusals: r.refusals.Load(),
	}
	for _, n := range r.c.nodes {
		st := n.disp.Stats()
		c.dispatch.Admitted += st.Admitted
		c.dispatch.Shed += st.Shed
		c.dispatch.ExpiredOnArrival += st.ExpiredOnArrival
	}
	if r.journalPath != "" {
		if fi, err := os.Stat(r.journalPath); err == nil {
			c.journal = fi.Size()
		}
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }

// timeLoop runs f n times and returns the mean nanoseconds per call and the
// mean heap allocations per call (whole process, so run it with the load
// stopped).
func timeLoop(n int, f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

func scaled(cfg *config, n int) int {
	if n = int(float64(n) * cfg.replayScale); n < 8 {
		return 8
	}
	return n
}

// perLayer assembles the ledger of one traced run: self times from the nested
// spans, counts from the seams and the program's own counters, and — for what
// the seams cannot split — replays of a layer's public functions on the
// inputs this run recorded. The load has stopped when it runs.
func perLayer(cfg *config, r *running, t *tracer, ref, win *window) (map[string]float64, error) {
	before, after := win.before, win.after
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.Name] = 0 // a layer off this workload's path reads 0
	}
	// ops is every operation the window completed; aux counts its auxiliary
	// class (writes on repl_mixed, evolves on evolve_under_load).
	var ops, aux float64
	for i := range win.segs {
		ops += float64(win.segs[i].ops)
		if win.segs[i].aux != nil {
			aux += float64(win.segs[i].aux.n)
		}
	}

	// Self times. Each is the median over the spans of one kind.
	st := nest(t.recorded())
	calls := &st.self[spanOp]
	us := func(k spanKind) float64 { return median(calls[k]) / 1e3 }
	m["rpc.client.self_us_p50"] = us(spanOp)
	m["transport.self_us_p50"] = us(spanTransportCall)
	m["rpc.server.self_us_p50"] = us(spanServerHandle)
	m["core.self_ns_p50"] = median(calls[spanObjectInvoke])
	m["registry.func_ns_p50"] = median(calls[spanFuncBody])
	m["replica.self_us_p50"] = us(spanReplicaInvoke)
	m["replica.ship_us_p50"] = median(st.duration[spanOp][spanShip]) / 1e3
	if len(r.c.nodes) == 0 {
		// local_call's root is the caller's own loop, not the rpc client.
		m["rpc.client.self_us_p50"] = 0
	}
	m["bench.ledger_residual_pct"] = st.residualPct()
	m["bench.samples"] = float64(win.traced.n)
	m["bench.span_cost_ns"] = spanCost()
	if p := ref.medianP50(); p > 0 {
		m["bench.trace_overhead_pct"] = 100 * (win.traced.quantile(0.5) - p) / p
	}
	m["bench.segment_spread_pct"] = ref.spreadPct()
	m["bench.fail_ratio"] = ratio(float64(ref.failed+win.failed), float64(ref.attempted+win.attempted))

	// Process-level costs, over the untraced reference stretch: they explain
	// the end-to-end numbers, which no wrapper touches.
	first, last := ref.snaps[0], ref.snaps[len(ref.snaps)-1]
	var refOps float64
	for i := range ref.segs {
		refOps += float64(ref.segs[i].ops)
	}
	m["proc.gc_cycles"] = float64(last.gcCycles - first.gcCycles)
	m["proc.gc_pause_ms"] = float64(last.gcPauseNs-first.gcPauseNs) / 1e6
	m["proc.bytes_per_op"] = ratio(float64(last.allocBytes-first.allocBytes), refOps)
	for _, s := range ref.snaps {
		if mb := float64(s.heapInuse) / (1 << 20); mb > m["proc.heap_mb_peak"] {
			m["proc.heap_mb_peak"] = mb
		}
		if g := float64(s.goroutines); g > m["proc.goroutines_peak"] {
			m["proc.goroutines_peak"] = g
		}
	}

	// local_call stops here: no client, transport, wire or dispatcher.
	replayCore(cfg, r, m)
	if len(r.c.nodes) == 0 {
		return m, nil
	}

	// Counts over the traced window.
	m["rpc.client.attempts_per_op"] = ratio(float64(t.clientCalls.Load()), ops)
	m["rpc.client.retries"] = float64(after.client.Retries - before.client.Retries)
	m["rpc.client.rebinds"] = float64(after.client.Rebinds - before.client.Rebinds)
	m["rpc.client.batch_fallbacks"] = float64(after.client.BatchFallbacks - before.client.BatchFallbacks)
	m["rpc.client.reads_backup"] = float64(after.client.BackupReads - before.client.BackupReads)
	m["rpc.client.hedges"] = float64(after.client.Hedges - before.client.Hedges)
	hits := float64(after.cache.Hits - before.cache.Hits)
	m["naming.cache_hit_ratio"] = ratio(hits, hits+float64(after.cache.Misses-before.cache.Misses))
	m["transport.frames_per_flush"] = ratio(
		float64(after.dialer.BatchedFrames-before.dialer.BatchedFrames),
		float64(after.dialer.BatchFlushes-before.dialer.BatchFlushes))
	m["transport.open_conns"] = float64(after.dialer.OpenConns)
	m["transport.timeouts"] = float64(after.dialer.Timeouts - before.dialer.Timeouts)
	m["transport.orphaned_responses"] = float64(after.dialer.OrphanedResponses - before.dialer.OrphanedResponses)
	poolHits := float64(after.pool.Hits - before.pool.Hits)
	m["wire.pool_hit_ratio"] = ratio(poolHits, poolHits+float64(after.pool.Misses-before.pool.Misses))
	m["wire.pool_oversize"] = float64(after.pool.Oversize - before.pool.Oversize)
	m["rpc.server.admitted"] = float64(after.dispatch.Admitted - before.dispatch.Admitted)
	m["rpc.server.shed"] = float64(after.dispatch.Shed - before.dispatch.Shed)
	m["rpc.server.expired"] = float64(after.dispatch.ExpiredOnArrival - before.dispatch.ExpiredOnArrival)
	if r.primary != nil {
		writes, reads := aux, ops-aux
		m["replica.ships_per_write"] = ratio(float64(t.shipCalls.Load()), writes)
		m["replica.ship_bytes_per_write"] = ratio(float64(t.shipBytes.Load()), writes)
		m["replica.read_refusals"] = float64(after.refusals - before.refusals)
		m["replica.backup_read_share"] = ratio(float64(t.backupReads.Load()), reads)
	}

	replayNaming(cfg, r, m)
	if err := replayTransport(cfg, m); err != nil {
		return nil, err
	}
	replayWire(cfg, r, t, m)
	if r.primary != nil {
		snapshot := r.primary.State().Encode()
		ns, _ := timeLoop(scaled(cfg, 2000), func() { snapshot = r.primary.State().Encode() })
		m["objstate.encode_us"] = ns / 1e3
		m["objstate.snapshot_bytes"] = float64(len(snapshot))
	}
	if r.journalPath != "" {
		if err := replayEvolve(cfg, r, t, st, aux, float64(after.journal-before.journal), m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// medianP50 is the window's operation median in the histogram's own unit:
// the median over segments of each segment's median.
func (w *window) medianP50() float64 {
	var per []float64
	for i := range w.segs {
		if w.segs[i].lat.n > 0 {
			per = append(per, w.segs[i].lat.quantile(0.5))
		}
	}
	return median(per)
}

// spreadPct is (p90 − p10) ÷ median of the segments' throughput.
func (w *window) spreadPct() float64 {
	var per []float64
	for i := range w.segs {
		per = append(per, float64(w.segs[i].ops)/w.segSeconds(i))
	}
	b := bandOf(per)
	return 100 * ratio(b.P90-b.P10, b.Median)
}

// spanCost is what recording one span costs the layer that holds it: two
// clock reads and a slot. A parent's self time is inflated by about this much
// per child, which matters only where layers cost tens of nanoseconds.
func spanCost() float64 {
	const n = 1 << 16
	t := newTracer(n)
	ns, _ := timeLoop(n, func() {
		start := t.now()
		t.record(spanFuncBody, 1, start, t.now())
	})
	return ns
}

// replayCore prices what the object.invoke seam cannot split: DFM resolution
// inside core, and core's allocations per invocation.
func replayCore(cfg *config, r *running, m map[string]float64) {
	obj, names := r.c.objs[len(r.c.objs)-1], r.c.typ.leaves
	payload := make([]byte, smallPayload)
	i := 0
	_, m["core.invoke_allocs"] = timeLoop(scaled(cfg, 20000), func() {
		_, _ = obj.InvokeMethodCtx(context.Background(), names[i%len(names)], payload)
		i++
	})
	table := obj.DFM()
	m["dfm.resolve_ns"], _ = timeLoop(scaled(cfg, 200000), func() {
		if _, release, err := table.BeginExportedCall(names[i%len(names)]); err == nil {
			release()
		}
		i++
	})
}

// replayNaming prices a binding-cache hit on the workload's own LOIDs.
func replayNaming(cfg *config, r *running, m map[string]float64) {
	loids := r.c.loids
	i := 0
	m["naming.resolve_hit_ns"], _ = timeLoop(scaled(cfg, 200000), func() {
		_, _ = r.c.cache.Resolve(loids[i%len(loids)])
		i++
	})
}

// replayTransport measures the floor under a round trip: a bare TCPDialer.Call
// against ListenTCP with an echo HandlerFunc at depth 1, and the same handler
// through the in-process transport with no socket at all.
func replayTransport(cfg *config, m map[string]float64) error {
	echo := transport.HandlerFunc(func(_ context.Context, req *wire.Envelope) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindResponse, Payload: req.Payload}
	})
	srv, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer srv.Close()
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	payload := make([]byte, smallPayload)
	call := func(d transport.Dialer, endpoint string) error {
		req := &wire.Envelope{Kind: wire.KindRequest, Target: "loid:1.1.1", Method: "echo", Payload: payload}
		_, err := d.Call(context.Background(), endpoint, req, time.Second)
		return err
	}
	var rtt hist
	for i, n := 0, scaled(cfg, 4000); i < n; i++ {
		start := time.Now()
		if err := call(dialer, srv.Endpoint()); err != nil {
			return fmt.Errorf("echo round trip: %w", err)
		}
		if i >= n/10 { // the first tenth warms the connection
			rtt.add(int64(time.Since(start)))
		}
	}
	m["transport.echo_rtt_us_p50"] = rtt.quantile(0.5) / 1e3

	net := transport.NewInprocNetwork()
	in, err := net.Listen("echo", echo)
	if err != nil {
		return err
	}
	defer in.Close()
	inDialer := net.Dialer()
	m["transport.inproc_call_ns"], _ = timeLoop(scaled(cfg, 50000), func() { _ = call(inDialer, in.Endpoint()) })
	return nil
}

// decoded keeps replayed decodes reachable, so the compiler cannot place the
// envelopes on the stack and hide their allocation.
var decoded [2]*wire.Envelope

// replayWire prices the envelope codec on the exchanges the client's dialer
// recorded: encode and decode of request plus response, their allocations,
// and the bytes on the wire beside the payload bytes they carry.
func replayWire(cfg *config, r *running, t *tracer, m map[string]float64) {
	xs := t.exchanges
	if len(xs) == 0 {
		return
	}
	// Frame lengths ride in a 4-byte prefix per frame.
	const framePrefix = 4
	var frameBytes, payloadBytes float64
	encoded := make([][2][]byte, len(xs))
	for i := range xs {
		encoded[i] = [2][]byte{xs[i].req.Encode(), xs[i].resp.Encode()}
		frameBytes += float64(len(encoded[i][0]) + len(encoded[i][1]) + 2*framePrefix)
		for _, ev := range []*wire.Envelope{&xs[i].req, &xs[i].resp} {
			if ev.Kind != wire.KindBatchRequest && ev.Kind != wire.KindBatchResponse {
				payloadBytes += float64(len(ev.Payload))
				continue
			}
			// A batch frame's payload is a run of sub-envelopes; what the
			// callers asked to move is the sub-payloads.
			subs, _ := wire.DecodeBatchRun(ev.Payload, nil)
			for k := range subs {
				payloadBytes += float64(len(subs[k].Payload))
			}
		}
	}
	perOp := 1.0
	if xs[0].req.Kind == wire.KindBatchRequest {
		perOp = batchSize
	}
	n := float64(len(xs))
	m["wire.frame_bytes_per_op"] = frameBytes / n / perOp
	m["wire.overhead_bytes_per_op"] = (frameBytes - payloadBytes) / n / perOp

	buf := make([]byte, 0, 64<<10)
	rounds := scaled(cfg, 200000) / len(xs)
	if rounds < 1 {
		rounds = 1
	}
	i := 0
	encNs, encAllocs := timeLoop(rounds*len(xs), func() {
		x := &xs[i%len(xs)]
		buf = x.req.AppendEncode(buf[:0])
		buf = x.resp.AppendEncode(buf[:0])
		i++
	})
	decNs, decAllocs := timeLoop(rounds*len(xs), func() {
		e := &encoded[i%len(xs)]
		decoded[0], _ = wire.DecodeEnvelope(e[0])
		decoded[1], _ = wire.DecodeEnvelope(e[1])
		i++
	})
	m["wire.encode_ns"], m["wire.decode_ns"] = encNs, decNs
	m["wire.allocs_per_roundtrip"] = encAllocs + decAllocs

	// The dispatcher on a prebuilt envelope: one recorded idempotent request
	// fed straight to Dispatcher.Handle, no transport underneath.
	for k := range xs {
		req := xs[k].req
		if req.Method == "bump" || req.Method == rpc.MethodReplRead {
			continue
		}
		req.TraceID = 0
		disp := r.c.nodes[0].disp
		m["rpc.server.handle_ns"], _ = timeLoop(scaled(cfg, 50000)/int(perOp), func() {
			wire.PutEnvelope(disp.Handle(context.Background(), &req))
		})
		m["rpc.server.handle_ns"] /= perOp
		break
	}

	if perOp == 1 {
		return
	}
	// Batch codec, per sub-call: decode each recorded run, then rebuild it
	// entry by entry.
	var subs []wire.Envelope
	scratch := make([]byte, 0, 512)
	decNs, _ = timeLoop(rounds*len(xs), func() {
		subs, _ = wire.DecodeBatchRun(xs[i%len(xs)].req.Payload, subs[:0])
		i++
	})
	encNs, _ = timeLoop(rounds*len(xs), func() {
		buf = wire.AppendBatchHeader(buf[:0], len(subs))
		for k := range subs {
			buf, scratch = wire.AppendBatchEntry(buf, &subs[k], scratch)
		}
	})
	m["wire.batch_decode_ns_per_sub"] = decNs / perOp
	m["wire.batch_encode_ns_per_sub"] = encNs / perOp
}

// replayEvolve fills in the evolve ledger: what the journal cost per evolve
// (counted by its sink, priced by appending the recorded records to a scratch
// journal in the same directory), what dfm.Diff costs on the two descriptors,
// and the manager's self time net of the journal.
//
// evolves is every evolve the window completed, traced or not: the sink and
// the file size count all of them too.
func replayEvolve(cfg *config, r *running, t *tracer, st *selfTimes, evolves, journalBytes float64, m map[string]float64) error {
	if evolves == 0 || len(t.journal) == 0 {
		return fmt.Errorf("traced window saw %v evolves and %d journal records", evolves, len(t.journal))
	}
	m["manager.journal.records_per_evolve"] = float64(len(t.journal)) / evolves
	m["manager.journal.bytes_per_evolve"] = journalBytes / evolves

	path := r.journalPath + ".replay"
	scratch, err := manager.OpenJournal(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer scratch.Close()
	var appendNs hist
	for i, n := 0, scaled(cfg, 2000); i < n; i++ {
		rec := t.journal[i%len(t.journal)]
		start := time.Now()
		if err := scratch.Append(rec); err != nil {
			return err
		}
		appendNs.add(int64(time.Since(start)))
	}
	appendUs := appendNs.quantile(0.5) / 1e3
	m["manager.journal.append_us_p50"] = appendUs
	m["manager.self_us_p50"] = median(st.self[spanEvolve][spanEvolve])/1e3 - m["manager.journal.records_per_evolve"]*appendUs

	// core.ApplyDescriptor as the hosted object saw it.
	m["core.apply_us_p50"] = median(st.duration[spanEvolve][spanObjectInvoke]) / 1e3
	base, next := r.c.typ.base, r.c.typ.next
	ns, _ := timeLoop(scaled(cfg, 2000), func() {
		_ = dfm.Diff(base, next)
		_ = dfm.Diff(next, base)
	})
	m["dfm.diff_us"] = ns / 2 / 1e3
	return nil
}
