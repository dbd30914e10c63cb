package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// schemaVersion stamps every report; -compare refuses reports of another
// version.
const schemaVersion = 1

// A metricDef fixes one metric's unit and direction; for end-to-end metrics
// also the share of the parent's median by which it may worsen before a
// change counts as a regression. The tables below are what the program
// emits; BENCHMARK.json declares the same names to the driver, and a test
// holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics come from the untraced run only. Every workload reports
// every one of them: write_p50_us outside repl_mixed, and evolve_p50_ms
// outside evolve_under_load, fall back to the workload's own operation
// median (in that unit) under op_p50_us's own bound, so there they flag
// nothing op_p50_us does not.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_p99_us", "us", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.10},
	{"write_p50_us", "us", lower, 0.25},
	{"evolve_p50_ms", "ms", lower, 0.25},
}

// perLayerMetrics come from the traced run only: <module>.<metric>. A layer
// that is not on a workload's path reads 0 there.
var perLayerMetrics = []metricDef{
	{Name: "rpc.client.self_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.client.attempts_per_op", Unit: "1/op", Better: lower},
	{Name: "rpc.client.retries", Unit: "count", Better: lower},
	{Name: "rpc.client.rebinds", Unit: "count", Better: lower},
	{Name: "rpc.client.batch_fallbacks", Unit: "count", Better: lower},
	{Name: "rpc.client.reads_backup", Unit: "count", Better: higher},
	{Name: "rpc.client.hedges", Unit: "count", Better: lower},
	{Name: "naming.resolve_hit_ns", Unit: "ns", Better: lower},
	{Name: "naming.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "transport.self_us_p50", Unit: "us", Better: lower},
	{Name: "transport.echo_rtt_us_p50", Unit: "us", Better: lower},
	{Name: "transport.inproc_call_ns", Unit: "ns", Better: lower},
	{Name: "transport.frames_per_flush", Unit: "ratio", Better: higher},
	{Name: "transport.open_conns", Unit: "count", Better: lower},
	{Name: "transport.timeouts", Unit: "count", Better: lower},
	{Name: "transport.orphaned_responses", Unit: "count", Better: lower},
	{Name: "wire.encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.allocs_per_roundtrip", Unit: "count", Better: lower},
	{Name: "wire.frame_bytes_per_op", Unit: "B", Better: lower},
	{Name: "wire.overhead_bytes_per_op", Unit: "B", Better: lower},
	{Name: "wire.batch_encode_ns_per_sub", Unit: "ns", Better: lower},
	{Name: "wire.batch_decode_ns_per_sub", Unit: "ns", Better: lower},
	{Name: "wire.pool_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "wire.pool_oversize", Unit: "count", Better: lower},
	{Name: "rpc.server.self_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.server.handle_ns", Unit: "ns", Better: lower},
	{Name: "rpc.server.admitted", Unit: "count", Better: higher},
	{Name: "rpc.server.shed", Unit: "count", Better: lower},
	{Name: "rpc.server.expired", Unit: "count", Better: lower},
	{Name: "core.self_ns_p50", Unit: "ns", Better: lower},
	{Name: "core.invoke_allocs", Unit: "count", Better: lower},
	{Name: "dfm.resolve_ns", Unit: "ns", Better: lower},
	{Name: "registry.func_ns_p50", Unit: "ns", Better: lower},
	{Name: "replica.self_us_p50", Unit: "us", Better: lower},
	{Name: "replica.ship_us_p50", Unit: "us", Better: lower},
	{Name: "replica.ships_per_write", Unit: "ratio", Better: lower},
	{Name: "replica.ship_bytes_per_write", Unit: "B", Better: lower},
	{Name: "replica.backup_read_share", Unit: "ratio", Better: higher},
	{Name: "replica.read_refusals", Unit: "count", Better: lower},
	{Name: "objstate.encode_us", Unit: "us", Better: lower},
	{Name: "objstate.snapshot_bytes", Unit: "B", Better: lower},
	{Name: "manager.self_us_p50", Unit: "us", Better: lower},
	{Name: "manager.journal.append_us_p50", Unit: "us", Better: lower},
	{Name: "manager.journal.records_per_evolve", Unit: "count", Better: lower},
	{Name: "manager.journal.bytes_per_evolve", Unit: "B", Better: lower},
	{Name: "core.apply_us_p50", Unit: "us", Better: lower},
	{Name: "dfm.diff_us", Unit: "us", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.heap_mb_peak", Unit: "MB", Better: lower},
	{Name: "proc.bytes_per_op", Unit: "B", Better: lower},
	{Name: "proc.goroutines_peak", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.span_cost_ns", Unit: "ns", Better: lower},
	{Name: "bench.segment_spread_pct", Unit: "%", Better: lower},
	{Name: "bench.samples", Unit: "count", Better: higher},
	{Name: "bench.ledger_residual_pct", Unit: "%", Better: lower},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: lower},
}

// benchmarkSpec is BENCHMARK.json as far as this program reads it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
