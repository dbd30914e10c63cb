package rpc

// Client stat naming lives in this file, and only here: the ClientStats
// snapshot struct, the wire-visible counter names, and the table binding the
// two together. The Go field names describe the event (IdempotentCalls); the
// counter names group related series lexically in metrics dumps
// ("calls_idempotent" sorts beside "calls", "reads_backup" beside other
// read-path series). clientStatFields is the one authoritative mapping —
// Stats() is generated from it and TestClientStatsRoundTrip fails if a field
// is added to ClientStats without a table entry.

// ClientStats counts client-side invocation outcomes, including how many
// calls hit a stale binding and were transparently rebound — the mechanism
// the stale-binding experiment (E4) measures the latency of — and how the
// retry policy classified failures (E7).
//
// Subset relations between the series:
//
//   - IdempotentCalls ⊆ Calls (every InvokeIdempotent entry is a Calls entry).
//   - BackupReads ⊆ IdempotentCalls (only idempotent calls route to backups).
//   - CallsBatched is disjoint from Calls: a sub-call counted there entered
//     through InvokeBatch, not Invoke. The exception is fallbacks — a batch
//     sub-call demoted to the single-call path (BatchFallbacks counts these)
//     re-enters through invoke and is then ALSO counted in Calls.
type ClientStats struct {
	// Calls counts Invoke/InvokeIdempotent entries.
	Calls uint64
	// Rebinds counts cache invalidations this client performed after a
	// failure (one per logical rebind; concurrent callers failing against
	// the same stale endpoint share a single rebind).
	Rebinds uint64
	// Errors counts calls that ultimately returned an error.
	Errors uint64
	// Retries counts additional transport attempts beyond each call's first.
	Retries uint64
	// SafeFailures counts attempt failures proven not to have executed.
	SafeFailures uint64
	// AmbiguousFailures counts attempt failures that may have executed.
	AmbiguousFailures uint64
	// AmbiguousAborts counts non-idempotent calls abandoned (rather than
	// retried) after an ambiguous failure.
	AmbiguousAborts uint64
	// Backoffs counts the delays slept between retries.
	Backoffs uint64
	// OverloadedSheds counts attempts the server refused at admission
	// (CodeOverloaded). Shed requests never dispatched, so they are retried
	// after backoff regardless of idempotency.
	OverloadedSheds uint64
	// IdempotentCalls counts InvokeIdempotent entries (a subset of Calls).
	IdempotentCalls uint64
	// BackupReads counts idempotent calls answered by a backup replica
	// under a backup-ok distribution policy (E14 measures the fraction).
	BackupReads uint64
	// Batches counts InvokeBatch entries (one per endpoint-group frame sent,
	// not per caller-visible batch).
	Batches uint64
	// CallsBatched counts sub-calls carried inside batch frames (E15
	// divides throughput by this, not Batches).
	CallsBatched uint64
	// BatchFallbacks counts batch sub-calls demoted to the single-call
	// invoke path — legacy servers, per-sub retryable failures, or whole-
	// frame transport failures. Demoted sub-calls also count in Calls.
	BatchFallbacks uint64
	// Hedges always reads 0: the client does not hedge. The field stays
	// only because the benchmark's rpc.client.hedges row reads it.
	Hedges uint64
}

// Counter names used in the client's metrics.CounterSet.
const (
	statCalls             = "calls"
	statRebinds           = "rebinds"
	statErrors            = "errors"
	statRetries           = "retries"
	statSafeFailures      = "failures_safe"
	statAmbiguousFailures = "failures_ambiguous"
	statAmbiguousAborts   = "ambiguous_aborts"
	statBackoffs          = "backoffs"
	statOverloadedSheds   = "overloaded_sheds"
	statIdempotentCalls   = "calls_idempotent"
	statBackupReads       = "reads_backup"
	statBatches           = "batches"
	statCallsBatched      = "calls_batched"
	statBatchFallbacks    = "batch_fallbacks"
	statHedges            = "hedges"
)

// clientStatFields binds each counter name to its ClientStats field. Order
// matches the struct for readability; correctness only needs the pairing.
var clientStatFields = []struct {
	name string
	get  func(*ClientStats) *uint64
}{
	{statCalls, func(s *ClientStats) *uint64 { return &s.Calls }},
	{statRebinds, func(s *ClientStats) *uint64 { return &s.Rebinds }},
	{statErrors, func(s *ClientStats) *uint64 { return &s.Errors }},
	{statRetries, func(s *ClientStats) *uint64 { return &s.Retries }},
	{statSafeFailures, func(s *ClientStats) *uint64 { return &s.SafeFailures }},
	{statAmbiguousFailures, func(s *ClientStats) *uint64 { return &s.AmbiguousFailures }},
	{statAmbiguousAborts, func(s *ClientStats) *uint64 { return &s.AmbiguousAborts }},
	{statBackoffs, func(s *ClientStats) *uint64 { return &s.Backoffs }},
	{statOverloadedSheds, func(s *ClientStats) *uint64 { return &s.OverloadedSheds }},
	{statIdempotentCalls, func(s *ClientStats) *uint64 { return &s.IdempotentCalls }},
	{statBackupReads, func(s *ClientStats) *uint64 { return &s.BackupReads }},
	{statBatches, func(s *ClientStats) *uint64 { return &s.Batches }},
	{statCallsBatched, func(s *ClientStats) *uint64 { return &s.CallsBatched }},
	{statBatchFallbacks, func(s *ClientStats) *uint64 { return &s.BatchFallbacks }},
	{statHedges, func(s *ClientStats) *uint64 { return &s.Hedges }},
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	var s ClientStats
	for _, f := range clientStatFields {
		*f.get(&s) = c.counters.Counter(f.name).Value()
	}
	return s
}
