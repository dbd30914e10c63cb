package rpc

// Client stat naming lives in this file, and only here: the ClientStats
// snapshot struct, the counter indexes, and the table binding each to its
// wire-visible counter name and its field. The Go field names describe the event (IdempotentCalls); the
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
//   - IdempotentCalls ⊆ Calls (every idempotent single-call entry is a Calls
//     entry).
//   - Calls and CallsBatched are disjoint: Calls counts single-call entries
//     only, and CallsBatched the sub-calls of batch entries. Both run through
//     the same call loop, so a retried sub-call rides the batch's next frame
//     and never becomes a single call.
//   - BatchFallbacks ⊆ CallsBatched: the sub-calls that needed a second
//     attempt.
//   - BackupReads ⊆ IdempotentCalls + idempotent CallsBatched (only
//     idempotent calls, single or batched, route to backups).
//   - A batch frame is an attempt of each of its sub-calls, so a whole-frame
//     failure counts once per sub-call in SafeFailures, AmbiguousFailures or
//     OverloadedSheds, and in Retries when retried.
type ClientStats struct {
	// Calls counts single-call entries: Invoke, InvokeIdempotent and
	// Method.Call.
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
	// IdempotentCalls counts idempotent single-call entries (a subset of
	// Calls).
	IdempotentCalls uint64
	// BackupReads counts idempotent calls and sub-calls answered by a backup
	// replica under a backup-ok distribution policy (E14 measures the
	// fraction).
	BackupReads uint64
	// Batches counts batch frames sent (one per endpoint group and round,
	// not per caller-visible batch; a group of one sends a plain request).
	Batches uint64
	// CallsBatched counts the sub-calls of InvokeBatch and Batch.Invoke
	// entries (E15 divides throughput by this, not Batches).
	CallsBatched uint64
	// BatchFallbacks counts batch sub-calls that needed a second attempt:
	// those whose frame failure or own error envelope the failure table
	// retried, rebound or waited on. They never count in Calls.
	BatchFallbacks uint64
	// Hedges always reads 0: the client does not hedge. The field stays
	// only because the benchmark's rpc.client.hedges row reads it.
	Hedges uint64
}

// stat indexes the client's counters; the failure table (failure.go) names
// the counter a failed attempt bumps by its stat.
type stat uint8

const (
	statCalls stat = iota
	statRebinds
	statErrors
	statRetries
	statSafe
	statAmbiguous
	statAborts
	statBackoffs
	statShed
	statIdempotent
	statBackupReads
	statBatches
	statBatched
	statBatchFallbacks
	statHedges
	numStats
	statNone = numStats // a failure that bumps no counter
)

// clientStatFields binds each counter to its name in the client's
// metrics.CounterSet and to its ClientStats field. Order matches the struct
// for readability; correctness only needs the pairing.
var clientStatFields = [numStats]struct {
	name string
	get  func(*ClientStats) *uint64
}{
	statCalls:          {"calls", func(s *ClientStats) *uint64 { return &s.Calls }},
	statRebinds:        {"rebinds", func(s *ClientStats) *uint64 { return &s.Rebinds }},
	statErrors:         {"errors", func(s *ClientStats) *uint64 { return &s.Errors }},
	statRetries:        {"retries", func(s *ClientStats) *uint64 { return &s.Retries }},
	statSafe:           {"failures_safe", func(s *ClientStats) *uint64 { return &s.SafeFailures }},
	statAmbiguous:      {"failures_ambiguous", func(s *ClientStats) *uint64 { return &s.AmbiguousFailures }},
	statAborts:         {"ambiguous_aborts", func(s *ClientStats) *uint64 { return &s.AmbiguousAborts }},
	statBackoffs:       {"backoffs", func(s *ClientStats) *uint64 { return &s.Backoffs }},
	statShed:           {"overloaded_sheds", func(s *ClientStats) *uint64 { return &s.OverloadedSheds }},
	statIdempotent:     {"calls_idempotent", func(s *ClientStats) *uint64 { return &s.IdempotentCalls }},
	statBackupReads:    {"reads_backup", func(s *ClientStats) *uint64 { return &s.BackupReads }},
	statBatches:        {"batches", func(s *ClientStats) *uint64 { return &s.Batches }},
	statBatched:        {"calls_batched", func(s *ClientStats) *uint64 { return &s.CallsBatched }},
	statBatchFallbacks: {"batch_fallbacks", func(s *ClientStats) *uint64 { return &s.BatchFallbacks }},
	statHedges:         {"hedges", func(s *ClientStats) *uint64 { return &s.Hedges }},
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	var s ClientStats
	for k, f := range clientStatFields {
		*f.get(&s) = c.count[k].Value()
	}
	return s
}
