package rpc

import (
	"fmt"
	"testing"

	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// TestFailureTable pins every row of classify: each transport retry class and
// each wire error code, for a non-idempotent and an idempotent call, and the
// wait for a binding that has not moved since an earlier safe failure.
func TestFailureTable(t *testing.T) {
	type row struct {
		v   verdict
		eff cacheEffect
		s   stat
	}
	fail := row{verdictFail, cacheKeep, statNone}
	rows := []struct {
		name      string
		class     transport.RetryClass // used when code == 0
		code      uint64
		unmoved   bool // the binding is the one an earlier safe failure was against
		plain, id row  // non-idempotent, idempotent
	}{
		{name: "transport safe", class: transport.RetrySafe,
			plain: row{verdictRetry, cacheTrim, statSafe}, id: row{verdictRetry, cacheTrim, statSafe}},
		{name: "transport safe, binding unmoved", class: transport.RetrySafe, unmoved: true,
			plain: row{verdictWait, cacheDrop, statSafe}, id: row{verdictWait, cacheDrop, statSafe}},
		{name: "transport ambiguous", class: transport.RetryAmbiguous,
			plain: row{verdictAbort, cacheKeep, statAmbiguous}, id: row{verdictRetry, cacheTrim, statAmbiguous}},
		{name: "transport never", class: transport.RetryNever, plain: fail, id: fail},
		{name: "internal", code: wire.CodeInternal, plain: fail, id: fail},
		{name: "no such object", code: wire.CodeNoSuchObject,
			plain: row{verdictRebind, cacheTrim, statNone}, id: row{verdictRebind, cacheTrim, statNone}},
		{name: "no such function", code: wire.CodeNoSuchFunction, plain: fail, id: fail},
		{name: "disabled", code: wire.CodeDisabled, plain: fail, id: fail},
		{name: "stale binding", code: wire.CodeStaleBinding,
			plain: row{verdictRebind, cacheTrim, statNone}, id: row{verdictRebind, cacheTrim, statNone}},
		{name: "bad request", code: wire.CodeBadRequest, plain: fail, id: fail},
		{name: "unavailable", code: wire.CodeUnavailable,
			plain: row{verdictAbort, cacheKeep, statAmbiguous}, id: row{verdictRetry, cacheKeep, statAmbiguous}},
		{name: "overloaded", code: wire.CodeOverloaded,
			plain: row{verdictRetry, cacheKeep, statShed}, id: row{verdictRetry, cacheKeep, statShed}},
		{name: "expired", code: wire.CodeExpired, plain: fail, id: fail},
		{name: "not primary", code: wire.CodeNotPrimary,
			plain: row{verdictRebind, cacheDrop, statNone}, id: row{verdictRebind, cacheDrop, statNone}},
		{name: "fenced", code: wire.CodeFenced, plain: fail, id: fail},
	}
	codes := map[uint64]bool{}
	for _, r := range rows {
		var err error
		if r.code == 0 {
			err = &transport.CallError{Class: r.class, Err: fmt.Errorf("scripted %s", r.class)}
		}
		codes[r.code] = true
		for _, idempotent := range []bool{false, true} {
			want := r.plain
			if idempotent {
				want = r.id
			}
			v, eff, s := classify(err, r.code, idempotent, r.unmoved)
			if got := (row{v, eff, s}); got != want {
				t.Errorf("%s (idempotent %v): classify = %+v, want %+v", r.name, idempotent, got, want)
			}
		}
	}
	for code := wire.CodeInternal; code <= wire.CodeFenced; code++ {
		if !codes[code] {
			t.Errorf("wire code %d has no row", code)
		}
	}
}
