// Package rpctest checks a method table against the declarations it was
// built from, for the tests of every package that serves one.
package rpctest

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"godcdo/internal/rpc"
)

// Row is one declared method with its types erased: a valid argument
// payload for it and its two decoders.
type Row struct {
	Name       string
	Idempotent bool
	// NoArgs marks a method whose arguments are rpc.None.
	NoArgs       bool
	Args         []byte
	DecodeArgs   func([]byte) error
	DecodeResult func([]byte) error
}

// Declare erases m's types, with a as its valid argument.
func Declare[A, R any](m rpc.Method[A, R], a A) Row {
	_, none := any(a).(rpc.None)
	return Row{
		Name:         m.Name,
		Idempotent:   m.Idempotent,
		NoArgs:       none,
		Args:         m.Args.Encode(a),
		DecodeArgs:   func(b []byte) error { _, err := m.Args.Decode(b); return err },
		DecodeResult: func(b []byte) error { _, err := m.Result.Decode(b); return err },
	}
}

// CheckTable asserts what table promises over the wire: it serves exactly
// the rows, answers an unknown name under prefix with rpc.ErrNoSuchFunction,
// and refuses an empty or truncated payload with rpc.ErrBadRequest for
// every method whose arguments carry something — before its handler runs.
func CheckTable(t testing.TB, table rpc.Table, prefix string, rows []Row) {
	t.Helper()
	var declared, served []string
	for _, r := range rows {
		declared = append(declared, r.Name)
	}
	for name := range table {
		served = append(served, name)
	}
	sort.Strings(declared)
	sort.Strings(served)
	if !reflect.DeepEqual(served, declared) {
		t.Errorf("%s table serves %v, declares %v", prefix, served, declared)
	}
	ctx := context.Background()
	if _, err := table.InvokeMethodCtx(ctx, prefix+"bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Errorf("%sbogus: err = %v, want ErrNoSuchFunction", prefix, err)
	}
	for _, r := range rows {
		if r.NoArgs {
			continue
		}
		for _, bad := range [][]byte{nil, r.Args[:len(r.Args)-1]} {
			if _, err := table.InvokeMethodCtx(ctx, r.Name, bad); !errors.Is(err, rpc.ErrBadRequest) {
				t.Errorf("%s with payload %x: err = %v, want ErrBadRequest", r.Name, bad, err)
			}
		}
	}
}
