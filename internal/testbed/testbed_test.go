package testbed

import (
	"context"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"

	"godcdo/internal/rpc"
	"godcdo/internal/rpc/rpctest"
)

// A whole testbed comes up, serves a call on each kind of object and
// tears down with every goroutine it started gone, the standby's monitor
// included.
func TestBuildCallTeardown(t *testing.T) {
	tb, err := Build(Config{
		Name:      "testbed",
		Seed:      1,
		Greetings: []Greeting{{ID: "en", Text: "hello"}, {ID: "fr", Text: "bonjour"}},
		Counter:   true,
		Fleet:     1,
		Groups:    []int{2},
		Spares:    1,
		Standby:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if out, err := Greet.Call(ctx, tb.Client, tb.Fleet[0], rpc.None{}); err != nil || string(out) != "hello" {
		t.Errorf("greet = %q, %v; want hello", out, err)
	}
	if n, err := Bump.Call(ctx, tb.Client, tb.Groups[0].LOID, rpc.None{}); err != nil || n != 1 {
		t.Errorf("bump = %d, %v; want 1", n, err)
	}
	if len(tb.Versions) != 2 || len(tb.Spares) != 1 {
		t.Errorf("versions %v, spares %v; want 2 versions and 1 spare", tb.Versions, tb.Spares)
	}
	tb.Monitor(time.Minute)
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

// The teardown guard is itself checked: a goroutine left running past
// Close fails it.
func TestTeardownCatchesALeak(t *testing.T) {
	tb, err := Build(Config{Name: "testbed-leak", Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		<-release
		close(done)
	}()
	err = tb.Close()
	close(release)
	<-done
	if err == nil || !strings.Contains(err.Error(), "still running after teardown") {
		t.Fatalf("Close = %v; want the leaked goroutine reported", err)
	}
}

// TestDynamicFunctionBytes pins the payloads of the testbed's dynamic
// functions, captured from the hand-written encoders their declarations
// replaced: greet answers its text unframed, the counter a uvarint. A node
// built before the declarations must still understand every payload.
func TestDynamicFunctionBytes(t *testing.T) {
	none := rpc.None{}
	for _, row := range []struct {
		name string
		got  []byte
		want string
	}{
		{"greet args", Greet.Args.Encode(none), ""},
		{"greet result", Greet.Result.Encode([]byte("hello")), "68656c6c6f"},
		{"bump args", Bump.Args.Encode(none), ""},
		{"bump result", Bump.Result.Encode(300), "ac02"},
		{"total args", Total.Args.Encode(none), ""},
		{"total result", Total.Result.Encode(300), "ac02"},
		{"add args", Add.Args.Encode(300), "ac02"},
		{"add result", Add.Result.Encode(301), "ad02"},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
	}

	// The bodies answer a raw call with the same bytes.
	tb, err := Build(Config{Name: "testbed-bytes", Greetings: []Greeting{{ID: "en", Text: "hello"}}, Counter: true, Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tb.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx, loid := context.Background(), tb.Fleet[0]
	raw := func(name string) string {
		t.Helper()
		out, err := tb.Client.Invoke(ctx, loid, name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return hex.EncodeToString(out)
	}
	if got := raw(Greet.Name); got != "68656c6c6f" {
		t.Errorf("greet answered %s, want 68656c6c6f", got)
	}
	for i := 1; i < 300; i++ {
		raw(Bump.Name)
	}
	// The 300th bump runs first, so total reads the count it left.
	for _, c := range []struct{ name, want string }{{Bump.Name, "ac02"}, {Total.Name, "ac02"}} {
		if got := raw(c.name); got != c.want {
			t.Errorf("%s answered %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDeclaredFunctionContracts holds the greet and counter types to their
// declarations over the wire: each declared function answers its valid
// argument, an unknown name answers ErrNoSuchFunction, and an empty,
// truncated or oversized argument is refused with ErrBadRequest before the
// body runs, leaving the counter as it was.
func TestDeclaredFunctionContracts(t *testing.T) {
	tb, err := Build(Config{Name: "testbed-contracts", Greetings: []Greeting{{ID: "en", Text: "hello"}}, Counter: true, Fleet: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tb.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx, client, loid := context.Background(), tb.Client, tb.Fleet[0]
	none := rpc.None{}
	rows := []rpctest.Row{
		rpctest.Declare(rpc.Method[rpc.None, []byte](Greet), none),
		rpctest.Declare(rpc.Method[uint64, uint64](Add), 300),
		rpctest.Declare(rpc.Method[rpc.None, uint64](Bump), none),
		rpctest.Declare(rpc.Method[rpc.None, uint64](Total), none),
	}
	for _, r := range rows {
		out, err := client.Invoke(ctx, loid, r.Name, r.Args)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if err := r.DecodeResult(out); err != nil {
			t.Errorf("%s result %x: %v", r.Name, out, err)
		}
	}
	if _, err := client.Invoke(ctx, loid, "bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Errorf("bogus: err = %v, want ErrNoSuchFunction", err)
	}
	before, err := Total.Call(ctx, client, loid, none)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NoArgs {
			continue
		}
		oversized := append(append([]byte(nil), r.Args...), 0xff, 0xff)
		for _, bad := range [][]byte{nil, r.Args[:len(r.Args)-1], oversized} {
			if _, err := client.Invoke(ctx, loid, r.Name, bad); !errors.Is(err, rpc.ErrBadRequest) {
				t.Errorf("%s with payload %x: err = %v, want ErrBadRequest", r.Name, bad, err)
			}
		}
	}
	if after, err := Total.Call(ctx, client, loid, none); err != nil || after != before {
		t.Errorf("counter after refused calls = %d, %v; want %d", after, err, before)
	}
}
