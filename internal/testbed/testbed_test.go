package testbed

import (
	"context"
	"strings"
	"testing"
	"time"

	"godcdo/internal/wire"
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
	if out, err := tb.Client.InvokeIdempotent(ctx, tb.Fleet[0], "greet", nil); err != nil || string(out) != "hello" {
		t.Errorf("greet = %q, %v; want hello", out, err)
	}
	out, err := tb.Client.Invoke(ctx, tb.Groups[0].LOID, "bump", nil)
	if n, derr := wire.NewDecoder(out).Uvarint(); err != nil || derr != nil || n != 1 {
		t.Errorf("bump = %d (%v, %v); want 1", n, err, derr)
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
