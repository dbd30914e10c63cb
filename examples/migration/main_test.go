package main

import (
	"encoding/hex"
	"testing"

	"godcdo/internal/objstate"
)

// counter is the object state inc counts in.
type counter struct{ st *objstate.State }

func (counter) CallInternal(string, []byte) ([]byte, error) { return nil, nil }
func (c counter) State() *objstate.State                    { return c.st }

// TestCounterBytes pins inc's and build's payloads, captured from the
// hand-written encoders the declarations replaced.
func TestCounterBytes(t *testing.T) {
	c := counter{objstate.New()}
	funcs := counterFuncs("amd64 build")
	for _, want := range []string{"01", "02", "03"} {
		out, err := funcs[inc.Name](c, nil)
		if got := hex.EncodeToString(out); err != nil || got != want {
			t.Errorf("inc = %s, %v; want %s", got, err, want)
		}
	}
	out, err := funcs[build.Name](c, nil)
	if got := hex.EncodeToString(out); err != nil || got != "616d643634206275696c64" {
		t.Errorf("build = %s, %v; want 616d643634206275696c64", got, err)
	}
}
