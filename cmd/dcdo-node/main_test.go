package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"godcdo/internal/demo"
	"godcdo/internal/legion"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
)

func TestStartNodeServesLocalAgent(t *testing.T) {
	node, localAgent, err := startNode("t1", "127.0.0.1:0", "", legion.NodeConfig{}, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if localAgent == nil {
		t.Fatal("expected a local agent")
	}
	// The agent service answers over the node's own endpoint.
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	remote := &rpc.RemoteAgent{Dialer: dialer, Endpoint: node.Endpoint(), Timeout: 2 * time.Second}
	loid := naming.LOID{Domain: 5, Class: 5, Instance: 5}
	remote.Register(loid, naming.Address{Endpoint: "tcp:10.0.0.1:1"})
	b, err := remote.Lookup(loid)
	if err != nil || b.Address.Endpoint != "tcp:10.0.0.1:1" {
		t.Fatalf("lookup = %+v, %v", b, err)
	}
}

func TestStartNodeAgainstRemoteAgent(t *testing.T) {
	// First node serves the agent; second node registers through it.
	first, _, err := startNode("hub", "127.0.0.1:0", "", legion.NodeConfig{}, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, localAgent, err := startNode("leaf", "127.0.0.1:0", first.Endpoint(), legion.NodeConfig{}, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if localAgent != nil {
		t.Fatal("leaf node should not run its own agent")
	}
	loid := naming.LOID{Domain: 6, Class: 6, Instance: 6}
	if _, err := second.HostObject(loid, rpc.ObjectFunc(func(string, []byte) ([]byte, error) {
		return []byte("ok"), nil
	})); err != nil {
		t.Fatal(err)
	}
	// The first node resolves and calls the object hosted on the second.
	out, err := first.Client().Invoke(context.Background(), loid, "ping", nil)
	if err != nil || string(out) != "ok" {
		t.Fatalf("invoke = %q, %v", out, err)
	}
}

func TestStartNodeBadAddr(t *testing.T) {
	if _, _, err := startNode("bad", "256.0.0.1:99999", "", legion.NodeConfig{}, obs.Options{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestDemoInstallEndToEnd(t *testing.T) {
	node, _, err := startNode("demo", "127.0.0.1:0", "", legion.NodeConfig{}, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	dep, err := demo.Install(node)
	if err != nil {
		t.Fatal(err)
	}
	total, err := demo.Price.Call(context.Background(), node.Client(), demo.PricingLOID, 20)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2000 {
		t.Fatalf("price = %d, want 2000", total)
	}
	// Evolve through the local manager handle and observe the discount.
	v11, err := dep.Manager.CurrentVersion()
	if err != nil {
		t.Fatal(err)
	}
	_ = v11
	if err := dep.Manager.SetCurrentVersion(context.Background(), mustVersion(t, "1.1")); err != nil {
		t.Fatal(err)
	}
	total, err = demo.Price.Call(context.Background(), node.Client(), demo.PricingLOID, 20)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1600 {
		t.Fatalf("price after evolution = %d, want 1600", total)
	}
}

func mustVersion(t *testing.T, s string) []uint32 {
	t.Helper()
	segs := []uint32{}
	cur := uint32(0)
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			segs = append(segs, cur)
			cur = 0
			continue
		}
		cur = cur*10 + uint32(s[i]-'0')
	}
	return segs
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestFlagInventory pins the node's flag set. Adding a knob fails it, so
// each new flag is a visible decision, and shrinking the list toward a node
// config document has a number to move.
func TestFlagInventory(t *testing.T) {
	want := []string{
		"addr", "agent", "demo", "flight-threshold", "flight-traces",
		"journal-dir", "max-inflight", "mirror-to", "name", "obs-events",
		"obs-http", "obs-spans", "policy", "pprof", "queue-depth",
		"standby-for", "supervise", "trace-sample", "transport-stripes",
		"transport-workers",
	}
	// -h makes the flag set print its defaults, one "  -name" line per flag
	// in sorted order, to stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", runErr)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(usage), -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%d flags %v, want %d %v", len(got), got, len(want), want)
	}
}

func TestNodeObsServiceAndHTTP(t *testing.T) {
	node, _, err := startNode("obsnode", "127.0.0.1:0", "", legion.NodeConfig{}, obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Obs() == nil {
		t.Fatal("node started without an obs handle")
	}
	if _, err := demo.Install(node); err != nil {
		t.Fatal(err)
	}
	if _, err := demo.Price.Call(context.Background(), node.Client(), demo.PricingLOID, 20); err != nil {
		t.Fatal(err)
	}

	// The obs RPC service answers on the node's own endpoint.
	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	oc := &rpc.ObsClient{Dialer: dialer, Endpoint: node.Endpoint(), Timeout: 2 * time.Second}
	snap, err := oc.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("snapshot has no spans after a traced invoke")
	}
	if _, ok := snap.Metrics.Histograms["client.invoke"]; !ok {
		t.Fatalf("snapshot missing client.invoke histogram: %v", snap.Metrics.Histograms)
	}

	// And the /debug/obs HTTP endpoint serves the same snapshot as JSON.
	httpAddr, err := startObsHTTP("127.0.0.1:0", node.Obs(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + httpAddr + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/obs = %d", resp.StatusCode)
	}
	var body struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Spans) == 0 {
		t.Fatal("HTTP snapshot has no spans")
	}
}

func TestNodeMetricsFlightAndPprofHTTP(t *testing.T) {
	node, _, err := startNode("promnode", "127.0.0.1:0", "", legion.NodeConfig{}, obs.Options{
		FlightCapacity:  64,
		FlightThreshold: -1, // errors only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := demo.Install(node); err != nil {
		t.Fatal(err)
	}
	if _, err := demo.Price.Call(context.Background(), node.Client(), demo.PricingLOID, 20); err != nil {
		t.Fatal(err)
	}
	// A call to a missing method errors remotely and must land in the
	// flight recorder.
	if _, err := node.Client().Invoke(context.Background(), demo.PricingLOID, "no-such-method", nil); err == nil {
		t.Fatal("expected remote error")
	}

	httpAddr, err := startObsHTTP("127.0.0.1:0", node.Obs(), nil, true)
	if err != nil {
		t.Fatal(err)
	}

	// /metrics serves Prometheus text with the dimensioned invoke series.
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ExpositionContentType {
		t.Fatalf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE invoke_latency_seconds histogram",
		`invoke_calls_total{loid="` + demo.PricingLOID.String() + `",method="price"}`,
		"invoke_errors_total{",
		"flight_promnode_retained",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// /debug/flight serves the retained error trace.
	resp, err = http.Get("http://" + httpAddr + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Stats  obs.FlightStats   `json:"stats"`
		Traces []obs.FlightTrace `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if flight.Stats.Retained == 0 || len(flight.Traces) == 0 {
		t.Fatalf("flight recorder empty after an errored call: %+v", flight.Stats)
	}

	// pprof answers with a real profile.
	resp, err = http.Get("http://" + httpAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Fatalf("GET /debug/pprof/heap = %d, %d bytes, %v", resp.StatusCode, len(prof), err)
	}
}

func TestRunRejectsPprofWithoutHTTP(t *testing.T) {
	if err := run([]string{"-pprof", "-addr", "127.0.0.1:0", "-obs-http", ""}); err == nil {
		t.Fatal("-pprof without -obs-http accepted")
	}
}

func TestRunRejectsBadFlagCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the startup error
	}{
		{"supervise without demo", []string{"-supervise"}, "-supervise requires -demo"},
		{"supervise without journal", []string{"-demo", "-supervise"}, "-supervise requires -journal-dir"},
		{"mirror without demo", []string{"-mirror-to", "tcp:127.0.0.1:1"}, "-mirror-to requires -demo"},
		{"mirror without journal", []string{"-demo", "-mirror-to", "tcp:127.0.0.1:1"}, "-mirror-to requires -journal-dir"},
		{"standby without demo", []string{"-standby-for", "tcp:127.0.0.1:1"}, "-standby-for requires -demo"},
		{"standby without journal", []string{"-demo", "-standby-for", "tcp:127.0.0.1:1"}, "-standby-for requires -journal-dir"},
		{"mirror and standby together", []string{"-demo", "-journal-dir", "x", "-mirror-to", "tcp:a", "-standby-for", "tcp:b"},
			"mutually exclusive"},
		{"policy without demo", []string{"-policy", `{"degree":2}`}, "-policy requires -demo"},
		{"policy bad json", []string{"-demo", "-policy", `{"degree":`}, "-policy"},
		{"policy unknown field", []string{"-demo", "-policy", `{"degree":1,"replicas":3}`}, "-policy"},
		{"policy zero degree", []string{"-demo", "-policy", `{"degree":0}`}, "degree"},
		{"policy unsatisfiable degree", []string{"-demo", "-policy", `{"degree":3,"candidates":["tcp:a"]}`},
			"cannot satisfy degree"},
		{"policy bad read preference", []string{"-demo", "-policy", `{"degree":1,"read_preference":"nearest"}`},
			"unknown read preference"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...))
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

func TestMirrorAliasPolicyValidates(t *testing.T) {
	// Regression: the -mirror-to alias once listed only the standby as a
	// candidate, so the degree-2 document failed its own validation and
	// killed the primary after startup. The alias must always produce a
	// designatable document naming both members.
	pol := mirrorAliasPolicy("tcp:127.0.0.1:7432", "tcp:127.0.0.1:7433")
	if err := pol.Validate(); err != nil {
		t.Fatalf("alias policy invalid: %v", err)
	}
	if pol.Degree != 2 || len(pol.Candidates) != 2 {
		t.Fatalf("alias = %s, want degree 2 with both members as candidates", pol.String())
	}
	roundTripped, err := policy.Parse(pol.String())
	if err != nil {
		t.Fatalf("alias does not round-trip: %v", err)
	}
	if !roundTripped.Equal(pol.Normalize()) {
		t.Fatalf("round-trip = %s, want %s", roundTripped.String(), pol.Normalize().String())
	}
}
