package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/demo"
	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/obs"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// startDemoNode runs the demo deployment on an in-process TCP node and
// returns its endpoint.
func startDemoNode(t *testing.T) string {
	t.Helper()
	agent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{Name: "ctl-test", Agent: agent})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	if _, err := node.HostObject(rpc.AgentLOID, rpc.NewAgentService(agent)); err != nil {
		t.Fatal(err)
	}
	if _, err := demo.Install(node); err != nil {
		t.Fatal(err)
	}
	return node.Endpoint()
}

// captureStdout runs fn with stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func ctl(t *testing.T, endpoint string, args ...string) (string, error) {
	t.Helper()
	full := append([]string{"-agent", endpoint}, args...)
	return captureStdout(t, func() error { return run(full) })
}

func TestCtlInvokeAndEvolveFlow(t *testing.T) {
	endpoint := startDemoNode(t)
	pricing := demo.PricingLOID.String()
	mgr := demo.ManagerLOID.String()

	out, err := ctl(t, endpoint, "invoke", pricing, "price", "--uint", "20")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "2000" {
		t.Fatalf("price = %q, want 2000", out)
	}

	out, err = ctl(t, endpoint, "interface", pricing)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "price" {
		t.Fatalf("interface = %q", out)
	}

	out, err = ctl(t, endpoint, "version", pricing)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1" {
		t.Fatalf("version = %q", out)
	}

	if _, err := ctl(t, endpoint, "setcurrent", mgr, "1.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, endpoint, "evolve", mgr, pricing, "1.1"); err != nil {
		t.Fatal(err)
	}

	out, err = ctl(t, endpoint, "invoke", pricing, "price", "--uint", "20")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1600" {
		t.Fatalf("price after evolution = %q, want 1600", out)
	}

	out, err = ctl(t, endpoint, "records", mgr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, pricing) || !strings.Contains(out, "1.1") {
		t.Fatalf("records = %q", out)
	}

	out, err = ctl(t, endpoint, "snapshot", pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "price@pricing-v2") || !strings.Contains(out, "enabled") {
		t.Fatalf("snapshot = %q", out)
	}
}

func TestCtlEnsureCurrent(t *testing.T) {
	endpoint := startDemoNode(t)
	pricing := demo.PricingLOID.String()
	mgr := demo.ManagerLOID.String()

	out, err := ctl(t, endpoint, "ensure-current", mgr, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "already current") {
		t.Fatalf("output = %q", out)
	}
	// The demo manager is proactive: setcurrent already evolves the
	// instance, so a subsequent ensure-current is a no-op — but the object
	// must be at 1.1 pricing either way.
	if _, err := ctl(t, endpoint, "setcurrent", mgr, "1.1"); err != nil {
		t.Fatal(err)
	}
	out, err = ctl(t, endpoint, "ensure-current", mgr, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "already current") {
		t.Fatalf("output = %q", out)
	}
	out, err = ctl(t, endpoint, "invoke", pricing, "price", "--uint", "20")
	if err != nil || strings.TrimSpace(out) != "1600" {
		t.Fatalf("price after ensure-current = %q, %v", out, err)
	}
}

func TestCtlEnableDisable(t *testing.T) {
	endpoint := startDemoNode(t)
	pricing := demo.PricingLOID.String()

	if _, err := ctl(t, endpoint, "disable", pricing, "price", "pricing-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, endpoint, "invoke", pricing, "price", "--uint", "5"); err == nil {
		t.Fatal("invoke of disabled function succeeded")
	}
	if _, err := ctl(t, endpoint, "enable", pricing, "price", "pricing-v1"); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, endpoint, "invoke", pricing, "price", "--uint", "5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "500" {
		t.Fatalf("price = %q", out)
	}
}

func TestCtlArgumentErrors(t *testing.T) {
	endpoint := startDemoNode(t)
	cases := [][]string{
		{},                                    // no command
		{"bogus"},                             // unknown command
		{"invoke"},                            // missing loid
		{"invoke", "not-a-loid", "m"},         // bad loid
		{"invoke", demo.PricingLOID.String()}, // missing method
		{"enable", demo.PricingLOID.String()}, // missing function/component
		{"evolve", demo.ManagerLOID.String()}, // missing target
		{"setcurrent", demo.ManagerLOID.String()},        // missing version
		{"setcurrent", demo.ManagerLOID.String(), "x.y"}, // bad version
	}
	for _, c := range cases {
		if _, err := ctl(t, endpoint, c...); err == nil {
			t.Errorf("args %v: expected error", c)
		}
	}
}

func TestEncodeArgs(t *testing.T) {
	if out, err := encodeArgs(nil); err != nil || out != nil {
		t.Fatalf("empty args = %v, %v", out, err)
	}
	// --uint's bytes, captured from the hand-written encoder it replaced,
	// are what the demo's price declaration reads.
	for n, want := range map[string]string{"20": "14", "300": "ac02"} {
		out, err := encodeArgs([]string{"--uint", n})
		if got := hex.EncodeToString(out); err != nil || got != want {
			t.Fatalf("--uint %s = %s, %v; want %s", n, got, err, want)
		}
	}
	if _, err := encodeArgs([]string{"--uint"}); err == nil {
		t.Fatal("--uint without value accepted")
	}
	if _, err := encodeArgs([]string{"--uint", "abc"}); err == nil {
		t.Fatal("--uint with non-number accepted")
	}
	raw, err := encodeArgs([]string{"hello"})
	if err != nil || string(raw) != "hello" {
		t.Fatalf("raw args = %q, %v", raw, err)
	}
}

// ctlInner is a minimal replicated object body: versioned, stateful, with
// one mutating method so shipped sequence numbers advance.
type ctlInner struct{ st *objstate.State }

func (i *ctlInner) State() *objstate.State { return i.st }

func (i *ctlInner) InvokeMethodCtx(_ context.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case core.MethodVersion.Name:
		e := wire.NewEncoder(8)
		e.PutUintSlice([]uint64{1})
		return e.Bytes(), nil
	case "set":
		i.st.Set("k", args)
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

func TestCtlReplicas(t *testing.T) {
	// Singleton path first: the demo pricing object is not replicated.
	endpoint := startDemoNode(t)
	out, err := ctl(t, endpoint, "replicas", demo.PricingLOID.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not replicated") {
		t.Fatalf("singleton output = %q", out)
	}

	// Now a real 3-member group across three TCP nodes sharing one agent.
	agent := naming.NewAgent(vclock.Real{})
	dialer := transport.NewTCPDialer()
	t.Cleanup(func() { _ = dialer.Close() })
	loid := naming.LOID{Domain: 9, Class: 9, Instance: 9}

	nodes := make([]*legion.Node, 3)
	endpoints := make([]string, 3)
	for i := range nodes {
		node, err := legion.NewNode(legion.NodeConfig{Name: fmt.Sprintf("rep%d", i), Agent: agent})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[i] = node
		endpoints[i] = node.Endpoint()
	}
	// The first node also answers agent lookups for the CLI.
	if _, err := nodes[0].HostObject(rpc.AgentLOID, rpc.NewAgentService(agent)); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		role := replica.RoleBackup
		var backups []string
		if i == 0 {
			role = replica.RolePrimary
			backups = endpoints[1:]
		}
		node.Dispatcher().Host(loid, replica.New(loid, &ctlInner{st: objstate.New()}, dialer, role, 1, backups))
	}
	if _, ok := agent.RegisterSet(loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]}); !ok {
		t.Fatal("RegisterSet refused")
	}
	// One mutation so the primary ships and the seq counters move.
	if _, err := rpc.DirectCall(context.Background(), dialer, endpoints[0], loid, "set", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	out, err = ctl(t, endpoints[0], "replicas", loid.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"generation 1", "3 member(s)", "primary " + endpoints[0],
		"version 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replicas output missing %q:\n%s", want, out)
		}
	}
	for _, ep := range endpoints {
		if !strings.Contains(out, ep) {
			t.Errorf("replicas output missing member %s:\n%s", ep, out)
		}
	}
	if got := strings.Count(out, "backup"); got != 2 {
		t.Errorf("backup count = %d, want 2:\n%s", got, out)
	}
	if got := strings.Count(out, "primary"); got != 2 { // header + primary row
		t.Errorf("primary count = %d, want 2:\n%s", got, out)
	}

	// A dead member renders as unreachable instead of failing the command.
	_ = nodes[2].Close()
	out, err = ctl(t, endpoints[0], "replicas", loid.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unreachable") {
		t.Errorf("replicas output missing unreachable member:\n%s", out)
	}

	// Missing/unbound LOIDs are errors.
	if _, err := ctl(t, endpoints[0], "replicas"); err == nil {
		t.Error("replicas without a loid accepted")
	}
	if _, err := ctl(t, endpoints[0], "replicas", "loid:7.7.7"); err == nil {
		t.Error("replicas of an unbound loid accepted")
	}
}

// startObsDemoNode is startDemoNode with observability wired, mirroring how
// dcdo-node builds its node.
func startObsDemoNode(t *testing.T) string {
	t.Helper()
	agent := naming.NewAgent(vclock.Real{})
	node, err := legion.NewNode(legion.NodeConfig{Name: "ctl-obs-test", Agent: agent, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	node.Dispatcher().Host(rpc.ObsLOID, rpc.NewObsService(node.Obs()))
	if _, err := node.HostObject(rpc.AgentLOID, rpc.NewAgentService(agent)); err != nil {
		t.Fatal(err)
	}
	if _, err := demo.Install(node); err != nil {
		t.Fatal(err)
	}
	return node.Endpoint()
}

func TestCtlTrace(t *testing.T) {
	endpoint := startObsDemoNode(t)
	pricing := demo.PricingLOID.String()
	mgr := demo.ManagerLOID.String()

	// An untraced node answers with empty results, not errors.
	plain := startDemoNode(t)
	out, err := ctl(t, plain, "trace")
	if err == nil {
		t.Fatalf("trace against a node without an obs service succeeded: %q", out)
	}

	// Drive a traced invoke and an evolution, then read them back.
	if _, err := ctl(t, endpoint, "invoke", pricing, "price", "--uint", "20"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, endpoint, "setcurrent", mgr, "1.1"); err != nil {
		t.Fatal(err)
	}

	out, err = ctl(t, endpoint, "trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace ", "server.dispatch", "dcdo.func"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}

	out, err = ctl(t, endpoint, "trace", "events")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"set-current-version", "evolved", "instance-created"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace events missing %q:\n%s", want, out)
		}
	}

	out, err = ctl(t, endpoint, "trace", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server.dispatch", "dcdo.func", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace metrics missing %q:\n%s", want, out)
		}
	}

	if _, err := ctl(t, endpoint, "trace", "bogus"); err == nil {
		t.Fatal("unknown trace subcommand accepted")
	}
	if _, err := ctl(t, endpoint, "trace", "spans", "not-a-number"); err == nil {
		t.Fatal("bad trace id accepted")
	}
}

// startFlightDemoNode mirrors startObsDemoNode with a flight recorder
// configured for errors-only retention.
func startFlightDemoNode(t *testing.T) string {
	t.Helper()
	agent := naming.NewAgent(vclock.Real{})
	o := obs.NewWithOptions(obs.Options{FlightCapacity: 64, FlightThreshold: -1})
	node, err := legion.NewNode(legion.NodeConfig{Name: "ctl-flight-test", Agent: agent, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	node.Dispatcher().Host(rpc.ObsLOID, rpc.NewObsService(node.Obs()))
	if _, err := node.HostObject(rpc.AgentLOID, rpc.NewAgentService(agent)); err != nil {
		t.Fatal(err)
	}
	if _, err := demo.Install(node); err != nil {
		t.Fatal(err)
	}
	return node.Endpoint()
}

func TestCtlTraceFlight(t *testing.T) {
	endpoint := startFlightDemoNode(t)
	pricing := demo.PricingLOID.String()

	// Empty recorder first.
	out, err := ctl(t, endpoint, "trace", "flight")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no traces retained") {
		t.Fatalf("empty flight output: %q", out)
	}

	// An errored call is retained and shows up in flight and slowest.
	if _, err := ctl(t, endpoint, "invoke", pricing, "no-such-method"); err == nil {
		t.Fatal("bad method succeeded")
	}
	out, err = ctl(t, endpoint, "trace", "flight")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1 retained", "reason=error", "server.dispatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace flight missing %q:\n%s", want, out)
		}
	}
	out, err = ctl(t, endpoint, "trace", "slowest")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slowest=") {
		t.Errorf("trace slowest missing slowest=:\n%s", out)
	}
	if _, err := ctl(t, endpoint, "trace", "flight", "not-a-number"); err == nil {
		t.Fatal("bad flight trace id accepted")
	}
}

func TestCtlPolicy(t *testing.T) {
	endpoint := startDemoNode(t)
	pricing := demo.PricingLOID.String()
	mgr := demo.ManagerLOID.String()

	out, err := ctl(t, endpoint, "policy", "get", mgr, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no policy designated") {
		t.Fatalf("get before set = %q", out)
	}

	doc := `{"degree":3,"read_preference":"backup-ok","consistency":"eventual","candidates":["tcp:a","tcp:b","tcp:c"]}`
	if _, err := ctl(t, endpoint, "policy", "set", mgr, pricing, doc); err != nil {
		t.Fatal(err)
	}

	out, err = ctl(t, endpoint, "policy", "get", mgr, pricing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"degree":3`) || !strings.Contains(out, "backup-ok") {
		t.Fatalf("get after set = %q", out)
	}

	out, err = ctl(t, endpoint, "policy", "diff", mgr, pricing, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no differences") {
		t.Fatalf("diff against identical doc = %q", out)
	}
	out, err = ctl(t, endpoint, "policy", "diff", mgr, pricing, `{"degree":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "degree: 3 -> 1") {
		t.Fatalf("diff against degree 1 = %q", out)
	}

	// Invalid documents are rejected client-side, before any RPC.
	if _, err := ctl(t, endpoint, "policy", "set", mgr, pricing, `{"degree":0}`); err == nil {
		t.Fatal("zero-degree policy accepted")
	}
	if _, err := ctl(t, endpoint, "policy", "bogus", mgr, pricing); err == nil {
		t.Fatal("unknown policy action accepted")
	}
}
