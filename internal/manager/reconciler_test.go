package manager

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/policy"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

// recInner is a minimal replica.Inner for reconciler tests: a state
// container with set/get. The E14 harness drives the full core.DCDO path;
// here only the convergence machinery is under test.
type recInner struct{ st *objstate.State }

func newRecInner() *recInner { return &recInner{st: objstate.New()} }

func (f *recInner) State() *objstate.State { return f.st }

func (f *recInner) InvokeMethodCtx(_ context.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case core.MethodVersion.Name:
		e := wire.NewEncoder(16)
		e.PutUintSlice([]uint64{1})
		return e.Bytes(), nil
	case "set":
		dec := wire.NewDecoder(args)
		k, _ := dec.String()
		v, _ := dec.Bytes()
		f.st.Set(k, v)
		return nil, nil
	case "get":
		k, _ := wire.NewDecoder(args).String()
		v, _ := f.st.Get(k)
		e := wire.NewEncoder(len(v) + 4)
		e.PutBytes(v)
		return e.Bytes(), nil
	default:
		return nil, fmt.Errorf("%w: %q", rpc.ErrNoSuchFunction, method)
	}
}

// reconEnv hosts one policy-managed replica group (members) plus spare
// nodes carrying only a replica-host service (candidates).
type reconEnv struct {
	net     *transport.InprocNetwork
	agent   *naming.Agent
	mgr     *Manager
	loid    naming.LOID
	group   *replica.Group
	servers map[string]*transport.InprocServer
	hosts   map[string]*replica.HostService
}

// ep turns a node name into its inproc endpoint.
func ep(name string) string { return "inproc:" + name }

func newReconEnv(t *testing.T, members, candidates []string) *reconEnv {
	t.Helper()
	env := &reconEnv{
		net:     transport.NewInprocNetwork(),
		agent:   naming.NewAgent(vclock.Real{}),
		mgr:     New(evolution.MultiGeneral, evolution.Explicit),
		loid:    naming.LOID{Domain: 4, Class: 1, Instance: 1},
		servers: map[string]*transport.InprocServer{},
		hosts:   map[string]*replica.HostService{},
	}
	endpoints := make([]string, len(members))
	for i, name := range members {
		endpoints[i] = ep(name)
	}
	for i, name := range members {
		role := replica.RoleBackup
		var backups []string
		if i == 0 {
			role = replica.RolePrimary
			backups = endpoints[1:]
		}
		rep := replica.New(env.loid, newRecInner(), env.net.Dialer(), role, 1, backups)
		rep.ShipTimeout = 200 * time.Millisecond
		disp := rpc.NewDispatcher()
		disp.Host(env.loid, rep)
		srv, err := env.net.Listen(name, disp)
		if err != nil {
			t.Fatal(err)
		}
		env.servers[name] = srv
	}
	for _, name := range candidates {
		disp := rpc.NewDispatcher()
		hs := &replica.HostService{
			Factory: func(naming.LOID) (replica.Inner, error) { return newRecInner(), nil },
			Dialer:  env.net.Dialer(),
			Host:    disp.Host,
		}
		disp.Host(rpc.ReplicaHostLOID, hs)
		srv, err := env.net.Listen(name, disp)
		if err != nil {
			t.Fatal(err)
		}
		env.servers[name] = srv
		env.hosts[name] = hs
	}
	env.agent.RegisterSet(env.loid, naming.ReplicaSet{Primary: endpoints[0], Backups: endpoints[1:]})
	env.group = replica.Attach(env.loid, env.net.Dialer(), env.agent, env.agent.Set(env.loid), 1)
	env.mgr.RegisterReplicaGroup(env.loid, env.group)
	env.mgr.SetPolicyPublisher(env.agent)
	return env
}

func (e *reconEnv) kill(t *testing.T, name string) {
	t.Helper()
	if err := e.servers[name].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileHealsDegreeAfterBackupLoss(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1", "b2"}, []string{"n1", "n2"})
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	env.mgr.SetJournal(j)

	pol := policy.Default()
	pol.Degree = 3
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}

	rec := &Reconciler{Mgr: env.mgr, Candidates: []string{ep("n1"), ep("n2")}}
	ctx := context.Background()

	// A converged group needs nothing.
	report, err := rec.Sweep(ctx)
	if err != nil || report.Converged != 1 || len(report.Actions) != 0 {
		t.Fatalf("converged sweep = %+v err=%v", report, err)
	}

	// Kill a backup: the next sweep drops it and heals onto a candidate.
	env.kill(t, "b2")
	report, err = rec.Sweep(ctx)
	if err != nil {
		t.Fatalf("healing sweep: %v", err)
	}
	if report.Converged != 1 {
		t.Fatalf("healing sweep did not converge: %+v", report)
	}
	set := env.group.Set()
	if len(set.Endpoints()) != 3 || set.Contains(ep("b2")) {
		t.Fatalf("post-heal set = %+v", set)
	}
	if !set.Contains(ep("n1")) && !set.Contains(ep("n2")) {
		t.Fatalf("no candidate joined: %+v", set)
	}
	st := rec.Stats()
	if st.Drops != 1 || st.Heals != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want 1 drop + 1 heal", st)
	}
	if published := env.agent.Set(env.loid); published.Contains(ep("b2")) || len(published.Endpoints()) != 3 {
		t.Fatalf("published set = %+v", published)
	}

	// Each convergence step was journalled before it was taken.
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	var reconcileOps, policyOps int
	for _, r := range recs {
		switch r.Op {
		case OpReconcile:
			reconcileOps++
		case OpPolicySet:
			policyOps++
		}
	}
	if reconcileOps != 2 || policyOps != 1 {
		t.Fatalf("journal: %d reconcile + %d policy-set records, want 2 + 1", reconcileOps, policyOps)
	}
}

// A manager whose journal is fenced (a standby took over, and the shipper
// refuses every record) takes no step: the sweep ends with ErrFenced and
// the group's published set is the one it found.
func TestReconcileStopsWhenJournalFenced(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1", "b2"}, []string{"n1", "n2"})
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	env.mgr.SetJournal(j)
	pol := policy.Default()
	pol.Degree = 3
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}
	j.SetSink(func(JournalRecord) error { return rpc.ErrFenced })

	env.kill(t, "b2")
	before := env.agent.Set(env.loid)
	rec := &Reconciler{Mgr: env.mgr, Candidates: []string{ep("n1"), ep("n2")}}
	report, err := rec.Sweep(context.Background())
	if !errors.Is(err, rpc.ErrFenced) {
		t.Fatalf("fenced sweep: err = %v, want ErrFenced", err)
	}
	if report.Converged != 0 || len(report.Actions) != 0 {
		t.Fatalf("fenced sweep = %+v, want no action and nothing converged", report)
	}
	if after := env.agent.Set(env.loid); !reflect.DeepEqual(after, before) {
		t.Fatalf("published set moved under a fenced journal: %+v -> %+v", before, after)
	}
	if st := rec.Stats(); st.Drops+st.Heals+st.Failovers+st.Demotions != 0 {
		t.Fatalf("stats = %+v, want no step taken", st)
	}
}

func TestReconcileFailsOverDeadPrimary(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1", "b2"}, []string{"n1"})
	pol := policy.Default()
	pol.Degree = 3
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}
	rec := &Reconciler{Mgr: env.mgr, Candidates: []string{ep("n1")}}

	env.kill(t, "p")
	report, err := rec.Sweep(context.Background())
	if err != nil {
		t.Fatalf("failover sweep: %v", err)
	}
	if report.Converged != 1 {
		t.Fatalf("failover sweep did not converge: %+v", report)
	}
	set := env.group.Set()
	if set.Primary != ep("b1") || set.Contains(ep("p")) || len(set.Endpoints()) != 3 {
		t.Fatalf("post-failover set = %+v", set)
	}
	st := rec.Stats()
	if st.Failovers != 1 || st.Heals != 1 {
		t.Fatalf("stats = %+v, want 1 failover + 1 heal", st)
	}
}

func TestReconcileDemotesOnDegreeDecrease(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1", "b2"}, nil)
	pol := policy.Default()
	pol.Degree = 2
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}
	rec := &Reconciler{Mgr: env.mgr}

	report, err := rec.Sweep(context.Background())
	if err != nil {
		t.Fatalf("demoting sweep: %v", err)
	}
	if report.Converged != 1 {
		t.Fatalf("demoting sweep did not converge: %+v", report)
	}
	set := env.group.Set()
	if len(set.Endpoints()) != 2 || set.Contains(ep("b2")) {
		t.Fatalf("post-demote set = %+v (tail backup should go first)", set)
	}
	if st := rec.Stats(); st.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 demotion", st)
	}
}

func TestReconcileSkipsUnmanagedAndUngrouped(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1"}, nil)
	// A policy on a LOID with no registered group is skipped, not an error.
	orphan := naming.LOID{Domain: 4, Class: 1, Instance: 99}
	if err := env.mgr.SetPolicy(orphan, policy.Default()); err != nil {
		t.Fatal(err)
	}
	rec := &Reconciler{Mgr: env.mgr}
	report, err := rec.Sweep(context.Background())
	if err != nil || report.Converged != 0 || report.Diverged != 0 {
		t.Fatalf("sweep over ungrouped policy = %+v err=%v", report, err)
	}
}

func TestPickCandidatePlacement(t *testing.T) {
	r := &Reconciler{Candidates: []string{"a", "b", "c"}}
	hosting := map[string]int{"a": 2, "b": 1}
	notMember := func(string) bool { return false }

	pol := policy.Default()
	if got := r.pickCandidate(pol, notMember, hosting); got != "c" {
		t.Fatalf("least-loaded pick = %q, want c", got)
	}
	if got := r.pickCandidate(pol, func(e string) bool { return e == "c" }, hosting); got != "b" {
		t.Fatalf("member-skipping pick = %q, want b", got)
	}

	// Anti-affinity is strict: only endpoints hosting nothing qualify.
	pol.AntiAffinity = true
	if got := r.pickCandidate(pol, notMember, hosting); got != "c" {
		t.Fatalf("anti-affinity pick = %q, want c", got)
	}
	hosting["c"] = 1
	if got := r.pickCandidate(pol, notMember, hosting); got != "" {
		t.Fatalf("anti-affinity pick = %q, want none (all loaded)", got)
	}

	// A policy's own candidate list overrides the global pool.
	pol2 := policy.Default()
	pol2.Candidates = []string{"x"}
	if got := r.pickCandidate(pol2, notMember, hosting); got != "x" {
		t.Fatalf("policy-candidates pick = %q, want x", got)
	}
}

// TestPolicyRecoverResumesConvergence is the standby story: the first
// manager designates a policy and crashes before its reconciler finishes;
// a successor recovering from the same journal restores the document,
// re-publishes it, and its own sweep completes the convergence.
func TestPolicyRecoverResumesConvergence(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1", "b2"}, []string{"n1"})
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	env.mgr.SetJournal(j)

	pol := policy.Default()
	pol.Degree = 3
	pol.ReadPreference = policy.ReadBackupOK
	pol.Consistency = policy.ConsistencyEventual
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}
	// The predecessor observes the loss and journals its first intent, then
	// dies before acting on it.
	env.kill(t, "b2")
	if err := j.Reconcile(env.loid, "drop dead "+ep("b2")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The successor recovers from the shipped journal.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m2 := New(evolution.MultiGeneral, evolution.Explicit)
	m2.SetJournal(j2)
	agent2 := naming.NewAgent(vclock.Real{})
	m2.SetPolicyPublisher(agent2)
	report, err := m2.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Policies != 1 {
		t.Fatalf("recovery restored %d policies, want 1", report.Policies)
	}
	got, ok := m2.PolicyOf(env.loid)
	if !ok || !got.Equal(pol.Normalize()) {
		t.Fatalf("recovered policy = %+v ok=%v", got, ok)
	}
	// Restoration re-published to the successor's naming plane.
	if p, ok := agent2.PolicyOf(env.loid); !ok || p.Degree != 3 {
		t.Fatalf("policy not re-published on recovery: %+v ok=%v", p, ok)
	}

	// The successor's reconciler finishes what the predecessor started,
	// level-triggered from the restored document — no resume state needed.
	m2.RegisterReplicaGroup(env.loid, env.group)
	rec := &Reconciler{Mgr: m2, Candidates: []string{ep("n1")}}
	rep, err := rec.Sweep(context.Background())
	if err != nil {
		t.Fatalf("successor sweep: %v", err)
	}
	if rep.Converged != 1 {
		t.Fatalf("successor sweep did not converge: %+v", rep)
	}
	set := env.group.Set()
	if len(set.Endpoints()) != 3 || set.Contains(ep("b2")) || !set.Contains(ep("n1")) {
		t.Fatalf("post-takeover set = %+v", set)
	}
}

func TestSetPolicyValidatesBeforeJournalling(t *testing.T) {
	m := New(evolution.MultiGeneral, evolution.Explicit)
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m.SetJournal(j)
	loid := naming.LOID{Domain: 4, Class: 2, Instance: 1}

	bad := policy.DistributionPolicy{Degree: -1}
	if err := m.SetPolicy(loid, bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("rejected policy reached the journal: %+v", recs)
	}
	if _, ok := m.PolicyOf(loid); ok {
		t.Fatal("rejected policy was stored")
	}

	good := policy.Default()
	good.Degree = 2
	if err := m.SetPolicy(loid, good); err != nil {
		t.Fatal(err)
	}
	recs, err = j.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Op != OpPolicySet || recs[0].LOID != loid {
		t.Fatalf("journal after SetPolicy = %+v", recs)
	}
	reparsed, err := policy.Parse(recs[0].Reason)
	if err != nil || reparsed.Degree != 2 {
		t.Fatalf("journalled doc = %q (parse err %v)", recs[0].Reason, err)
	}
	if lids := m.PolicyLOIDs(); len(lids) != 1 || lids[0] != loid {
		t.Fatalf("PolicyLOIDs = %v", lids)
	}
}

func TestReconcilerRunStopLifecycle(t *testing.T) {
	env := newReconEnv(t, []string{"p", "b1"}, nil)
	pol := policy.Default()
	pol.Degree = 2
	if err := env.mgr.SetPolicy(env.loid, pol); err != nil {
		t.Fatal(err)
	}
	rec := &Reconciler{Mgr: env.mgr, Interval: time.Millisecond}
	rec.Run()
	defer rec.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for rec.Stats().Sweeps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never swept")
		}
		time.Sleep(time.Millisecond)
	}
	rec.Stop()
	rec.Stop() // idempotent
	// A stopped reconciler may Run again.
	rec.Run()
	rec.Stop()
}
