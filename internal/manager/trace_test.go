package manager

import (
	"context"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/evolution"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
)

// newTracedEnv is newRemoteEnv with one obs wired into the dispatcher, the
// client, the manager and a hosted DCDO the manager holds as a
// RemoteInstance at version 1.
func newTracedEnv(t *testing.T) (*remoteEnv, *obs.Obs, *core.DCDO) {
	t.Helper()
	env := newRemoteEnv(t, evolution.MultiIncreasing)
	o := obs.New()
	env.disp.SetObs(o)
	env.client.Tracer = o.Tracer
	env.mgr.SetObs(o)
	obj := env.hostDCDO(t)
	obj.SetObs(o)
	ri := RemoteInstance{Client: env.client, Target: obj.LOID()}
	if err := env.mgr.CreateInstance(context.Background(), ri, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	return env, o, obj
}

// traceTree is one recorded trace, indexed.
type traceTree struct {
	spans   []obs.SpanRecord
	byID    map[uint64]obs.SpanRecord
	byStage map[string]obs.SpanRecord // the last span of each stage
}

// lastTrace returns the trace holding the most recent span of stage.
func lastTrace(t *testing.T, o *obs.Obs, stage string) traceTree {
	t.Helper()
	var traceID uint64
	for _, sp := range o.Tracer.Recent(0) {
		if sp.Stage == stage {
			traceID = sp.TraceID
		}
	}
	if traceID == 0 {
		t.Fatalf("no %s span recorded", stage)
	}
	tr := traceTree{spans: o.Tracer.Trace(traceID), byID: make(map[uint64]obs.SpanRecord), byStage: make(map[string]obs.SpanRecord)}
	for _, sp := range tr.spans {
		tr.byID[sp.SpanID] = sp
		tr.byStage[sp.Stage] = sp
	}
	return tr
}

// check fails t unless the trace holds every stage in want, has one root,
// of stage root, and every other span's parent is in the trace.
func (tr traceTree) check(t *testing.T, root string, want ...string) {
	t.Helper()
	for _, stage := range want {
		if _, ok := tr.byStage[stage]; !ok {
			t.Errorf("trace has no %s span; spans: %+v", stage, tr.spans)
		}
	}
	for _, sp := range tr.spans {
		if sp.ParentID == 0 {
			if sp.Stage != root {
				t.Errorf("root span %s, want %s", sp.Stage, root)
			}
		} else if _, ok := tr.byID[sp.ParentID]; !ok {
			t.Errorf("%s span has dangling parent %d", sp.Stage, sp.ParentID)
		}
	}
}

// parentOf fails t unless stage's last span is parented on a span of
// parent, which it returns.
func (tr traceTree) parentOf(t *testing.T, stage, parent string) obs.SpanRecord {
	t.Helper()
	p := tr.byID[tr.byStage[stage].ParentID]
	if p.Stage != parent {
		t.Errorf("%s parented on %q, want %s", stage, p.Stage, parent)
	}
	return p
}

// TestRemoteEvolveIsOneTrace: evolving a RemoteInstance records the
// manager's spans, the client's, the server's and the object's under one
// trace, the trace position riding ctx from mgr.apply through the RPC to
// the object's apply.
func TestRemoteEvolveIsOneTrace(t *testing.T) {
	env, o, obj := newTracedEnv(t)
	if err := env.mgr.EvolveInstance(context.Background(), obj.LOID(), v(1, 1)); err != nil {
		t.Fatal(err)
	}
	tr := lastTrace(t, o, obs.StageMgrEvolve)
	tr.check(t, obs.StageMgrEvolve, obs.StageMgrEvolve, obs.StageMgrApply, obs.StageClientInvoke,
		obs.StageClientAttempt, obs.StageServerDispatch, obs.StageDCDOControl, obs.StageDCDOApply)
	tr.parentOf(t, obs.StageMgrApply, obs.StageMgrEvolve)
	tr.parentOf(t, obs.StageClientInvoke, obs.StageMgrApply)
	tr.parentOf(t, obs.StageDCDOControl, obs.StageServerDispatch)
	tr.parentOf(t, obs.StageDCDOApply, obs.StageDCDOControl)
}

// TestEvolveRPCParentsOnDispatch: a mgr.evolve call to a traced manager
// node parents the manager's mgr.evolve span on the server.dispatch span of
// that call, so the caller's trace covers the whole evolution.
func TestEvolveRPCParentsOnDispatch(t *testing.T) {
	env, o, obj := newTracedEnv(t)
	if _, err := MethodEvolveInstance.Call(context.Background(), env.client, env.mgrLOI,
		EvolveArgs{LOID: obj.LOID(), Version: v(1, 1)}); err != nil {
		t.Fatal(err)
	}
	tr := lastTrace(t, o, obs.StageMgrEvolve)
	tr.check(t, obs.StageClientInvoke, obs.StageMgrEvolve, obs.StageMgrApply, obs.StageDCDOApply)
	if p := tr.parentOf(t, obs.StageMgrEvolve, obs.StageServerDispatch); p.Annots["loid"] != env.mgrLOI.String() {
		t.Errorf("mgr.evolve parented on the dispatch of %s, want %s", p.Annots["loid"], env.mgrLOI)
	}
}

// TestLocalEvolveTraceChain: evolving a LocalInstance records mgr.evolve →
// mgr.apply → dcdo.apply as one trace.
func TestLocalEvolveTraceChain(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	o := obs.New()
	m.SetObs(o)
	obj := f.newDCDO()
	obj.SetObs(o)
	ctx := context.Background()
	if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, nil, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	if err := m.EvolveInstance(ctx, obj.LOID(), v(1, 1)); err != nil {
		t.Fatal(err)
	}
	tr := lastTrace(t, o, obs.StageMgrEvolve)
	tr.check(t, obs.StageMgrEvolve, obs.StageMgrEvolve, obs.StageMgrApply, obs.StageDCDOApply)
	tr.parentOf(t, obs.StageMgrApply, obs.StageMgrEvolve)
	tr.parentOf(t, obs.StageDCDOApply, obs.StageMgrApply)
}
