package godcdo_test

import (
	"context"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/evolution"
	"godcdo/internal/legion"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/workload"
)

// TestWrappedDCDOTracesUnderDispatch: a DCDO hosted behind a wrapper — a
// replica group's primary or the §3.4 lazy updater — on an instrumented
// node is wired into the node's obs through the wrapper, and a call to it
// records the dcdo.resolve histogram and the dcdo.resolve and dcdo.func
// spans, both parented on the call's server.dispatch span.
func TestWrappedDCDOTracesUnderDispatch(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(*core.DCDO) rpc.Object
	}{
		{"replica", func(d *core.DCDO) rpc.Object { return replica.New(d.LOID(), d, nil, replica.RolePrimary, 1, nil) }},
		{"lazy", func(d *core.DCDO) rpc.Object { return evolution.NewLazyUpdater(d, nil, evolution.LazySpec{}, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := obs.New()
			node, err := legion.NewNode(legion.NodeConfig{Name: "wrap-" + c.name, Agent: naming.NewAgent(vclock.Real{}), Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = node.Close() })
			reg := registry.New()
			built, err := workload.Build(reg, naming.NewAllocator(1, 9), workload.Spec{Prefix: "wr", Functions: 4, Components: 1})
			if err != nil {
				t.Fatal(err)
			}
			obj := core.New(core.Config{LOID: naming.LOID{Domain: 1, Class: 1, Instance: 1}, Registry: reg, Fetcher: built.Fetcher()})
			if _, err := obj.ApplyDescriptor(context.Background(), built.Descriptor, version.ID{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := node.HostObject(obj.LOID(), c.wrap(obj)); err != nil {
				t.Fatal(err)
			}
			if _, err := node.Client().Invoke(context.Background(), obj.LOID(), workload.LeafName("wr", 0, 0), nil); err != nil {
				t.Fatal(err)
			}

			if n := o.Metrics.Histogram(obs.StageDCDOResolve).Count(); n == 0 {
				t.Errorf("%s histogram recorded nothing", obs.StageDCDOResolve)
			}
			var dispatch obs.SpanRecord
			for _, sp := range o.Tracer.Recent(0) {
				if sp.Stage == obs.StageServerDispatch && sp.Annots["loid"] == obj.LOID().String() {
					dispatch = sp
				}
			}
			if dispatch.SpanID == 0 {
				t.Fatalf("no %s span for %s", obs.StageServerDispatch, obj.LOID())
			}
			children := make(map[string]int)
			for _, sp := range o.Tracer.Trace(dispatch.TraceID) {
				if sp.ParentID == dispatch.SpanID {
					children[sp.Stage]++
				}
			}
			for _, stage := range []string{obs.StageDCDOResolve, obs.StageDCDOFunc} {
				if children[stage] != 1 {
					t.Errorf("%d %s spans under server.dispatch, want 1 (children: %v)", children[stage], stage, children)
				}
			}
		})
	}
}
