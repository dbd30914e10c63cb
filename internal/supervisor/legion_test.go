package supervisor

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"godcdo/internal/legion"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
)

// TestAttachServesRolloutOverTheNode drives an attached supervisor the way
// dcdo-ctl does: through Client at the node's endpoint — start, status,
// pause, resume, abort — then reads the outcome from /debug/rollout.
func TestAttachServesRolloutOverTheNode(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t)
	f.populate(t, m, 3)
	net := transport.NewInprocNetwork()
	node, err := legion.NewNode(legion.NodeConfig{Name: "sup-attach", Agent: naming.NewAgent(vclock.Real{}), Inproc: net, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	hub := NewHub()
	sup := &Supervisor{Mgr: m, Reg: metrics.NewRegistry(), Hub: hub}
	sup.Attach(node)
	if sup.Obs != node.Obs() {
		t.Fatal("Attach did not hand the supervisor the node's obs")
	}
	// A one-event buffer nobody reads: the hub drops the rest.
	_, unsubscribe := hub.Subscribe(1)
	defer unsubscribe()

	// No traffic keeps the SLO window insufficient, so the canary bakes
	// until the test aborts it.
	policy := testPolicy()
	policy.BakeTime = time.Hour
	ctx := context.Background()
	cl := &Client{Dialer: net.Dialer(), Endpoint: node.Endpoint()}
	st, err := cl.Start(ctx, policy)
	if err != nil || !st.Active || st.Policy == nil || st.Policy.Name != policy.Name {
		t.Fatalf("Start = %+v, %v; want rollout %q active", st, err, policy.Name)
	}
	if st, err = cl.Status(ctx); err != nil || !st.Active || st.Target != "1.1" {
		t.Fatalf("Status = %+v, %v; want a rollout to 1.1 active", st, err)
	}
	if st, err = cl.Pause(ctx); err != nil || !st.Paused {
		t.Fatalf("Pause = %+v, %v; want paused", st, err)
	}
	if st, err = cl.Resume(ctx); err != nil || st.Paused {
		t.Fatalf("Resume = %+v, %v; want unpaused", st, err)
	}
	if _, err = cl.Abort(ctx, "operator"); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if st := waitStatus(t, sup); st.Phase != PhaseAborted {
		t.Fatalf("terminal phase = %q (%+v), want %q", st.Phase, st, PhaseAborted)
	}

	srv := httptest.NewServer(sup.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/rollout?events=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view rolloutView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status.Target != "1.1" || view.Status.Phase != PhaseAborted {
		t.Errorf("dashboard status = %+v, want the rollout to 1.1 %s", view.Status, PhaseAborted)
	}
	if len(view.Fleet) != 3 {
		t.Errorf("dashboard fleet = %+v, want 3 rows", view.Fleet)
	}
	for _, row := range view.Fleet {
		if row.Version != "1" {
			t.Errorf("fleet row %+v, want version 1 after the abort", row)
		}
	}
	if len(view.Events) == 0 || view.HubSubs != 1 || view.HubDropped == 0 {
		t.Errorf("dashboard events %d, hub subscribers %d, dropped %d; want events, 1, > 0",
			len(view.Events), view.HubSubs, view.HubDropped)
	}
}
