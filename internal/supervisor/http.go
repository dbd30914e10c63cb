package supervisor

import (
	"encoding/json"
	"net/http"
	"strconv"

	"godcdo/internal/naming"
	"godcdo/internal/obs"
)

// rolloutView is the /debug/rollout JSON document: the rollout's status
// plus the fleet it is acting on, so one fetch shows both the decision and
// its effect.
type rolloutView struct {
	Status      Status        `json:"status"`
	Fleet       []fleetRow    `json:"fleet"`
	Quarantined []naming.LOID `json:"quarantined,omitempty"`
	Events      []obs.Event   `json:"events,omitempty"`
	HubDropped  uint64        `json:"hub_dropped,omitempty"`
	HubSubs     int           `json:"hub_subscribers,omitempty"`
}

// fleetRow is one managed instance in the dashboard.
type fleetRow struct {
	LOID    naming.LOID `json:"loid"`
	Version string      `json:"version"`
	Impl    string      `json:"impl"`
}

// view assembles the dashboard document. eventLimit bounds the embedded
// event tail (0 omits it).
func (s *Supervisor) view(eventLimit int) rolloutView {
	v := rolloutView{Status: s.Status(), Fleet: []fleetRow{}}
	for _, rec := range s.Mgr.Records() {
		v.Fleet = append(v.Fleet, fleetRow{LOID: rec.LOID, Version: rec.Version.String(), Impl: rec.Impl.String()})
	}
	v.Quarantined = s.Mgr.Quarantined()
	if eventLimit > 0 && s.Obs != nil {
		v.Events = s.Obs.GetEvents().Recent(eventLimit)
	}
	if s.Hub != nil {
		v.HubDropped = s.Hub.Dropped()
		v.HubSubs = s.Hub.Subscribers()
	}
	return v
}

// Handler serves the rollout dashboard:
//
//	/debug/rollout — status + fleet + quarantine (+ ?events=<n> tail)
//
// mounted by cmd/dcdo-node next to /debug/obs.
func (s *Supervisor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/rollout", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if q := r.URL.Query().Get("events"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n > 0 {
				limit = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.view(limit))
	})
	return mux
}
