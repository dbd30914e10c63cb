package supervisor

import (
	"godcdo/internal/legion"
	"godcdo/internal/rpc"
)

// Attach wires the supervisor into a legion node: the rollout service is
// hosted at rpc.RolloutLOID on the node's dispatcher (endpoint-addressed,
// like the health and obs services), the supervisor inherits the node's
// observability handle when it has none of its own, and the supervisor's
// hub (if any) starts streaming the node's event log. Call once, before
// the node takes traffic.
func (s *Supervisor) Attach(n *legion.Node) {
	if s.Obs == nil {
		s.Obs = n.Obs()
	}
	if s.Hub != nil && n.Obs() != nil {
		s.Hub.Bind(n.Obs().GetEvents())
	}
	n.HostInfraService(rpc.RolloutLOID, NewService(s))
}
