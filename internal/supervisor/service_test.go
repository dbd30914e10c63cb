package supervisor

import (
	"testing"

	"godcdo/internal/rpc"
	"godcdo/internal/rpc/rpctest"
	"godcdo/internal/version"
)

// TestRolloutMethodContracts holds the rollout table to its declarations.
// Every refusal it checks happens before a handler runs, so no supervisor
// is needed behind the table.
func TestRolloutMethodContracts(t *testing.T) {
	none := rpc.None{}
	rpctest.CheckTable(t, NewService(nil), "rollout.", []rpctest.Row{
		rpctest.Declare(MethodRolloutStart, Policy{Name: "contract", Target: version.ID{1, 1}, CanarySize: 1}),
		rpctest.Declare(MethodRolloutStatus, none),
		rpctest.Declare(MethodRolloutPause, none),
		rpctest.Declare(MethodRolloutResume, none),
		rpctest.Declare(MethodRolloutAbort, AbortArgs{Reason: "contract"}),
	})
}
