package rpc

import (
	"encoding/hex"
	"reflect"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
)

// TestInfraPayloadBytes pins the wire bytes of the binding agent's methods
// and the repl.read wrapper, captured from the hand-written encoders their
// declarations replaced: an agent or replica built before them must still
// understand every payload.
func TestInfraPayloadBytes(t *testing.T) {
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	pol := policy.DistributionPolicy{Degree: 3, ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual}
	set := naming.ReplicaSet{Primary: "tcp:10.0.0.1:7000", Backups: []string{"tcp:10.0.0.2:7000", "tcp:10.0.0.3:7000"}, Generation: 5}
	binding := naming.Binding{Address: naming.Address{Endpoint: set.Primary, Incarnation: 5}, Set: set, Policy: &pol}
	const (
		loidHex    = "0a6c6f69643a312e322e33"
		addressHex = "117463703a31302e302e302e313a37303030" + "05"
		setExtHex  = "05" + "02117463703a31302e302e302e323a37303030117463703a31302e302e302e333a37303030"
		policyHex  = "170203096261636b75702d6f6b086576656e7475616c0000"
	)
	for _, row := range []struct {
		name string
		got  []byte
		want string
	}{
		{"agent.lookup args", MethodAgentLookup.Args.Encode(loid), loidHex},
		{"agent.lookup result", MethodAgentLookup.Result.Encode(binding), addressHex + setExtHex + "01" + policyHex},
		{"agent.register args", MethodAgentRegister.Args.Encode(AgentRegisterArgs{LOID: loid,
			Address: naming.Address{Endpoint: set.Primary, Incarnation: 4}}), loidHex + "117463703a31302e302e302e313a37303030" + "04"},
		{"agent.register result", MethodAgentRegister.Result.Encode(4), "04"},
		{"agent.deregister args", MethodAgentDeregister.Args.Encode(loid), loidHex},
		{"agent.registerSet args", MethodAgentRegisterSet.Args.Encode(AgentSetArgs{LOID: loid, Set: set}),
			loidHex + "117463703a31302e302e302e313a37303030" + setExtHex},
		{"agent.registerSet result", MethodAgentRegisterSet.Result.Encode(6), "06"},
		{"agent.setPolicy args", MethodAgentSetPolicy.Args.Encode(AgentPolicyArgs{LOID: loid, Policy: pol}), loidHex + policyHex},
		{"repl.read args", ReadArgsCodec.Encode(ReadArgs{Method: "get", Args: []byte{1, 'k'}}), "0367657402016b"},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
	}

	// A lookup reply from an agent that predates an extension resolves to
	// what it does carry.
	for _, cut := range []struct {
		name string
		hex  string
		want naming.Binding
	}{
		{"before the replica set", addressHex, naming.Binding{Address: binding.Address}},
		{"before the policy", addressHex + setExtHex, naming.Binding{Address: binding.Address, Set: set}},
		{"nowhere", addressHex + setExtHex + "01" + policyHex, binding},
	} {
		raw, _ := hex.DecodeString(cut.hex)
		got, err := MethodAgentLookup.Result.Decode(raw)
		if err != nil || !reflect.DeepEqual(got, cut.want) {
			t.Errorf("lookup reply cut %s = %+v, %v; want %+v", cut.name, got, err, cut.want)
		}
	}
}
