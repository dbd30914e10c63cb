package replica

import (
	"encoding/hex"
	"reflect"
	"testing"

	"godcdo/internal/naming"
	"godcdo/internal/objstate"
	"godcdo/internal/rpc"
	"godcdo/internal/rpc/rpctest"
	"godcdo/internal/wire"
)

// TestInfraPayloadBytes pins the wire bytes of the replication plane and
// the replica-host service, captured from the hand-written encoders their
// declarations replaced: a group member built before them must still
// understand every payload.
func TestInfraPayloadBytes(t *testing.T) {
	status := Status{Role: RolePrimary, Epoch: 3, Seq: 9, VersionSegs: []uint64{1, 1}, AckSeq: 8}
	st := objstate.New()
	st.Set("k", []byte{1})
	shipped, _, _ := appendShipment(nil, st, 2, 9, 8, 0)
	for _, row := range []struct {
		name string
		got  []byte
		want string
	}{
		{"repl.ship frame", shipmentFrame(2, 9, 8, []byte{1, 2, 3}), "02090803010203"},
		{"repl.ship frame of a state delta", shipped, "02090807010001016b0101"},
		{"repl.ship result, took the shipment", MethodShip.Result.Encode(ShipAck{Took: true}), ""},
		{"repl.ship result, holds another sequence", MethodShip.Result.Encode(ShipAck{Held: 9}), "09"},
		{"repl.promote args", MethodPromote.Args.Encode(PromoteArgs{Epoch: 3, Backups: []string{"inproc:b1", "inproc:b2"}}),
			"030209696e70726f633a623109696e70726f633a6232"},
		{"repl.demote args", MethodDemote.Args.Encode(3), "03"},
		{"repl.syncto args", MethodSyncTo.Args.Encode("inproc:b2"), "09696e70726f633a6232"},
		{"repl.status result", MethodStatus.Result.Encode(status), "077072696d617279030902010108"},
		{"repl.read args", MethodRead.Args.Encode(rpc.ReadArgs{Method: "get", Args: []byte{1, 'k'}}), "0367657402016b"},
		{"replhost.add args", MethodHostAdd.Args.Encode(HostAddArgs{LOID: naming.LOID{Domain: 1, Class: 2, Instance: 3}, Epoch: 4}),
			"0a6c6f69643a312e322e3304"},
	} {
		if got := hex.EncodeToString(row.got); got != row.want {
			t.Errorf("%s = %s, want %s", row.name, got, row.want)
		}
	}

	frame, _ := hex.DecodeString("02090803010203")
	if s, err := decodeShipment(frame); err != nil || !reflect.DeepEqual(s, shipment{epoch: 2, seq: 9, base: 8, delta: []byte{1, 2, 3}}) {
		t.Errorf("decodeShipment = %+v, %v", s, err)
	}
	// Each ack form decodes to itself: an empty payload is a shipment
	// taken, a uvarint the sequence held, whatever it is.
	for _, ack := range []ShipAck{{Took: true}, {Held: 9}, {Held: 0}} {
		if got, err := MethodShip.Result.Decode(MethodShip.Result.Encode(ack)); err != nil || got != ack {
			t.Errorf("repl.ship result %+v decodes to %+v, %v", ack, got, err)
		}
	}
	// A member that predates AckSeq stops before it.
	old, _ := hex.DecodeString("077072696d6172790309020101")
	status.AckSeq = 0
	if got, err := MethodStatus.Result.Decode(old); err != nil || !reflect.DeepEqual(got, status) {
		t.Errorf("status without AckSeq = %+v, %v; want %+v", got, err, status)
	}
}

// shipmentFrame builds a MethodShip frame around an arbitrary delta, which
// appendShipment (taking the delta from a State) cannot: the golden bytes
// and the corrupt-delta cases need one.
func shipmentFrame(epoch, seq, base uint64, delta []byte) []byte {
	e := wire.EncoderOn(nil)
	e.PutUvarint(epoch)
	e.PutUvarint(seq)
	e.PutUvarint(base)
	e.PutBytes(delta)
	return e.Bytes()
}

// TestReplMethodContracts holds the replication plane and the replica-host
// table to their declarations.
func TestReplMethodContracts(t *testing.T) {
	none := rpc.None{}
	r := New(naming.LOID{Domain: 1, Class: 1, Instance: 1}, newFakeInner(1), nil, RoleBackup, 1, nil)
	rpctest.CheckTable(t, r.repl, ReplPrefix, []rpctest.Row{
		rpctest.Declare(MethodShip, shipmentFrame(1, 1, 0, nil)),
		rpctest.Declare(MethodPromote, PromoteArgs{Epoch: 2, Backups: []string{"inproc:b"}}),
		rpctest.Declare(MethodDemote, 2),
		rpctest.Declare(MethodStatus, none),
		rpctest.Declare(MethodSyncTo, "inproc:b"),
		rpctest.Declare(MethodRead, rpc.ReadArgs{Method: "get"}),
	})
	hs := &HostService{}
	rpctest.CheckTable(t, hs.methods(), "replhost.", []rpctest.Row{
		rpctest.Declare(MethodHostAdd, HostAddArgs{LOID: naming.LOID{Instance: 1}, Epoch: 1}),
	})
}
