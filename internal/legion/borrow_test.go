package legion

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// storeDCDO builds a DCDO whose one exported function, "store", saves its
// args in the object state under the key args[0] and returns them.
func storeDCDO(t *testing.T, loid naming.LOID) *core.DCDO {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register("store_c:1", registry.NativeImplType, map[string]registry.Func{
		"store": func(c registry.Caller, args []byte) ([]byte, error) {
			c.State().Set(string(args[:1]), args)
			return args, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	comp, err := component.NewSynthetic(component.Descriptor{
		ID: "store_c", Revision: 1, CodeRef: "store_c:1", Impl: registry.NativeImplType, CodeSize: 64,
		Functions: []component.FunctionDecl{{Name: "store", Exported: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	desc := dfm.NewDescriptor()
	desc.Components["store_c"] = dfm.ComponentRef{
		ICO: naming.LOID{Domain: 1, Class: 9, Instance: 1}, CodeRef: "store_c:1",
		Impl: registry.NativeImplType, CodeSize: 64, Revision: 1,
	}
	desc.Entries = append(desc.Entries, dfm.EntryDesc{Function: "store", Component: "store_c", Exported: true, Enabled: true})
	obj := core.New(core.Config{LOID: loid, Registry: reg,
		Fetcher: component.FetcherFunc(func(naming.LOID) (*component.Component, error) { return comp, nil })})
	if _, err := obj.ApplyDescriptor(context.Background(), desc, version.ID{1}); err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestBatchSubCallsBorrowArgsOverTCP pins the batch half of the ownership
// rule: a batch sub-call's args alias the inbound frame for the length of
// its dispatch, with no per-sub copy. Poison mode fills every released frame
// with wire.PoisonByte, so a server that released a frame while a sub-call
// still read it, or a handler path that kept args past return, shows up as a
// result or stored state that is not the caller's bytes. Run under -race by
// `make race`.
func TestBatchSubCallsBorrowArgsOverTCP(t *testing.T) {
	wire.SetPoisonChecks(true)
	defer wire.SetPoisonChecks(false)

	const (
		callers = 8
		batches = 200
		subs    = 16
		size    = 64
	)
	agent := naming.NewAgent(vclock.Real{})
	server, err := NewNode(NodeConfig{Name: "borrow-srv", Agent: agent, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	caller, err := NewNode(NodeConfig{Name: "borrow-cli", Agent: agent, TCPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()

	echo := naming.LOID{Domain: 4, Class: 1, Instance: 1}
	store := naming.LOID{Domain: 4, Class: 2, Instance: 1}
	reread := naming.LOID{Domain: 4, Class: 3, Instance: 1}
	dcdo := storeDCDO(t, store)
	for loid, obj := range map[naming.LOID]rpc.Object{
		echo:  rpc.ObjectFunc(func(_ string, args []byte) ([]byte, error) { return args, nil }),
		store: dcdo,
		// Yields mid-dispatch, then checks its args still hold what it first
		// read: the frame must outlive the whole sub-call, not just its start.
		reread: rpc.ObjectFunc(func(_ string, args []byte) ([]byte, error) {
			first := append([]byte(nil), args...)
			runtime.Gosched()
			if !bytes.Equal(first, args) {
				return nil, fmt.Errorf("args changed across a yield: % x -> % x", first, args)
			}
			return args, nil
		}),
	} {
		if _, err := server.HostObject(loid, obj); err != nil {
			t.Fatal(err)
		}
	}
	targets := [3]naming.LOID{echo, store, reread}
	methods := [3]string{"echo", "store", "reread"}

	poisonedBefore := wire.FramePoolStats().Poisoned
	lastStored := make([][]byte, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := caller.Client()
			b := client.NewBatch()
			args := make([][]byte, subs)
			for i := range args {
				args[i] = make([]byte, size)
			}
			var stored []byte // the args of the batch's last "store" sub-call
			for n := 0; n < batches; n++ {
				b.Reset()
				for i, a := range args {
					// Distinct per caller, batch and slot; a[0] is the
					// caller, the DCDO's state key.
					a[0] = byte(w)
					binary.LittleEndian.PutUint32(a[1:], uint32(n))
					a[5] = byte(i)
					for j := 6; j < size; j++ {
						a[j] = byte(w*31 + n*7 + i*3 + j)
					}
					b.Add(targets[i%3], methods[i%3], a)
					if targets[i%3] == store {
						stored = a
					}
				}
				for i, r := range b.Invoke(context.Background()) {
					if r.Err != nil {
						t.Errorf("caller %d batch %d sub %d: %v", w, n, i, r.Err)
						return
					}
					if !bytes.Equal(r.Payload, args[i]) {
						t.Errorf("caller %d batch %d sub %d: result % x, want % x", w, n, i, r.Payload, args[i])
						return
					}
				}
			}
			lastStored[w] = append([]byte(nil), stored...)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for w, want := range lastStored {
		got, ok := dcdo.State().Get(string([]byte{byte(w)}))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("caller %d stored state % x, want % x", w, got, want)
		}
	}
	if got := wire.FramePoolStats().Poisoned; got <= poisonedBefore {
		t.Fatalf("poison mode never quarantined a frame (%d -> %d): the check had no teeth", poisonedBefore, got)
	}
}
