package component

import (
	"context"

	"bytes"
	"errors"
	"testing"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/wire"
)

func syntheticComponent(t *testing.T, id string, size int64) *Component {
	t.Helper()
	c, err := NewSynthetic(Descriptor{
		ID: id, Revision: 1, CodeRef: id + ":1",
		Impl: registry.NativeImplType, CodeSize: size,
		Functions: []FunctionDecl{{Name: "f", Exported: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestICODescriptorAndSize(t *testing.T) {
	comp := syntheticComponent(t, "c1", 300)
	ico := NewICO(comp)

	descBytes, err := ico.InvokeMethod(MethodGetDescriptor.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := DecodeDescriptor(descBytes)
	if err != nil {
		t.Fatal(err)
	}
	if desc.ID != "c1" || desc.CodeSize != 300 {
		t.Fatalf("descriptor = %+v", desc)
	}

	sizeBytes, err := ico.InvokeMethod(MethodGetCodeSize.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	size, err := wire.NewDecoder(sizeBytes).Uvarint()
	if err != nil || size != 300 {
		t.Fatalf("size = %d, %v", size, err)
	}
}

func TestICOReadCodeChunked(t *testing.T) {
	comp := syntheticComponent(t, "c2", ReadChunkSize+100)
	ico := NewICO(comp)

	read := func(offset, length uint64) ([]byte, error) {
		e := wire.NewEncoder(16)
		e.PutUvarint(offset)
		e.PutUvarint(length)
		return ico.InvokeMethod(MethodReadCode.Name, e.Bytes())
	}

	chunk1, err := read(0, ReadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk1) != ReadChunkSize {
		t.Fatalf("chunk1 len = %d", len(chunk1))
	}
	chunk2, err := read(ReadChunkSize, ReadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk2) != 100 {
		t.Fatalf("chunk2 len = %d", len(chunk2))
	}
	if !bytes.Equal(append(chunk1, chunk2...), comp.Code) {
		t.Fatal("reassembled code differs")
	}

	// Oversized length requests are clamped to the chunk size.
	big, err := read(0, 10*ReadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != ReadChunkSize {
		t.Fatalf("clamped read len = %d, want %d", len(big), ReadChunkSize)
	}

	if _, err := read(uint64(len(comp.Code))+1, 10); !errors.Is(err, ErrBadRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestICOUnknownMethod(t *testing.T) {
	ico := NewICO(syntheticComponent(t, "c3", 10))
	if _, err := ico.InvokeMethod("bogus", nil); !errors.Is(err, rpc.ErrNoSuchFunction) {
		t.Fatalf("err = %v, want ErrNoSuchFunction", err)
	}
}

func TestICOBadReadArgs(t *testing.T) {
	ico := NewICO(syntheticComponent(t, "c4", 10))
	if _, err := ico.InvokeMethod(MethodReadCode.Name, nil); !errors.Is(err, rpc.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

func TestICOUpdatePublishesNewRevision(t *testing.T) {
	ico := NewICO(syntheticComponent(t, "c5", 10))
	newComp := syntheticComponent(t, "c5", 20)
	newComp.Desc.Revision = 2
	ico.Update(newComp)
	descBytes, err := ico.InvokeMethod(MethodGetDescriptor.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := DecodeDescriptor(descBytes)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Revision != 2 || desc.CodeSize != 20 {
		t.Fatalf("descriptor after update = %+v", desc)
	}
	if ico.Component() != newComp {
		t.Fatal("Component() did not return updated component")
	}
}

// remoteEnv hosts an ICO behind the RPC layer over the in-process transport.
func remoteEnv(t *testing.T, comp *Component) (*rpc.Client, naming.LOID) {
	t.Helper()
	clk := vclock.Real{}
	agent := naming.NewAgent(clk)
	cache := naming.NewCache(agent, clk, 0)
	net := transport.NewInprocNetwork()
	disp := rpc.NewDispatcher()
	srv, err := net.Listen("ico-host", disp)
	if err != nil {
		t.Fatal(err)
	}
	loid := naming.LOID{Domain: 1, Class: 7, Instance: 1}
	disp.Host(loid, NewICO(comp))
	agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})
	return rpc.NewClient(cache, net.Dialer()), loid
}

func TestRemoteFetcherRoundTrip(t *testing.T) {
	comp := syntheticComponent(t, "remote", 3*ReadChunkSize/2)
	client, loid := remoteEnv(t, comp)
	f := &RemoteFetcher{Client: client}
	got, err := f.Fetch(context.Background(), loid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Desc.ID != "remote" {
		t.Fatalf("descriptor = %+v", got.Desc)
	}
	if !bytes.Equal(got.Code, comp.Code) {
		t.Fatal("downloaded code differs from source")
	}
}

func TestRemoteFetcherZeroSizeCode(t *testing.T) {
	comp := syntheticComponent(t, "tiny", 0)
	client, loid := remoteEnv(t, comp)
	f := &RemoteFetcher{Client: client}
	got, err := f.Fetch(context.Background(), loid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Code) != 0 {
		t.Fatalf("code len = %d, want 0", len(got.Code))
	}
}

func TestRemoteFetcherUnboundICO(t *testing.T) {
	client, _ := remoteEnv(t, syntheticComponent(t, "x", 1))
	f := &RemoteFetcher{Client: client}
	if _, err := f.Fetch(context.Background(), naming.LOID{Instance: 999}); err == nil {
		t.Fatal("expected error fetching unbound ICO")
	}
}

func TestStoreAndCachingFetcher(t *testing.T) {
	comp := syntheticComponent(t, "cached", 64)
	loid := naming.LOID{Instance: 11}

	fetches := 0
	backing := FetcherFunc(func(ico naming.LOID) (*Component, error) {
		fetches++
		if ico != loid {
			return nil, errors.New("unknown ico")
		}
		return comp, nil
	})
	store := NewStore()
	cf := &CachingFetcher{Store: store, Backing: backing}

	for i := 0; i < 3; i++ {
		got, err := cf.Fetch(context.Background(), loid)
		if err != nil {
			t.Fatal(err)
		}
		if got != comp {
			t.Fatal("wrong component")
		}
	}
	if fetches != 1 {
		t.Fatalf("backing fetched %d times, want 1", fetches)
	}
	hits, misses := cf.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
	if store.Len() != 1 {
		t.Fatalf("store len = %d", store.Len())
	}
	store.Drop(loid)
	if _, ok := store.Get(loid); ok {
		t.Fatal("Drop did not remove component")
	}
}

func TestCachingFetcherPropagatesErrors(t *testing.T) {
	wantErr := errors.New("backing down")
	cf := &CachingFetcher{
		Store:   NewStore(),
		Backing: FetcherFunc(func(naming.LOID) (*Component, error) { return nil, wantErr }),
	}
	if _, err := cf.Fetch(context.Background(), naming.LOID{Instance: 1}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if cf.Store.Len() != 0 {
		t.Fatal("error result was cached")
	}
}

// TestLossyFetchCompletes fetches an 8-chunk component while a quarter of
// all responses are lost. Every ICO read is declared idempotent, so each lost
// response is retried instead of failing the fetch as ambiguous.
func TestLossyFetchCompletes(t *testing.T) {
	comp := syntheticComponent(t, "lossy", 8*ReadChunkSize)
	for seed := int64(1); seed <= 20; seed++ {
		clk := vclock.Real{}
		agent := naming.NewAgent(clk)
		net := transport.NewInprocNetwork()
		disp := rpc.NewDispatcher()
		srv, err := net.Listen("ico-host", disp)
		if err != nil {
			t.Fatal(err)
		}
		loid := naming.LOID{Domain: 1, Class: 7, Instance: 1}
		disp.Host(loid, NewICO(comp))
		agent.Register(loid, naming.Address{Endpoint: srv.Endpoint()})

		faults := transport.NewFaults(seed)
		faults.SetDefault(transport.FaultConfig{DropResponse: 0.25})
		client := rpc.NewClient(naming.NewCache(agent, clk, 0), transport.NewFaultDialer(net.Dialer(), faults))
		client.Retry = rpc.RetryPolicy{
			CallTimeout: 5 * time.Millisecond,
			MaxAttempts: 8,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Multiplier:  2,
		}
		got, err := (&RemoteFetcher{Client: client}).Fetch(context.Background(), loid)
		srv.Close()
		switch {
		case err != nil:
			t.Errorf("seed %d: %v (%d responses dropped)", seed, err, faults.Stats().DroppedResponses)
		case !bytes.Equal(got.Code, comp.Code):
			t.Errorf("seed %d: fetched code differs from the source", seed)
		}
	}
}
