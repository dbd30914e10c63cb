package component

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"godcdo/internal/naming"
	"godcdo/internal/rpc"
	"godcdo/internal/wire"
)

// ReadArgs are MethodReadCode's arguments: the byte range to read.
type ReadArgs struct {
	Offset, Length uint64
}

// The ICO's exported interface (the implementation component object's
// reads, §2.3). All three only read, so all three are idempotent.
var (
	MethodGetDescriptor = rpc.Method[rpc.None, *Descriptor]{Name: "ico.getDescriptor", Idempotent: true,
		Args: rpc.NoneCodec, Result: rpc.Codec[*Descriptor]{Encode: (*Descriptor).Encode, Decode: DecodeDescriptor}}
	MethodGetCodeSize = rpc.Method[rpc.None, uint64]{Name: "ico.getCodeSize", Idempotent: true,
		Args: rpc.NoneCodec, Result: rpc.NewCodec((*wire.Encoder).PutUvarint, (*wire.Decoder).Uvarint)}
	// MethodReadCode returns the chunk unframed.
	MethodReadCode = rpc.Method[ReadArgs, []byte]{Name: "ico.readCode", Idempotent: true,
		Args: rpc.NewCodec(putReadArgs, getReadArgs), Result: rpc.RawCodec}
)

func putReadArgs(e *wire.Encoder, a ReadArgs) {
	e.PutUvarint(a.Offset)
	e.PutUvarint(a.Length)
}

func getReadArgs(d *wire.Decoder) (a ReadArgs, err error) {
	if a.Offset, err = d.Uvarint(); err != nil {
		return a, err
	}
	a.Length, err = d.Uvarint()
	return a, err
}

// ReadChunkSize is the maximum number of code bytes returned by one
// MethodReadCode call, mirroring Legion's chunked object-to-object bulk
// transfer (and driving the per-chunk costs in the simulated experiments).
const ReadChunkSize = 64 << 10

// ErrBadRange is returned for reads outside the component's code.
var ErrBadRange = errors.New("component: read out of range")

// ICO is an Implementation Component Object: an active distributed object
// that maintains a component's data so components live in the system's
// global namespace. Its embedded method table implements rpc.Object.
type ICO struct {
	rpc.Table

	mu   sync.RWMutex
	comp *Component
}

var _ rpc.Object = (*ICO)(nil)

// NewICO returns an ICO serving comp.
func NewICO(comp *Component) *ICO {
	o := &ICO{comp: comp}
	o.Table = rpc.Serve(
		MethodGetDescriptor.Handle(func(context.Context, rpc.None) (*Descriptor, error) {
			return &o.Component().Desc, nil
		}),
		MethodGetCodeSize.Handle(func(context.Context, rpc.None) (uint64, error) {
			return uint64(len(o.Component().Code)), nil
		}),
		MethodReadCode.Handle(func(_ context.Context, a ReadArgs) ([]byte, error) {
			code := o.Component().Code
			if a.Offset > uint64(len(code)) {
				return nil, fmt.Errorf("%w: offset %d beyond %d", ErrBadRange, a.Offset, len(code))
			}
			end := a.Offset + min(a.Length, ReadChunkSize)
			return code[a.Offset:min(end, uint64(len(code)))], nil
		}),
	)
	return o
}

// Component returns the served component (for in-process access).
func (o *ICO) Component() *Component {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.comp
}

// Update replaces the served component — publishing a new revision of the
// component under the same name.
func (o *ICO) Update(comp *Component) {
	o.mu.Lock()
	o.comp = comp
	o.mu.Unlock()
}

// Fetcher obtains components by the LOID of their ICO. The DCDO
// incorporation path is written against this interface so in-process tests,
// cached stores, and genuinely remote ICOs are interchangeable. Fetches may
// involve many round trips; ctx lets an evolution abandon a transfer when
// the caller's deadline expires.
type Fetcher interface {
	Fetch(ctx context.Context, ico naming.LOID) (*Component, error)
}

// RemoteFetcher downloads components from ICOs over RPC, chunk by chunk.
type RemoteFetcher struct {
	Client *rpc.Client
}

var _ Fetcher = (*RemoteFetcher)(nil)

// Fetch implements Fetcher.
func (f *RemoteFetcher) Fetch(ctx context.Context, ico naming.LOID) (*Component, error) {
	desc, err := MethodGetDescriptor.Call(ctx, f.Client, ico, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("fetch descriptor from %s: %w", ico, err)
	}
	size, err := MethodGetCodeSize.Call(ctx, f.Client, ico, rpc.None{})
	if err != nil {
		return nil, fmt.Errorf("fetch code size from %s: %w", ico, err)
	}

	code := make([]byte, 0, size)
	for offset := uint64(0); offset < size; {
		// Chunked transfers can run long; check between chunks so a spent
		// deadline aborts the download rather than issuing doomed calls.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("read code from %s at %d: %w", ico, offset, err)
		}
		chunk, err := MethodReadCode.Call(ctx, f.Client, ico, ReadArgs{Offset: offset, Length: ReadChunkSize})
		if err != nil {
			return nil, fmt.Errorf("read code from %s at %d: %w", ico, offset, err)
		}
		if len(chunk) == 0 {
			return nil, fmt.Errorf("read code from %s at %d: empty chunk before EOF", ico, offset)
		}
		code = append(code, chunk...)
		offset += uint64(len(chunk))
	}
	return &Component{Desc: *desc, Code: code}, nil
}

// Store is a local component cache (the host file-system cache the paper
// mentions: evolution costs ~200 µs per component "when the components are
// cached and available"). Safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	byICO map[naming.LOID]*Component
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byICO: make(map[naming.LOID]*Component)}
}

// Put caches comp under the ICO's LOID.
func (s *Store) Put(ico naming.LOID, comp *Component) {
	s.mu.Lock()
	s.byICO[ico] = comp
	s.mu.Unlock()
}

// Get returns the cached component, if present.
func (s *Store) Get(ico naming.LOID) (*Component, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.byICO[ico]
	return c, ok
}

// Drop removes a cached component.
func (s *Store) Drop(ico naming.LOID) {
	s.mu.Lock()
	delete(s.byICO, ico)
	s.mu.Unlock()
}

// Len reports the number of cached components.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byICO)
}

// CachingFetcher consults a Store before falling back to a backing fetcher,
// populating the store on miss.
type CachingFetcher struct {
	Store   *Store
	Backing Fetcher

	mu     sync.Mutex
	hits   uint64
	misses uint64
}

var _ Fetcher = (*CachingFetcher)(nil)

// Fetch implements Fetcher.
func (f *CachingFetcher) Fetch(ctx context.Context, ico naming.LOID) (*Component, error) {
	if c, ok := f.Store.Get(ico); ok {
		f.mu.Lock()
		f.hits++
		f.mu.Unlock()
		return c, nil
	}
	f.mu.Lock()
	f.misses++
	f.mu.Unlock()
	c, err := f.Backing.Fetch(ctx, ico)
	if err != nil {
		return nil, err
	}
	f.Store.Put(ico, c)
	return c, nil
}

// Stats reports cache hits and misses.
func (f *CachingFetcher) Stats() (hits, misses uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits, f.misses
}

// FetcherFunc adapts a function to the Fetcher interface. The adapted
// function ignores ctx; use this for in-memory fetchers where cancellation
// has nothing to interrupt.
type FetcherFunc func(ico naming.LOID) (*Component, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(_ context.Context, ico naming.LOID) (*Component, error) {
	return f(ico)
}
