// Command sortdep reproduces the paper's sort()/compare() scenario (§3.2):
// sort delegates comparisons to the dynamic function compare; replacing
// compare's implementation silently reverses sort's output, and a Type B
// behavioural dependency is the tool that prevents exactly that.
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"

	"godcdo/dcdo"
	"godcdo/internal/rpc"
	"godcdo/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// pair is compare's argument.
type pair struct{ a, b int64 }

// The object's dynamic functions: sort orders a list of integers, and
// compare answers -1, 0 or 1 for a pair.
var (
	sortFn = dcdo.DeclareFunction("sort", false, ints, ints)
	cmpFn  = dcdo.DeclareFunction("compare", false,
		rpc.NewCodec(func(e *wire.Encoder, p pair) {
			e.PutVarint(p.a)
			e.PutVarint(p.b)
		}, func(d *wire.Decoder) (p pair, err error) {
			if p.a, err = d.Varint(); err == nil {
				p.b, err = d.Varint()
			}
			return p, err
		}),
		rpc.NewCodec((*wire.Encoder).PutVarint, (*wire.Decoder).Varint))
)

// ints carries a list of integers: a uvarint count, then each as a varint.
var ints = rpc.NewCodec(func(e *wire.Encoder, vals []int64) {
	e.PutUvarint(uint64(len(vals)))
	for _, v := range vals {
		e.PutVarint(v)
	}
}, func(d *wire.Decoder) ([]int64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, min(n, uint64(d.Remaining())))
	for i := uint64(0); i < n; i++ {
		v, err := d.Varint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
})

// sortImpl sorts its payload, delegating every comparison to the dynamic
// function compare through the DFM.
var sortImpl = sortFn.Func(func(c dcdo.Caller, vals []int64) ([]int64, error) {
	var callErr error
	sort.SliceStable(vals, func(i, j int) bool {
		if callErr != nil {
			return false
		}
		cmp, err := cmpFn.CallInternal(c, pair{vals[i], vals[j]})
		if err != nil {
			callErr = err
			return false
		}
		return cmp < 0
	})
	return vals, callErr
})

func compareImpl(descending bool) dcdo.Func {
	return cmpFn.Func(func(_ dcdo.Caller, p pair) (int64, error) {
		cmp := int64(0)
		switch {
		case p.a < p.b:
			cmp = -1
		case p.a > p.b:
			cmp = 1
		}
		if descending {
			cmp = -cmp
		}
		return cmp, nil
	})
}

func run() error {
	reg := dcdo.NewRegistry()
	if _, err := reg.Register("mathlib:1", dcdo.NativeImplType, map[string]dcdo.Func{
		sortFn.Name: sortImpl,
		cmpFn.Name:  compareImpl(false),
	}); err != nil {
		return err
	}
	if _, err := reg.Register("revlib:1", dcdo.NativeImplType, map[string]dcdo.Func{
		cmpFn.Name: compareImpl(true),
	}); err != nil {
		return err
	}

	icoAlloc := dcdo.NewAllocator(1, 9)
	icoMath, icoRev := icoAlloc.Next(), icoAlloc.Next()
	mathComp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
		ID: "mathlib", Revision: 1, CodeRef: "mathlib:1",
		Impl: dcdo.NativeImplType, CodeSize: 8 << 10,
		Functions: []dcdo.FunctionDecl{
			{Name: sortFn.Name, Exported: true, Calls: []string{cmpFn.Name}},
			{Name: cmpFn.Name},
		},
	})
	if err != nil {
		return err
	}
	revComp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
		ID: "revlib", Revision: 1, CodeRef: "revlib:1",
		Impl: dcdo.NativeImplType, CodeSize: 2 << 10,
		Functions: []dcdo.FunctionDecl{{Name: cmpFn.Name}},
	})
	if err != nil {
		return err
	}
	byICO := map[dcdo.LOID]*dcdo.Component{icoMath: mathComp, icoRev: revComp}
	fetcher := dcdo.FetcherFunc(func(ico dcdo.LOID) (*dcdo.Component, error) {
		c, ok := byICO[ico]
		if !ok {
			return nil, fmt.Errorf("no component at %s", ico)
		}
		return c, nil
	})

	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	if err := obj.IncorporateComponent(mathComp, icoMath, true); err != nil {
		return err
	}
	if err := obj.IncorporateComponent(revComp, icoRev, false); err != nil {
		return err
	}

	input := []int64{5, 1, 4, 2, 3}
	show := func(label string) error {
		out, err := obj.InvokeMethod(sortFn.Name, sortFn.Args.Encode(input))
		if err != nil {
			return err
		}
		vals, err := sortFn.Result.Decode(out)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s sort(%v) = %v\n", label, input, vals)
		return nil
	}

	if err := show("ascending compare (mathlib):"); err != nil {
		return err
	}

	// Swap compare's implementation: same signature, reversed behaviour.
	// No structural dependency is violated — but sort's output flips.
	mathCompare := dcdo.EntryKey{Function: cmpFn.Name, Component: "mathlib"}
	revCompare := dcdo.EntryKey{Function: cmpFn.Name, Component: "revlib"}
	if err := obj.DisableFunction(mathCompare); err != nil {
		return err
	}
	if err := obj.EnableFunction(revCompare); err != nil {
		return err
	}
	if err := show("after silent swap (revlib):"); err != nil {
		return err
	}

	// Swap back, then declare what the provider of sort() wanted all
	// along: a Type B behavioural dependency pinning sort to mathlib's
	// compare.
	if err := obj.DisableFunction(revCompare); err != nil {
		return err
	}
	if err := obj.EnableFunction(mathCompare); err != nil {
		return err
	}
	dep := dcdo.Dependency{
		Kind: dcdo.DepB, FromFunc: sortFn.Name, FromComp: "mathlib",
		ToFunc: cmpFn.Name, ToComp: "mathlib",
	}
	if err := obj.AddDependency(dep); err != nil {
		return err
	}
	fmt.Printf("installed behavioural dependency        %s\n", dep)

	err = obj.DisableFunction(mathCompare)
	fmt.Printf("disable compare@mathlib now refused:    %v\n", err)
	if err == nil {
		return errors.New("dependency failed to protect sort")
	}

	// The protection is not permanent hardwiring: disable sort first and
	// the dependency's premise goes away.
	if err := obj.DisableFunction(dcdo.EntryKey{Function: sortFn.Name, Component: "mathlib"}); err != nil {
		return err
	}
	if err := obj.DisableFunction(mathCompare); err != nil {
		return err
	}
	fmt.Println("after disabling sort, compare can evolve freely again")
	return nil
}
