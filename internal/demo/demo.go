// Package demo assembles the demo deployment dcdo-node serves and tests
// drive: a pricing DCDO (flat v1, bulk-discount v1.1), the ICOs holding its
// two component revisions, and a proactive manager with both versions
// instantiable. The manager runs the multi-version increasing style so a
// rollout supervisor can canary 1.1 beside instances still on 1
// (single-version would deny any instance leaving the designated version).
package demo

import (
	"context"

	"godcdo/internal/component"
	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/rpc"
	"godcdo/internal/version"
)

// Well-known LOIDs of the demo deployment (domain 0 is infrastructure).
var (
	// ManagerLOID names the demo DCDO Manager.
	ManagerLOID = naming.LOID{Domain: 0, Class: 2, Instance: 1}
	// PricingLOID names the demo pricing DCDO.
	PricingLOID = naming.LOID{Domain: 1, Class: 1, Instance: 1}
	// ICOV1LOID and ICOV2LOID name the ICOs holding the two pricing
	// component revisions.
	ICOV1LOID = naming.LOID{Domain: 1, Class: 9, Instance: 1}
	ICOV2LOID = naming.LOID{Domain: 1, Class: 9, Instance: 2}
)

// Deployment holds the assembled demo objects.
type Deployment struct {
	Manager *manager.Manager
	Pricing *core.DCDO
}

// Install publishes the demo deployment on node: both ICOs, the pricing
// DCDO at version 1, and the manager (with version 1.1 instantiable, ready
// to activate).
func Install(node *legion.Node) (*Deployment, error) {
	reg := registry.New()
	if _, err := reg.Register("pricing-v1:1", registry.NativeImplType, map[string]registry.Func{
		Price.Name: PriceFunc(100, 0),
	}); err != nil {
		return nil, err
	}
	if _, err := reg.Register("pricing-v2:1", registry.NativeImplType, map[string]registry.Func{
		Price.Name: PriceFunc(100, 20),
	}); err != nil {
		return nil, err
	}

	mkComp := func(id, ref string) (*component.Component, error) {
		return component.NewSynthetic(component.Descriptor{
			ID: id, Revision: 1, CodeRef: ref,
			Impl: registry.NativeImplType, CodeSize: 550 << 10,
			Functions: []component.FunctionDecl{{Name: Price.Name, Exported: true}},
		})
	}
	compV1, err := mkComp("pricing-v1", "pricing-v1:1")
	if err != nil {
		return nil, err
	}
	compV2, err := mkComp("pricing-v2", "pricing-v2:1")
	if err != nil {
		return nil, err
	}
	if _, err := node.HostObject(ICOV1LOID, component.NewICO(compV1)); err != nil {
		return nil, err
	}
	if _, err := node.HostObject(ICOV2LOID, component.NewICO(compV2)); err != nil {
		return nil, err
	}

	fetcher := &component.CachingFetcher{
		Store:   component.NewStore(),
		Backing: &component.RemoteFetcher{Client: node.Client()},
	}
	obj := core.New(core.Config{
		LOID:     PricingLOID,
		Registry: reg,
		Fetcher:  fetcher,
	})

	mgr := manager.New(evolution.MultiIncreasing, evolution.Proactive)
	// Wire observability before any configuration so instance creation and
	// version designation are captured too (HostObject would only wire from
	// hosting time onward).
	if o := node.Obs(); o != nil {
		obj.SetObs(o)
		mgr.SetObs(o)
	}
	root, err := mgr.Store().Author(nil, func(d *dfm.Descriptor) error {
		d.Components["pricing-v1"] = dfm.ComponentRef{
			ICO: ICOV1LOID, CodeRef: "pricing-v1:1", Impl: registry.NativeImplType,
			CodeSize: 550 << 10, Revision: 1,
		}
		d.Entries = []dfm.EntryDesc{
			{Function: Price.Name, Component: "pricing-v1", Exported: true, Enabled: true},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := mgr.SetCurrentVersion(context.Background(), root); err != nil {
		return nil, err
	}

	_, err = mgr.Store().Author(root, func(d *dfm.Descriptor) error {
		d.Components["pricing-v2"] = dfm.ComponentRef{
			ICO: ICOV2LOID, CodeRef: "pricing-v2:1", Impl: registry.NativeImplType,
			CodeSize: 550 << 10, Revision: 1,
		}
		d.Entry(dfm.EntryKey{Function: Price.Name, Component: "pricing-v1"}).Enabled = false
		d.Entries = append(d.Entries, dfm.EntryDesc{
			Function: Price.Name, Component: "pricing-v2", Exported: true, Enabled: true,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := mgr.CreateInstance(context.Background(), manager.LocalInstance{Obj: obj}, version.ID{1}, registry.NativeImplType); err != nil {
		return nil, err
	}
	if _, err := node.HostObject(PricingLOID, obj); err != nil {
		return nil, err
	}
	if _, err := node.HostObject(ManagerLOID, &manager.Object{Mgr: mgr}); err != nil {
		return nil, err
	}
	return &Deployment{Manager: mgr, Pricing: obj}, nil
}

// Price is the pricing DCDO's dynamic function: the quantity in, the total
// out, each a uvarint.
var Price = rpc.Function[uint64, uint64]{Name: "price", Args: rpc.UvarintCodec, Result: rpc.UvarintCodec}

// PriceFunc builds a Price implementation charging unitPrice per unit with
// discountPct off above 10 units.
func PriceFunc(unitPrice, discountPct uint64) registry.Func {
	return Price.Func(func(_ registry.Caller, qty uint64) (uint64, error) {
		total := qty * unitPrice
		if qty > 10 && discountPct > 0 {
			total = total * (100 - discountPct) / 100
		}
		return total, nil
	})
}
