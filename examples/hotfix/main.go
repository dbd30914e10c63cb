// Command hotfix upgrades a live service over real TCP while clients hammer
// it: a pricing DCDO is evolved from v1 (flat pricing) to v1.1 (bulk
// discount) mid-traffic, with zero downtime. It then prints what the same
// change costs with the traditional mechanism — replacing the monolithic
// executable — using the paper's Centurion cost model.
package main

import (
	"context"

	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"godcdo/dcdo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// price is the service's one dynamic function: a quantity in, the total
// out.
var price = dcdo.DeclareFunction("price", false, dcdo.UvarintCodec, dcdo.UvarintCodec)

// priceV1 charges 100 per unit, flat.
var priceV1 = price.Func(func(_ dcdo.Caller, qty uint64) (uint64, error) {
	return qty * 100, nil
})

// priceV2 gives 20% off above 10 units — the hotfix.
var priceV2 = price.Func(func(_ dcdo.Caller, qty uint64) (uint64, error) {
	total := qty * 100
	if qty > 10 {
		total = total * 80 / 100
	}
	return total, nil
})

func run() error {
	// --- Build the object type: two pricing components. ---
	reg := dcdo.NewRegistry()
	if _, err := reg.Register("pricing-v1:1", dcdo.NativeImplType,
		map[string]dcdo.Func{price.Name: priceV1}); err != nil {
		return err
	}
	if _, err := reg.Register("pricing-v2:1", dcdo.NativeImplType,
		map[string]dcdo.Func{price.Name: priceV2}); err != nil {
		return err
	}
	icoAlloc := dcdo.NewAllocator(1, 9)
	icoV1, icoV2 := icoAlloc.Next(), icoAlloc.Next()
	comps := map[dcdo.LOID]*dcdo.Component{}
	for _, c := range []struct {
		ico     dcdo.LOID
		id, ref string
	}{{icoV1, "pricing-v1", "pricing-v1:1"}, {icoV2, "pricing-v2", "pricing-v2:1"}} {
		comp, err := dcdo.NewSyntheticComponent(dcdo.ComponentDescriptor{
			ID: c.id, Revision: 1, CodeRef: c.ref,
			Impl: dcdo.NativeImplType, CodeSize: 550 << 10,
			Functions: []dcdo.FunctionDecl{{Name: price.Name, Exported: true}},
		})
		if err != nil {
			return err
		}
		comps[c.ico] = comp
	}
	fetcher := dcdo.FetcherFunc(func(ico dcdo.LOID) (*dcdo.Component, error) {
		c, ok := comps[ico]
		if !ok {
			return nil, fmt.Errorf("no component at %s", ico)
		}
		return c, nil
	})

	// --- Serve the DCDO on a real TCP node. ---
	agent := dcdo.NewBindingAgent()
	server, err := dcdo.NewNode(dcdo.NodeConfig{Name: "pricing-server", Agent: agent})
	if err != nil {
		return err
	}
	defer server.Close()
	clientNode, err := dcdo.NewNode(dcdo.NodeConfig{Name: "storefront", Agent: agent})
	if err != nil {
		return err
	}
	defer clientNode.Close()

	obj := dcdo.New(dcdo.Config{
		LOID:     dcdo.NewAllocator(1, 1).Next(),
		Registry: reg,
		Fetcher:  fetcher,
	})
	v1Desc := dcdo.NewDescriptor()
	v1Desc.Components["pricing-v1"] = dcdo.ComponentRef{
		ICO: icoV1, CodeRef: "pricing-v1:1", Impl: dcdo.NativeImplType, CodeSize: 550 << 10, Revision: 1,
	}
	v1Desc.Entries = []dcdo.EntryDesc{
		{Function: price.Name, Component: "pricing-v1", Exported: true, Enabled: true},
	}
	if _, err := obj.ApplyDescriptor(context.Background(), v1Desc, dcdo.RootVersion); err != nil {
		return err
	}
	if _, err := server.HostObject(obj.LOID(), obj); err != nil {
		return err
	}
	fmt.Printf("pricing service %s live at %s, version %s\n", obj.LOID(), server.Endpoint(), obj.Version())

	// --- Clients hammer the service over TCP while we upgrade. ---
	var (
		stop     = make(chan struct{})
		done     sync.WaitGroup
		requests atomic.Uint64
		failures atomic.Uint64
		flatSeen atomic.Uint64
		discSeen atomic.Uint64
	)
	const qty = 20 // 20 units: 2000 flat, 1600 discounted
	for w := 0; w < 4; w++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				total, err := price.Call(context.Background(), clientNode.Client(), obj.LOID(), qty)
				requests.Add(1)
				if err != nil {
					if errors.Is(err, dcdo.ErrFunctionDisabled) {
						continue // transient mid-swap; retry per §3.2
					}
					failures.Add(1)
					continue
				}
				switch total {
				case 2000:
					flatSeen.Add(1)
				case 1600:
					discSeen.Add(1)
				default:
					failures.Add(1)
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // let traffic build

	// --- The hotfix: evolve to v1.1 while traffic flows. ---
	v11Desc := v1Desc.Clone()
	v11Desc.Components["pricing-v2"] = dcdo.ComponentRef{
		ICO: icoV2, CodeRef: "pricing-v2:1", Impl: dcdo.NativeImplType, CodeSize: 550 << 10, Revision: 1,
	}
	v11Desc.Entry(dcdo.EntryKey{Function: price.Name, Component: "pricing-v1"}).Enabled = false
	v11Desc.Entries = append(v11Desc.Entries, dcdo.EntryDesc{
		Function: price.Name, Component: "pricing-v2", Exported: true, Enabled: true,
	})
	upgradeStart := time.Now()
	report, err := obj.ApplyDescriptor(context.Background(), v11Desc, dcdo.VersionID{1, 1})
	if err != nil {
		return err
	}
	upgradeTook := time.Since(upgradeStart)

	time.Sleep(150 * time.Millisecond) // observe post-upgrade traffic
	close(stop)
	done.Wait()

	fmt.Printf("hot upgrade to %s took %v (components added: %d, bytes fetched: %d)\n",
		obj.Version(), upgradeTook, report.ComponentsAdded, report.BytesFetched)
	fmt.Printf("traffic during upgrade: %d requests, %d hard failures\n",
		requests.Load(), failures.Load())
	fmt.Printf("responses observed: %d flat-priced (v1), %d discounted (v1.1)\n",
		flatSeen.Load(), discSeen.Load())
	if failures.Load() > 0 {
		return errors.New("hot upgrade dropped requests")
	}

	// --- What the traditional mechanism would have cost. ---
	model := dcdo.CenturionModel()
	download := model.TransferTime(550 << 10)
	spawn := model.ProcessSpawn
	var sched dcdo.DiscoverySchedule
	sched.Timeout, sched.Attempts, sched.Backoff = 10*time.Second, 3, time.Second
	rebind := sched.TotalDiscoveryTime()
	fmt.Println()
	fmt.Println("the same change by replacing the monolithic executable (Centurion model):")
	fmt.Printf("  download new 550KB executable: %v\n", download)
	fmt.Printf("  create new process:            %v\n", spawn)
	fmt.Printf("  clients discover stale binding: %v\n", rebind)
	fmt.Printf("  total service disruption:      %v  (vs %v hot)\n",
		download+spawn+rebind, upgradeTook)
	return nil
}
