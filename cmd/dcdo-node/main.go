// Command dcdo-node runs one godcdo host over TCP: a binding-agent service
// (or a connection to a remote one), and — with -demo — a demo pricing DCDO
// plus the ICOs holding its components and a DCDO Manager, so dcdo-ctl can
// drive a live multi-process deployment.
//
// Usage:
//
//	dcdo-node -addr 127.0.0.1:7400 -demo          # agent + manager + demo object
//	dcdo-node -addr 127.0.0.1:7400 -demo -journal-dir /var/lib/dcdo  # crash-safe manager
//	dcdo-node -addr 127.0.0.1:7401 -agent tcp:127.0.0.1:7400
//	dcdo-node -addr 127.0.0.1:7400 -demo -journal-dir /var/a -mirror-to tcp:127.0.0.1:7401   # primary, journal shipped
//	dcdo-node -addr 127.0.0.1:7401 -demo -journal-dir /var/b -standby-for tcp:127.0.0.1:7400 # standby, takes over on death
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"godcdo/internal/demo"
	"godcdo/internal/legion"
	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/rpc"
	"godcdo/internal/supervisor"
	"godcdo/internal/transport"
	"godcdo/internal/vault"
	"godcdo/internal/vclock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcdo-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcdo-node", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7400", "TCP listen address")
	agentEndpoint := fs.String("agent", "", "endpoint of a remote binding agent (empty: serve one here)")
	demoFlag := fs.Bool("demo", false, "host the demo pricing DCDO, its ICOs, and a manager")
	name := fs.String("name", "node", "node display name")
	obsHTTP := fs.String("obs-http", "", "HTTP listen address for /debug/obs and /debug/rollout (empty: no HTTP endpoint)")
	journalDir := fs.String("journal-dir", "", "directory for the demo manager's durable evolution journal and store image (with -demo)")
	supervise := fs.Bool("supervise", false, "run a rollout supervisor over the demo manager (with -demo -journal-dir); resumes an interrupted rollout from the journal")
	policyDoc := fs.String("policy", "", `distribution-policy JSON for the demo DCDO, e.g. '{"degree":3,"read_preference":"backup-ok","consistency":"eventual"}' (with -demo)`)
	mirrorTo := fs.String("mirror-to", "", "deprecated alias: ship journal records to a standby manager endpoint (with -demo -journal-dir); prefer a -policy document plus -standby-for on the peer")
	standbyFor := fs.String("standby-for", "", "primary manager endpoint to stand by for (with -demo -journal-dir): receive its journal stream and take over when its health probes go dark")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent dispatches before requests queue (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue depth beyond max-inflight; excess requests are shed with OVERLOADED (with -max-inflight)")
	transportStripes := fs.Int("transport-stripes", 0, "TCP connections per endpoint in the dialer, spread round-robin (0 = 1)")
	transportWorkers := fs.Int("transport-workers", 0, "max concurrent TCP handler goroutines before read loops apply backpressure (0 = unlimited)")
	traceSample := fs.Float64("trace-sample", 1, "fraction of traces to keep (head sampling; 1 = keep all, 0.01 = 1%). Dropped traces still reach the flight recorder on error or slowness")
	obsSpans := fs.Int("obs-spans", 0, "span ring capacity (0 = default)")
	obsEvents := fs.Int("obs-events", 0, "event ring capacity (0 = default)")
	flightTraces := fs.Int("flight-traces", obs.DefaultFlightCapacity, "flight recorder capacity in retained traces (0 = disable the flight recorder)")
	flightThreshold := fs.Duration("flight-threshold", obs.DefaultFlightThreshold, "span latency above which a trace is retained in the flight recorder (negative: retain on errors only)")
	pprofFlag := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the obs HTTP endpoint (with -obs-http)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag combinations that would otherwise fail mid-rollout (or silently do
	// nothing) are rejected up front with the dependency spelled out.
	if *supervise && !*demoFlag {
		return fmt.Errorf("-supervise requires -demo (the supervisor drives the demo manager)")
	}
	if *supervise && *journalDir == "" {
		return fmt.Errorf("-supervise requires -journal-dir (the supervisor journals rollout phases and resumes them from disk)")
	}
	if *mirrorTo != "" && *standbyFor != "" {
		return fmt.Errorf("-mirror-to and -standby-for are mutually exclusive (a node ships its journal or receives one, not both)")
	}
	for flagName, val := range map[string]string{"-mirror-to": *mirrorTo, "-standby-for": *standbyFor} {
		if val == "" {
			continue
		}
		if !*demoFlag {
			return fmt.Errorf("%s requires -demo (manager replication mirrors the demo manager's journal)", flagName)
		}
		if *journalDir == "" {
			return fmt.Errorf("%s requires -journal-dir (journal shipping needs a durable journal to stream)", flagName)
		}
	}
	// The policy document is validated before the node binds a port: a node
	// that would run with a malformed or unsatisfiable policy must not start.
	var nodePolicy *policy.DistributionPolicy
	if *policyDoc != "" {
		if !*demoFlag {
			return fmt.Errorf("-policy requires -demo (the policy is designated for the demo DCDO)")
		}
		pol, err := policy.Parse(*policyDoc)
		if err != nil {
			return fmt.Errorf("-policy: %w", err)
		}
		nodePolicy = &pol
	}
	if *mirrorTo != "" {
		fmt.Fprintln(os.Stderr, "dcdo-node: -mirror-to is deprecated; it now also compiles into a degree-2 distribution policy for the manager LOID")
	}

	node, localAgent, err := startNode(*name, *addr, *agentEndpoint, legion.NodeConfig{
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		TransportStripes: *transportStripes,
		TransportWorkers: *transportWorkers,
	}, obs.Options{
		SampleRate:      *traceSample,
		SpanRing:        *obsSpans,
		EventRing:       *obsEvents,
		FlightCapacity:  *flightTraces,
		FlightThreshold: *flightThreshold,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Printf("node %q serving at %s\n", *name, node.Endpoint())
	if localAgent != nil {
		fmt.Printf("binding agent served at %s as %s\n", node.Endpoint(), rpc.AgentLOID)
	}
	fmt.Printf("obs service at %s as %s (dcdo-ctl -agent %s trace)\n",
		node.Endpoint(), rpc.ObsLOID, node.Endpoint())

	var sup *supervisor.Supervisor
	if *demoFlag {
		dep, err := demo.Install(node)
		if err != nil {
			return err
		}
		// Policies publish through whichever agent the node runs against;
		// both the in-memory agent and the remote proxy implement the hook.
		if pub, ok := node.Agent().(manager.PolicyPublisher); ok {
			dep.Manager.SetPolicyPublisher(pub)
		}
		if *journalDir != "" {
			j, err := attachJournal(dep.Manager, *journalDir)
			if err != nil {
				return err
			}
			if *mirrorTo != "" {
				if err := startMirror(j, *mirrorTo); err != nil {
					return err
				}
			}
			if *standbyFor != "" {
				startStandby(node, dep.Manager, *standbyFor)
			}
		}
		// Policy designations come after the journal is attached (and after
		// the mirror starts) so OpPolicySet records are durable and shipped.
		if nodePolicy != nil {
			if err := dep.Manager.SetPolicy(demo.PricingLOID, *nodePolicy); err != nil {
				return fmt.Errorf("-policy: %w", err)
			}
			fmt.Printf("distribution policy for %s: %s\n", demo.PricingLOID, nodePolicy.String())
		}
		if *mirrorTo != "" {
			// The deprecated alias is re-expressed as a declarative document:
			// a degree-2 manager placed on this node and the standby. The
			// journal shipping remains the mechanism; the document is the
			// policy-plane record of the same intent.
			if err := dep.Manager.SetPolicy(demo.ManagerLOID, mirrorAliasPolicy(node.Endpoint(), *mirrorTo)); err != nil {
				return fmt.Errorf("-mirror-to policy alias: %w", err)
			}
		}
		fmt.Printf("demo pricing DCDO at %s (version %s, interface %v)\n",
			demo.PricingLOID, dep.Pricing.Version(), dep.Pricing.Interface())
		fmt.Printf("demo manager at %s (versions 1 instantiable+current, 1.1 instantiable)\n", demo.ManagerLOID)
		fmt.Printf("try: dcdo-ctl -agent %s invoke %s price --uint 20\n", node.Endpoint(), demo.PricingLOID)
		fmt.Printf("     dcdo-ctl -agent %s evolve %s %s 1.1\n", node.Endpoint(), demo.ManagerLOID, demo.PricingLOID)

		if *supervise {
			sup = &supervisor.Supervisor{
				Mgr: dep.Manager,
				Reg: node.Obs().GetMetrics(),
				Hub: supervisor.NewHub(),
			}
			sup.Attach(node)
			fmt.Printf("rollout supervisor at %s as %s (dcdo-ctl -agent %s rollout status)\n",
				node.Endpoint(), rpc.RolloutLOID, node.Endpoint())
			resumed, err := sup.Resume(context.Background())
			if err != nil {
				return fmt.Errorf("resume rollout: %w", err)
			}
			if resumed {
				st := sup.Status()
				fmt.Printf("resumed interrupted rollout %d to %s (phase %s)\n", st.Rollout, st.Target, st.Phase)
			}
		}
	}

	if *obsHTTP != "" {
		httpAddr, err := startObsHTTP(*obsHTTP, node.Obs(), sup, *pprofFlag)
		if err != nil {
			return err
		}
		fmt.Printf("obs HTTP at http://%s/debug/obs (Prometheus text at /metrics)\n", httpAddr)
		if sup != nil {
			fmt.Printf("rollout HTTP at http://%s/debug/rollout\n", httpAddr)
		}
		if *pprofFlag {
			fmt.Printf("pprof at http://%s/debug/pprof/\n", httpAddr)
		}
	} else if *pprofFlag {
		return fmt.Errorf("-pprof requires -obs-http (profiles are served on the obs HTTP endpoint)")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// startNode builds the node against a local or remote binding agent. When
// local, the agent service is hosted on the node itself. cfg carries the
// tuning knobs (admission, transport); identity and wiring fields are set
// here. obsOpts shapes the node's observability plane (sampling, ring
// sizes, flight recorder).
func startNode(name, addr, agentEndpoint string, cfg legion.NodeConfig, obsOpts obs.Options) (*legion.Node, *naming.Agent, error) {
	var (
		authority  naming.Authority
		localAgent *naming.Agent
	)
	if agentEndpoint == "" {
		localAgent = naming.NewAgent(vclock.Real{})
		authority = localAgent
	} else {
		authority = &rpc.RemoteAgent{
			Dialer:   transport.NewTCPDialer(),
			Endpoint: agentEndpoint,
		}
	}
	cfg.Name = name
	cfg.Agent = authority
	cfg.TCPAddr = addr
	cfg.Obs = obs.NewWithOptions(obsOpts)
	node, err := legion.NewNode(cfg)
	if err != nil {
		return nil, nil, err
	}
	// The obs service is hosted on the dispatcher only — not registered with
	// the binding agent — so each node answers for its own telemetry at its
	// own endpoint.
	node.Dispatcher().Host(rpc.ObsLOID, &rpc.ObsService{Obs: node.Obs()})
	if localAgent != nil {
		if _, err := node.HostObject(rpc.AgentLOID, &rpc.AgentService{Agent: localAgent}); err != nil {
			_ = node.Close()
			return nil, nil, err
		}
	}
	return node, localAgent, nil
}

// attachJournal makes the demo manager crash-safe: it opens (or creates)
// the durable evolution journal under dir, replays any passes a previous
// run left unfinished, and persists the store image so an operator can
// rebuild the manager from disk. The demo store is rebuilt deterministically
// by demo.Install, so a journal from an earlier run of this node replays
// against identical version identifiers. It returns the open journal so the
// replication flags can ship it or receive into it.
func attachJournal(mgr *manager.Manager, dir string) (*manager.Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	journalPath := filepath.Join(dir, "evolution.journal")
	j, err := manager.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	mgr.SetJournal(j)
	rep, err := mgr.Recover(context.Background())
	if err != nil {
		return nil, fmt.Errorf("recover from %s: %w", journalPath, err)
	}
	if rep.Passes > 0 {
		fmt.Printf("recovered %d interrupted evolution pass(es): %d resumed, %d verified, %d rolled back, %d quarantined\n",
			rep.Passes, len(rep.Resumed), len(rep.Verified), len(rep.RolledBack), len(rep.Quarantined))
	}
	if !rep.Current.IsZero() {
		// Recover re-compacts the journal around this designation.
		fmt.Printf("current version %s restored from the journal\n", rep.Current)
	}

	var img bytes.Buffer
	if err := mgr.Store().Save(&img); err != nil {
		return nil, err
	}
	imagePath := filepath.Join(dir, "store.image")
	if err := vault.WriteDurable(imagePath, img.Bytes()); err != nil {
		return nil, err
	}
	fmt.Printf("evolution journal at %s; store image at %s\n", journalPath, imagePath)
	return j, nil
}

// mirrorAliasPolicy expresses the deprecated -mirror-to flag as a
// distribution-policy document: a degree-2 manager group placed on this
// node and the standby. Both members must appear as candidates or the
// document cannot satisfy its own degree and validation refuses it.
func mirrorAliasPolicy(self, standby string) policy.DistributionPolicy {
	return policy.DistributionPolicy{Degree: 2, Candidates: []string{self, standby}}
}

// startMirror turns this node into a replicating primary: every record the
// journal has (and every future append) is shipped synchronously to the
// standby's mgr.repl service at endpoint. An ErrFenced shipment later means
// the standby took over; the failed Append halts this manager's pass.
func startMirror(j *manager.Journal, endpoint string) error {
	shipper := &manager.JournalShipper{
		Dialer:   transport.NewTCPDialer(),
		Endpoint: endpoint,
		Epoch:    1,
	}
	if err := shipper.Sync(j); err != nil {
		return fmt.Errorf("sync journal to standby %s: %w", endpoint, err)
	}
	j.SetSink(shipper.Ship)
	fmt.Printf("journal mirrored to standby at %s (manager epoch %d)\n", endpoint, shipper.Epoch)
	return nil
}

// startStandby turns this node into a warm standby for the primary manager
// at endpoint: it hosts the mgr.repl service (appending shipped records to
// this node's own journal) and monitors the primary's health service,
// taking over the fleet — fenced epoch bump, then recovery over the shipped
// journal — once probes go dark.
func startStandby(node *legion.Node, mgr *manager.Manager, endpoint string) {
	svc := manager.NewReplService(mgr.Journal(), 1)
	node.Dispatcher().Host(rpc.MgrReplLOID, svc)
	standby := &manager.Standby{Mgr: mgr, Service: svc}
	health := &rpc.HealthClient{
		Dialer:   transport.NewTCPDialer(),
		Endpoint: endpoint,
		Timeout:  standbyProbeInterval,
	}
	fmt.Printf("standing by for manager at %s (mgr.repl at %s as %s)\n", endpoint, node.Endpoint(), rpc.MgrReplLOID)
	go func() {
		rep, epoch, err := standby.Monitor(context.Background(), health, standbyProbeInterval, standbyProbeThreshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcdo-node: standby takeover:", err)
			return
		}
		fmt.Printf("took over as manager epoch %d: %d interrupted pass(es) reconciled (%d resumed, %d rolled back, %d quarantined)\n",
			epoch, rep.Passes, len(rep.Resumed), len(rep.RolledBack), len(rep.Quarantined))
	}()
}

// Standby health-probe cadence: a primary is declared dead after
// standbyProbeThreshold consecutive missed probes.
const (
	standbyProbeInterval  = 500 * time.Millisecond
	standbyProbeThreshold = 3
)

// startObsHTTP serves o's /debug/obs handler — and, when a supervisor is
// running, its /debug/rollout handler — on addr, returning the bound
// address. The same mux serves the metrics registry in Prometheus text
// form at /metrics, and pprof profiles under /debug/pprof/ when enabled.
func startObsHTTP(addr string, o *obs.Obs, sup *supervisor.Supervisor, withPprof bool) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs http: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", o.Handler())
	if sup != nil {
		mux.Handle("/debug/rollout", sup.Handler())
	}
	if reg := o.GetMetrics(); reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", metrics.ExpositionContentType)
			_ = reg.WriteExposition(w)
		})
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
