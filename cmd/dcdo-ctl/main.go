// Command dcdo-ctl drives a running dcdo-node over TCP: invoke dynamic
// functions, inspect interfaces and versions, and manage evolution through
// the node's DCDO Manager.
//
// Usage:
//
//	dcdo-ctl -agent tcp:127.0.0.1:7400 invoke loid:1.1.1 price --uint 20
//	dcdo-ctl -agent tcp:127.0.0.1:7400 interface loid:1.1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 version loid:1.1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 snapshot loid:1.1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 enable loid:1.1.1 price pricing-v2
//	dcdo-ctl -agent tcp:127.0.0.1:7400 disable loid:1.1.1 price pricing-v1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 evolve loid:0.2.1 loid:1.1.1 1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 records loid:0.2.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 setcurrent loid:0.2.1 1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 health loid:0.2.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 recover loid:0.2.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 replicas loid:1.1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 policy get loid:0.2.1 loid:1.1.1
//	dcdo-ctl -agent tcp:127.0.0.1:7400 policy set loid:0.2.1 loid:1.1.1 '{"degree":3,"read_preference":"backup-ok","consistency":"eventual"}'
//	dcdo-ctl -agent tcp:127.0.0.1:7400 policy diff loid:0.2.1 loid:1.1.1 '{"degree":3}'
//	dcdo-ctl -agent tcp:127.0.0.1:7400 rollout start 1.1 -canary 1 -waves 2,4 -slo-p99 5ms
//	dcdo-ctl -agent tcp:127.0.0.1:7400 rollout status
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/manager"
	"godcdo/internal/metrics"
	"godcdo/internal/naming"
	"godcdo/internal/obs"
	"godcdo/internal/policy"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/supervisor"
	"godcdo/internal/transport"
	"godcdo/internal/vclock"
	"godcdo/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcdo-ctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcdo-ctl", flag.ContinueOnError)
	agentEndpoint := fs.String("agent", "tcp:127.0.0.1:7400", "endpoint of the binding-agent service")
	timeout := fs.Duration("timeout", 5*time.Second, "per-call timeout")
	deadline := fs.Duration("deadline", 30*time.Second, "overall command budget, propagated to the server as the call deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing command (invoke|interface|version|snapshot|enable|disable|evolve|ensure-current|records|setcurrent|health|recover|replicas|policy|trace|rollout)")
	}

	dialer := transport.NewTCPDialer()
	defer dialer.Close()
	remote := &rpc.RemoteAgent{Dialer: dialer, Endpoint: *agentEndpoint, Timeout: *timeout}
	cache := naming.NewCache(remote, vclock.Real{}, 0)
	client := rpc.NewClient(cache, dialer)
	client.Retry.CallTimeout = *timeout

	cmd, rest := rest[0], rest[1:]
	parseLOID := func(i int, what string) (naming.LOID, error) {
		if i >= len(rest) {
			return naming.LOID{}, fmt.Errorf("missing %s", what)
		}
		return naming.ParseLOID(rest[i])
	}

	switch cmd {
	case "invoke":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		if len(rest) < 2 {
			return errors.New("missing method name")
		}
		method := rest[1]
		payload, err := encodeArgs(rest[2:])
		if err != nil {
			return err
		}
		out, err := client.Invoke(ctx, loid, method, payload)
		if err != nil {
			return err
		}
		printResult(out)
		return nil

	case "interface":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		names, err := core.MethodInterface.Call(ctx, client, loid, rpc.None{})
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil

	case "version":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		ver, err := core.MethodVersion.Call(ctx, client, loid, rpc.None{})
		if err != nil {
			return err
		}
		fmt.Println(ver)
		return nil

	case "snapshot":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		desc, err := core.MethodSnapshot.Call(ctx, client, loid, rpc.None{})
		if err != nil {
			return err
		}
		for _, e := range desc.Entries {
			state := "disabled"
			if e.Enabled {
				state = "enabled"
			}
			vis := "internal"
			if e.Exported {
				vis = "exported"
			}
			fmt.Printf("%-30s %-9s %-9s mandatory=%v permanent=%v\n",
				e.Key(), state, vis, e.Mandatory, e.Permanent)
		}
		for _, dep := range desc.Deps {
			fmt.Printf("dependency (type %s): %s\n", dep.Kind, dep)
		}
		return nil

	case "enable", "disable":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		if len(rest) < 3 {
			return errors.New("usage: enable|disable <loid> <function> <component>")
		}
		key := dfm.EntryKey{Function: rest[1], Component: rest[2]}
		method := core.MethodEnable
		if cmd == "disable" {
			method = core.MethodDisable
		}
		if _, err := method.Call(ctx, client, loid, key); err != nil {
			return err
		}
		fmt.Printf("%sd %s on %s\n", cmd, key, loid)
		return nil

	case "evolve":
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		target, err := parseLOID(1, "target loid")
		if err != nil {
			return err
		}
		if len(rest) < 3 {
			return errors.New("usage: evolve <manager-loid> <target-loid> <version>")
		}
		ver, err := version.Parse(rest[2])
		if err != nil {
			return err
		}
		if _, err := manager.MethodEvolveInstance.Call(ctx, client, mgrLOID, manager.EvolveArgs{LOID: target, Version: ver}); err != nil {
			return err
		}
		fmt.Printf("evolved %s to version %s\n", target, ver)
		return nil

	case "records":
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		records, err := manager.MethodRecords.Call(ctx, client, mgrLOID, rpc.None{})
		if err != nil {
			return err
		}
		for _, r := range records {
			fmt.Printf("%-20s version %-8s impl %s\n", r.LOID, r.Version, r.Impl)
		}
		return nil

	case "ensure-current":
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		target, err := parseLOID(1, "target loid")
		if err != nil {
			return err
		}
		updated, err := manager.EnsureCurrent(ctx, client, mgrLOID, target)
		if err != nil {
			return err
		}
		if updated {
			fmt.Printf("%s updated to the manager's current version\n", target)
		} else {
			fmt.Printf("%s already current\n", target)
		}
		return nil

	case "setcurrent":
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		if len(rest) < 2 {
			return errors.New("usage: setcurrent <manager-loid> <version>")
		}
		ver, err := version.Parse(rest[1])
		if err != nil {
			return err
		}
		if _, err := manager.MethodSetCurrent.Call(ctx, client, mgrLOID, ver); err != nil {
			return err
		}
		fmt.Printf("current version set to %s\n", ver)
		return nil

	case "health":
		// The node-level ping first: it proves transport + dispatcher are
		// alive, independent of any manager.
		hc := &rpc.HealthClient{Dialer: dialer, Endpoint: *agentEndpoint, Timeout: *timeout}
		info, err := hc.Ping(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("node %q up %v, hosting %d objects\n",
			info.Node, info.Uptime().Round(time.Millisecond), info.HostedObjects)
		if len(rest) == 0 {
			return nil
		}
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		healths, err := manager.MethodHealth.Call(ctx, client, mgrLOID, rpc.None{})
		if err != nil {
			return err
		}
		for _, h := range healths {
			state := "healthy"
			if h.Quarantined {
				state = "quarantined"
				if h.Reason != "" {
					state += " (" + h.Reason + ")"
				}
			}
			fmt.Printf("%-20s version %-8s %s\n", h.LOID, h.Version, state)
		}
		return nil

	case "recover":
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		rep, err := manager.MethodRecover.Call(ctx, client, mgrLOID, rpc.None{})
		if err != nil {
			return err
		}
		if rep.Passes == 0 {
			fmt.Println("journal clean: nothing to recover")
		} else {
			fmt.Printf("recovered %d interrupted pass(es)\n", rep.Passes)
		}
		if !rep.Current.IsZero() {
			fmt.Printf("current version %s\n", rep.Current)
		}
		for _, group := range []struct {
			name  string
			loids []naming.LOID
		}{
			{"resumed", rep.Resumed},
			{"verified", rep.Verified},
			{"rolled back", rep.RolledBack},
			{"quarantined", rep.Quarantined},
		} {
			for _, loid := range group.loids {
				fmt.Printf("%-12s %s\n", group.name, loid)
			}
		}
		return nil

	case "replicas":
		loid, err := parseLOID(0, "target loid")
		if err != nil {
			return err
		}
		b, err := remote.Lookup(loid)
		if err != nil {
			return err
		}
		if !b.Set.Replicated() {
			fmt.Printf("%s is not replicated (singleton at %s)\n", loid, b.Address.Endpoint)
			return nil
		}
		endpoints := b.Set.Endpoints()
		fmt.Printf("replica set for %s: generation %d, %d member(s), primary %s\n",
			loid, b.Set.Generation, len(endpoints), b.Set.Primary)
		for _, ep := range endpoints {
			st, err := replica.MethodStatus.CallAt(ctx, dialer, ep, loid, *timeout, rpc.None{})
			if err != nil {
				fmt.Printf("  %-26s unreachable (%v)\n", ep, err)
				continue
			}
			verStr := "?"
			if ver, err := version.Decode(st.VersionSegs); err == nil {
				verStr = ver.String()
			}
			fmt.Printf("  %-26s %-8s epoch %-4d seq %-6d ackSeq %-6d version %s\n",
				ep, st.Role, st.Epoch, st.Seq, st.AckSeq, verStr)
		}
		return nil

	case "policy":
		if len(rest) == 0 {
			return errors.New("missing policy action (get|set|diff)")
		}
		action := rest[0]
		rest = rest[1:]
		mgrLOID, err := parseLOID(0, "manager loid")
		if err != nil {
			return err
		}
		loid, err := parseLOID(1, "target loid")
		if err != nil {
			return err
		}
		switch action {
		case "get":
			have, err := manager.MethodPolicyGet.Call(ctx, client, mgrLOID, loid)
			if err != nil {
				return err
			}
			if !have.Designated {
				fmt.Printf("no policy designated for %s (implicit default: %s)\n", loid, have.Policy.String())
				return nil
			}
			fmt.Println(have.Policy.String())
			return nil
		case "set":
			if len(rest) < 3 {
				return errors.New("missing policy JSON document")
			}
			// Validate locally so a malformed document fails with a parse
			// error here rather than a remote BAD_REQUEST.
			pol, err := policy.Parse(rest[2])
			if err != nil {
				return err
			}
			if _, err := manager.MethodPolicySet.Call(ctx, client, mgrLOID, manager.PolicyArgs{LOID: loid, Policy: pol}); err != nil {
				return err
			}
			fmt.Printf("policy for %s: %s\n", loid, pol.String())
			return nil
		case "diff":
			if len(rest) < 3 {
				return errors.New("missing policy JSON document")
			}
			want, err := policy.Parse(rest[2])
			if err != nil {
				return err
			}
			have, err := manager.MethodPolicyGet.Call(ctx, client, mgrLOID, loid)
			if err != nil {
				return err
			}
			lines := have.Policy.Diff(want)
			if len(lines) == 0 {
				fmt.Println("(no differences)")
				return nil
			}
			for _, l := range lines {
				fmt.Println(l)
			}
			return nil
		default:
			return fmt.Errorf("unknown policy action %q (get|set|diff)", action)
		}

	case "trace":
		oc := &rpc.ObsClient{Dialer: dialer, Endpoint: *agentEndpoint, Timeout: *timeout}
		return runTrace(ctx, oc, rest)

	case "rollout":
		rc := &supervisor.Client{Dialer: dialer, Endpoint: *agentEndpoint, Timeout: *timeout}
		return runRollout(ctx, rc, rest)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runRollout implements the `rollout` subcommand family against the rollout
// supervisor of the node at -agent's endpoint:
//
//	rollout start <version> [flags]  submit a policy and begin the rollout
//	rollout status                   show the active (or last) rollout
//	rollout pause                    suspend widening (the wave in flight finishes)
//	rollout resume                   continue a paused rollout
//	rollout abort [reason]           stop and roll promoted instances back
func runRollout(ctx context.Context, rc *supervisor.Client, rest []string) error {
	if len(rest) == 0 {
		return errors.New("usage: rollout start|status|pause|resume|abort")
	}
	sub, rest := rest[0], rest[1:]
	switch sub {
	case "start":
		if len(rest) == 0 {
			return errors.New("usage: rollout start <version> [flags]")
		}
		target, err := version.Parse(rest[0])
		if err != nil {
			return fmt.Errorf("target version: %w", err)
		}
		fs := flag.NewFlagSet("rollout start", flag.ContinueOnError)
		name := fs.String("name", "", "rollout label for status output and events")
		canary := fs.Int("canary", 1, "canary wave width")
		waves := fs.String("waves", "", "comma-separated widths of the waves after the canary (empty: each wave doubles)")
		bake := fs.Duration("bake", 0, "per-wave bake time under the SLO guard (0: supervisor default)")
		probe := fs.Duration("probe", 0, "guard evaluation interval during a bake (0: bake/8)")
		hist := fs.String("slo-histogram", "client.invoke", "registry histogram the p99 guard reads (empty: no latency guard)")
		maxP99 := fs.Duration("slo-p99", 0, "p99 latency ceiling; a baking wave exceeding it rolls back (0: no latency guard)")
		counters := fs.String("slo-counters", "", "registry counter set the error-rate guard reads (empty: no error guard)")
		maxErrRate := fs.Float64("slo-error-rate", 0, "error-rate ceiling errors/calls (0: no error guard)")
		minSamples := fs.Uint64("slo-min-samples", 0, "latency observations a window needs before p99 counts")
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		policy := supervisor.Policy{
			Name:          *name,
			Target:        target,
			CanarySize:    *canary,
			BakeTime:      *bake,
			ProbeInterval: *probe,
			SLO: supervisor.SLO{
				LatencyHistogram: *hist,
				MaxP99:           *maxP99,
				ErrorCounters:    *counters,
				MaxErrorRate:     *maxErrRate,
				MinSamples:       *minSamples,
			},
		}
		if *waves != "" {
			for _, part := range strings.Split(*waves, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("wave width %q: %w", part, err)
				}
				policy.WaveWidths = append(policy.WaveWidths, w)
			}
		}
		st, err := rc.Start(ctx, policy)
		if err != nil {
			return err
		}
		printRolloutStatus(st)
		return nil

	case "status":
		st, err := rc.Status(ctx)
		if err != nil {
			return err
		}
		printRolloutStatus(st)
		return nil

	case "pause":
		st, err := rc.Pause(ctx)
		if err != nil {
			return err
		}
		printRolloutStatus(st)
		return nil

	case "resume":
		st, err := rc.Resume(ctx)
		if err != nil {
			return err
		}
		printRolloutStatus(st)
		return nil

	case "abort":
		st, err := rc.Abort(ctx, strings.Join(rest, " "))
		if err != nil {
			return err
		}
		printRolloutStatus(st)
		return nil

	default:
		return fmt.Errorf("unknown rollout subcommand %q (start|status|pause|resume|abort)", sub)
	}
}

// printRolloutStatus renders a rollout Status for operators.
func printRolloutStatus(st supervisor.Status) {
	if st.Phase == "" {
		fmt.Println("no rollout has run")
		return
	}
	label := ""
	if st.Policy != nil && st.Policy.Name != "" {
		label = " " + st.Policy.Name
	}
	fmt.Printf("rollout %d%s: phase %s", st.Rollout, label, st.Phase)
	if st.Paused {
		fmt.Print(" (paused)")
	}
	fmt.Println()
	fmt.Printf("  baseline %s -> target %s\n", st.Baseline, st.Target)
	fmt.Printf("  waves %d, promoted %d instance(s)\n", st.Wave, len(st.Promoted))
	if st.Verdict.Samples > 0 || st.Verdict.Calls > 0 {
		fmt.Printf("  last window: p99 %v over %d sample(s), %d/%d errors (rate %.4f)\n",
			st.Verdict.P99, st.Verdict.Samples, st.Verdict.Errors, st.Verdict.Calls, st.Verdict.ErrorRate)
	}
	if st.Err != "" {
		fmt.Printf("  error: %s\n", st.Err)
	}
}

// runTrace implements the `trace` subcommand family against the obs service
// of the node at -agent's endpoint:
//
//	trace                   recent spans grouped by trace
//	trace spans [traceID]   spans of one trace (or recent ones)
//	trace events            recent evolution/configuration events
//	trace metrics           histogram and counter snapshot
//	trace flight [traceID]  traces the flight recorder retained (errored/slow)
//	trace slowest           retained traces ordered by slowest span
func runTrace(ctx context.Context, oc *rpc.ObsClient, rest []string) error {
	sub := "spans"
	if len(rest) > 0 {
		sub, rest = rest[0], rest[1:]
	}
	switch sub {
	case "spans":
		var traceID uint64
		if len(rest) > 0 {
			var err error
			if traceID, err = strconv.ParseUint(rest[0], 10, 64); err != nil {
				return fmt.Errorf("trace id: %w", err)
			}
		}
		spans, err := oc.Spans(ctx, traceID, 0)
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			fmt.Println("no spans recorded")
			return nil
		}
		printSpans(spans)
		return nil

	case "events":
		events, err := oc.Events(ctx, 0)
		if err != nil {
			return err
		}
		if len(events) == 0 {
			fmt.Println("no events recorded")
			return nil
		}
		for _, ev := range events {
			line := fmt.Sprintf("%6d %s %s", ev.Seq, ev.Time.Format(time.RFC3339), ev.Kind)
			if ev.Object != "" {
				line += " " + ev.Object
			}
			if ev.Function != "" {
				line += " " + ev.Function
			}
			if ev.Component != "" {
				line += "@" + ev.Component
			}
			if ev.Version != "" {
				line += " version=" + ev.Version
			}
			if ev.Detail != "" {
				line += " (" + ev.Detail + ")"
			}
			fmt.Println(line)
		}
		return nil

	case "metrics":
		snap, err := oc.Snapshot(ctx)
		if err != nil {
			return err
		}
		printMetrics(snap.Metrics)
		return nil

	case "flight", "slowest":
		var traceID uint64
		if sub == "flight" && len(rest) > 0 {
			var err error
			if traceID, err = strconv.ParseUint(rest[0], 10, 64); err != nil {
				return fmt.Errorf("trace id: %w", err)
			}
		}
		rep, err := oc.Flight(ctx, traceID, 0, sub == "slowest")
		if err != nil {
			return err
		}
		fmt.Printf("flight recorder: %d live, %d retained, %d evicted\n",
			rep.Stats.Live, rep.Stats.Retained, rep.Stats.Evicted)
		if len(rep.Traces) == 0 {
			fmt.Println("no traces retained")
			return nil
		}
		for _, ft := range rep.Traces {
			fmt.Printf("trace %d reason=%s slowest=%v retained=%s (%d spans)\n",
				ft.TraceID, ft.Reason, time.Duration(ft.MaxNs),
				ft.Retained.Format(time.RFC3339), len(ft.Spans))
			printSpans(ft.Spans)
		}
		return nil

	default:
		return fmt.Errorf("unknown trace subcommand %q (spans|events|metrics|flight|slowest)", sub)
	}
}

// printSpans renders spans grouped by trace, children indented under their
// parents, in start order within each trace.
func printSpans(spans []obs.SpanRecord) {
	byTrace := make(map[uint64][]obs.SpanRecord)
	var order []uint64
	for _, sp := range spans {
		if _, seen := byTrace[sp.TraceID]; !seen {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for _, id := range order {
		group := byTrace[id]
		sort.Slice(group, func(i, j int) bool { return group[i].Start.Before(group[j].Start) })
		depth := make(map[uint64]int, len(group))
		for _, sp := range group {
			depth[sp.SpanID] = depth[sp.ParentID] + 1
		}
		fmt.Printf("trace %d (%d spans)\n", id, len(group))
		for _, sp := range group {
			indent := strings.Repeat("  ", depth[sp.SpanID])
			line := fmt.Sprintf("%s%-16s %10v", indent, sp.Stage, sp.Duration)
			if sp.Err != "" {
				line += " err=" + sp.Err
			}
			keys := make([]string, 0, len(sp.Annots))
			for k := range sp.Annots {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf(" %s=%s", k, sp.Annots[k])
			}
			fmt.Println(line)
		}
	}
}

// printMetrics renders a registry snapshot as aligned text.
func printMetrics(m metrics.RegistrySnapshot) {
	names := make([]string, 0, len(m.Histograms))
	for name := range m.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Printf("%-40s %10s %12s %12s %12s\n", "histogram", "count", "p50", "p95", "p99")
		for _, name := range names {
			h := m.Histograms[name]
			fmt.Printf("%-40s %10d %12v %12v %12v\n", name, h.Count,
				time.Duration(h.P50Ns), time.Duration(h.P95Ns), time.Duration(h.P99Ns))
		}
	}
	gnames := make([]string, 0, len(m.Gauges))
	for name := range m.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		fmt.Printf("gauge %-34s %10d\n", name, m.Gauges[name])
	}
	cnames := make([]string, 0, len(m.Counters))
	for name := range m.Counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, set := range cnames {
		inner := make([]string, 0, len(m.Counters[set]))
		for name := range m.Counters[set] {
			inner = append(inner, name)
		}
		sort.Strings(inner)
		for _, name := range inner {
			fmt.Printf("counter %-32s %10d\n", set+"."+name, m.Counters[set][name])
		}
	}
}

// encodeArgs turns trailing CLI arguments into a payload: "--uint N"
// encodes N as a uvarint (the demo pricing convention); a bare string is
// sent as raw bytes.
func encodeArgs(args []string) ([]byte, error) {
	if len(args) == 0 {
		return nil, nil
	}
	if args[0] == "--uint" {
		if len(args) < 2 {
			return nil, errors.New("--uint needs a value")
		}
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("--uint: %w", err)
		}
		return rpc.UvarintCodec.Encode(n), nil
	}
	return []byte(args[0]), nil
}

// printResult renders a payload: if it is exactly one uvarint it prints the
// number, otherwise the raw bytes as a string.
func printResult(out []byte) {
	if v, err := rpc.UvarintCodec.Decode(out); err == nil {
		fmt.Println(v)
		return
	}
	fmt.Printf("%s\n", out)
}
