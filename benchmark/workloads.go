package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/manager"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/registry"
	"godcdo/internal/replica"
	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// A step performs one closed-loop operation — it returns only once the reply
// is in and checked — and reports how many operations it completed (1, a
// batch's sub-calls, a block of local calls; 0 for an operator step, which is
// not a call), how many of them failed the output check, and whether the
// sample also belongs to the workload's auxiliary latency class.
type step func(ctx context.Context, op uint64) (ops, failed int, aux bool)

// An actor is one goroutine of a workload's load: a caller (no pause) or the
// evolve operator (pausing between steps).
type actor struct {
	step  step
	pause time.Duration
	root  spanKind
}

// A running is one workload, set up and ready to be driven.
type running struct {
	c      *cluster
	actors []actor
	// auxMetric names the end-to-end metric fed by steps that report aux
	// ("write_p50_us", "evolve_p50_ms"); empty when the workload has no such
	// class and the metric falls back to the operation median.
	auxMetric string
	// sampleOps is set when one step is timed as a whole and its latency
	// divided among that many operations (a local block); zero means a step's
	// latency is one sample as it stands (a call, a whole batch).
	sampleOps int
	// verify checks the state the load left behind, once it has stopped.
	verify func() error
	close  func()

	// What the per-layer replays need, where the workload has it.
	primary     *core.DCDO // repl_mixed: the group's primary
	journalPath string     // evolve_under_load
	// refusals counts backup reads the group refused and the caller retried
	// (repl_mixed; see refusedMidShipment).
	refusals atomic.Uint64
}

type workloadDef struct {
	name  string
	why   string
	setup func(cfg *config, t *tracer) (*running, error)
}

const (
	smallPayload = 64
	batchSize    = 16
	batchObjects = 4
	localBlock   = 1024
	operatorIdle = 5 * time.Millisecond
)

var smallOnly = []sizeShare{{smallPayload, 1}}

var workloads = []workloadDef{
	{"rpc_seq", "1 caller, single 64-byte echo invokes over loopback TCP: latency-bound, every layer on the blocking path exactly once (E2's round trip)", setupRPCSeq},
	{"rpc_pipelined", "16 callers over min(2,nproc) connections, 64 B/1 KiB/16 KiB mix: throughput-bound, loads write queue, coalesced flushes and frame-pool classes", setupRPCPipelined},
	{"rpc_batch", "2 callers, reusable 16-sub-call batches over 4 objects: wire batch codec and handleBatch do the work, syscalls amortised 16x", setupRPCBatch},
	{"repl_mixed", "degree-3 primary/backup group, backup-ok, 4 callers, 20% bump writes shipped to both backups beside 80% get reads: replica and objstate", setupReplMixed},
	{"evolve_under_load", "2 callers on one DCDO while an operator alternates EvolveInstance/RollbackInstance with the journal on: DFM writes beside DFM reads", setupEvolve},
	{"local_call", "min(2,nproc) goroutines call DCDO.InvokeMethod directly, 70/15/15 leaf/intra/inter: core+dfm only, the control for wire/transport/rpc changes", setupLocal},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// echoCaller returns the step of one single-invoke echo caller.
func echoCaller(c *cluster, g *generator) step {
	return func(ctx context.Context, id uint64) (int, int, bool) {
		op := g.next()
		stampOp(op.payload, id)
		out, err := c.client.Invoke(ctx, c.loids[op.object], op.fn, op.payload)
		if err != nil || !bytes.Equal(out, op.payload) {
			return 1, 1, false
		}
		return 1, 0, false
	}
}

func setupEcho(cfg *config, t *tracer, callers int, sizes []sizeShare) (*running, error) {
	c, err := newCluster(t, 1)
	if err != nil {
		return nil, err
	}
	m := mix{objects: len(c.loids), classes: []fnClass{{c.typ.all, 1}}, sizes: sizes}
	r := &running{c: c, close: c.close}
	for i := 0; i < callers; i++ {
		r.actors = append(r.actors, actor{step: echoCaller(c, newGenerator(m, cfg.seed, i))})
	}
	return r, nil
}

func setupRPCSeq(cfg *config, t *tracer) (*running, error) {
	return setupEcho(cfg, t, 1, smallOnly)
}

func setupRPCPipelined(cfg *config, t *tracer) (*running, error) {
	return setupEcho(cfg, t, 16, []sizeShare{{smallPayload, 0.80}, {1 << 10, 0.15}, {16 << 10, 0.05}})
}

func setupRPCBatch(cfg *config, t *tracer) (*running, error) {
	c, err := newCluster(t, 1)
	if err != nil {
		return nil, err
	}
	m := mix{objects: len(c.loids), classes: []fnClass{{c.typ.all, 1}}, sizes: smallOnly}
	r := &running{c: c, close: c.close}
	for i := 0; i < 2; i++ {
		g := newGenerator(m, cfg.seed, i)
		b := c.client.NewBatch()
		var sent [batchSize][]byte
		r.actors = append(r.actors, actor{step: func(ctx context.Context, id uint64) (int, int, bool) {
			b.Reset()
			first := 0
			for k := 0; k < batchSize; k++ {
				op := g.next()
				if k == 0 {
					first = op.object
				}
				stampOp(op.payload, id)
				sent[k] = op.payload
				b.AddIdempotent(c.loids[(first+k%batchObjects)%len(c.loids)], op.fn, op.payload)
			}
			failed := 0
			for k, res := range b.Invoke(ctx) {
				if res.Err != nil || !bytes.Equal(res.Payload, sent[k]) {
					failed++
				}
			}
			return batchSize, failed, false
		}})
	}
	return r, nil
}

func setupReplMixed(cfg *config, t *tracer) (*running, error) {
	c, err := newCluster(t, 3)
	if err != nil {
		return nil, err
	}
	group := naming.LOID{Domain: 2, Class: 1, Instance: 1}
	endpoints := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		endpoints[i] = n.srv.Endpoint()
	}
	// Shipping shares the client's connections, so no endpoint ever has more
	// than stripes() of them; only the wrapper differs.
	var ship transport.Dialer = c.dialer
	if t != nil {
		ship = &tracedDialer{inner: c.dialer, t: t, kind: spanShip}
	}
	members := make([]*core.DCDO, len(c.nodes))
	for i, n := range c.nodes {
		obj, err := c.typ.instantiate(group, c.typ.replicated)
		if err != nil {
			c.close()
			return nil, err
		}
		members[i] = obj
		role, backups := replica.RoleBackup, []string(nil)
		if i == 0 {
			role, backups = replica.RolePrimary, endpoints[1:]
		}
		if t == nil {
			n.disp.Host(group, replica.New(group, obj, ship, role, 1, backups))
			continue
		}
		rep := replica.New(group, traceDCDO(obj, t), ship, role, 1, backups)
		n.disp.Host(group, &tracedObject{inner: rep, t: t, kind: spanReplicaInvoke})
	}
	blob := make([]byte, blobBytes)
	rand.New(rand.NewSource(cfg.seed - 1)).Read(blob)
	members[0].State().Set(blobKey, blob)
	c.agent.RegisterPolicy(group, policy.DistributionPolicy{
		Degree: 3, ReadPreference: policy.ReadBackupOK, Consistency: policy.ConsistencyEventual,
	})
	replica.NewGroup(group, c.dialer, c.agent, endpoints[0], endpoints[1:])

	// One bump before any load ships the blob to both backups.
	var issued, acked atomic.Uint64
	issued.Add(1)
	if _, err := c.client.Invoke(context.Background(), group, "bump", make([]byte, opIDBytes)); err != nil {
		c.close()
		return nil, fmt.Errorf("seed replication: %w", err)
	}
	acked.Add(1)
	m := mix{objects: 1, classes: []fnClass{{[]string{"get"}, 1}}, sizes: smallOnly, writeShare: 0.20}
	r := &running{c: c, close: c.close, auxMetric: "write_p50_us", primary: members[0]}
	for i := 0; i < 4; i++ {
		g := newGenerator(m, cfg.seed, i)
		var own, lastBump uint64
		r.actors = append(r.actors, actor{step: func(ctx context.Context, id uint64) (int, int, bool) {
			op := g.next()
			stampOp(op.payload, id)
			if op.write {
				issued.Add(1)
				out, err := c.client.Invoke(ctx, group, "bump", op.payload)
				if err != nil || len(out) != 8 {
					return 1, 1, true
				}
				acked.Add(1)
				own++
				n := binary.LittleEndian.Uint64(out)
				ok := n > lastBump
				lastBump = n
				if !ok {
					return 1, 1, true
				}
				return 1, 0, true
			}
			out, err := c.client.InvokeIdempotent(ctx, group, "get", op.payload)
			for try := 0; try < 3 && refusedMidShipment(err); try++ {
				r.refusals.Add(1)
				out, err = c.client.InvokeIdempotent(ctx, group, "get", op.payload)
			}
			if err != nil || len(out) != 8+len(op.payload) || !bytes.Equal(out[8:], op.payload) {
				return 1, 1, false
			}
			// Shipping is synchronous, so every replica already holds this
			// caller's acked bumps; none can hold more than were issued.
			if n := binary.LittleEndian.Uint64(out); n < own || n > issued.Load() {
				return 1, 1, false
			}
			return 1, 0, false
		}})
	}
	r.verify = func() error {
		for i, obj := range members {
			raw, _ := obj.State().Get(counterKey)
			if len(raw) != 8 || binary.LittleEndian.Uint64(raw) != acked.Load() {
				return fmt.Errorf("repl_mixed: member %d holds counter %x, want %d acked bumps", i, raw, acked.Load())
			}
			if b, _ := obj.State().Get(blobKey); !bytes.Equal(b, blob) {
				return fmt.Errorf("repl_mixed: member %d lost the state blob", i)
			}
		}
		return nil
	}
	return r, nil
}

// refusedMidShipment recognises a defect of the program under test that this
// workload is the first to exercise: a backup serving a repl.read compares its
// state generation before and after the read to catch a mutating "read", and
// a state shipment landing in between trips the same check, so the read is
// refused although it mutated nothing. The read is idempotent and the refusal
// says so, so the caller retries it (on the next replica in the rotation),
// pays the latency, and counts it: replica.read_refusals reports how often.
func refusedMidShipment(err error) bool {
	var remote *rpc.RemoteError
	return errors.As(err, &remote) && remote.Code == wire.CodeInternal &&
		strings.Contains(remote.Message, "mutated state via "+rpc.MethodReplRead)
}

func setupEvolve(cfg *config, t *tracer) (*running, error) {
	c, err := newCluster(t, 1)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*running, error) {
		c.close()
		return nil, err
	}
	mgr := manager.New(evolution.MultiIncreasing, evolution.Explicit)
	store := mgr.Store()
	root, err := store.CreateRoot(c.typ.base)
	if err != nil {
		return fail(err)
	}
	if err := store.MarkInstantiable(root); err != nil {
		return fail(err)
	}
	child, err := store.Derive(root)
	if err != nil {
		return fail(err)
	}
	if err := store.Configure(child, func(d *dfm.Descriptor) error { *d = *c.typ.next.Clone(); return nil }); err != nil {
		return fail(err)
	}
	if err := store.MarkInstantiable(child); err != nil {
		return fail(err)
	}
	if !root.Equal(versionBase) || !child.Equal(versionNext) {
		return fail(fmt.Errorf("evolve: store numbered versions %s and %s", root, child))
	}
	if err := os.MkdirAll(cfg.journalDir, 0o755); err != nil {
		return fail(err)
	}
	path := filepath.Join(cfg.journalDir, fmt.Sprintf("evolve-%d-%d.journal", os.Getpid(), time.Now().UnixNano()))
	journal, err := manager.OpenJournal(path)
	if err != nil {
		return fail(err)
	}
	mgr.SetJournal(journal)
	closeAll := func() {
		_ = journal.Close()
		_ = os.Remove(path)
		c.close()
	}
	target, obj := c.loids[0], c.objs[0]
	var inst manager.Instance = manager.RemoteInstance{Client: c.client, Target: target}
	if t != nil {
		inst = tracedInstance{Instance: inst, t: t}
		journal.SetSink(t.journalSink)
	}
	if err := mgr.Adopt(context.Background(), inst, registry.NativeImplType); err != nil {
		closeAll()
		return nil, err
	}

	r := &running{c: c, close: closeAll, auxMetric: "evolve_p50_ms", journalPath: path}
	m := mix{objects: 1, classes: []fnClass{{c.typ.stable, 1}}, sizes: smallOnly}
	for i := 0; i < 2; i++ {
		r.actors = append(r.actors, actor{step: echoCaller(c, newGenerator(m, cfg.seed, i))})
	}
	at := versionBase
	r.actors = append(r.actors, actor{pause: operatorIdle, root: spanEvolve, step: func(ctx context.Context, _ uint64) (int, int, bool) {
		var err error
		to := versionNext
		if at.Equal(versionNext) {
			to = versionBase
			err = mgr.RollbackInstance(ctx, target, to)
		} else {
			err = mgr.EvolveInstance(ctx, target, to)
		}
		if err != nil {
			return 0, 1, true
		}
		at = to
		return 0, 0, true
	}})
	r.verify = func() error {
		want := c.typ.base
		if at.Equal(versionNext) {
			want = c.typ.next
		}
		if !obj.Version().Equal(at) {
			return fmt.Errorf("evolve_under_load: instance at version %s, last target %s", obj.Version(), at)
		}
		return sameNames(obj.Interface(), want.Interface())
	}
	return r, nil
}

func sameNames(got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		return fmt.Errorf("interface has %d functions, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("interface holds %q where %q is wanted", g[i], w[i])
		}
	}
	return nil
}

func setupLocal(cfg *config, t *tracer) (*running, error) {
	c, err := newCluster(t, 0)
	if err != nil {
		return nil, err
	}
	callees := make([]rpc.Object, len(c.objs))
	for i, obj := range c.objs {
		callees[i] = obj
		if t != nil {
			callees[i] = traceDCDO(obj, t)
		}
	}
	m := mix{
		objects: len(c.objs),
		classes: []fnClass{{c.typ.leaves, 0.70}, {c.typ.intra, 0.15}, {c.typ.inter, 0.15}},
		sizes:   smallOnly,
	}
	r := &running{c: c, close: c.close, sampleOps: localBlock}
	for i := 0; i < stripes(); i++ {
		g := newGenerator(m, cfg.seed, i)
		r.actors = append(r.actors, actor{step: func(_ context.Context, id uint64) (int, int, bool) {
			failed := 0
			for k := 0; k < localBlock; k++ {
				op := g.next()
				stampOp(op.payload, id)
				out, err := callees[op.object].InvokeMethod(op.fn, op.payload)
				if err != nil || !bytes.Equal(out, op.payload) {
					failed++
				}
			}
			return localBlock, failed, false
		}})
	}
	return r, nil
}
