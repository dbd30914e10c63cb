package rpc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godcdo/internal/naming"
	"godcdo/internal/policy"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// In Legion, binding agents are themselves objects. NewAgentService exposes
// an in-memory naming.Agent as a method table so other processes can
// resolve and register bindings over the wire; RemoteAgent is the
// client-side proxy implementing naming.Authority against such a service.

// AgentLOID is the well-known LOID a domain's binding-agent service is
// hosted at (domain 0 is reserved for infrastructure objects).
var AgentLOID = naming.LOID{Domain: 0, Class: 1, Instance: 1}

// AgentRegisterArgs are MethodAgentRegister's arguments.
type AgentRegisterArgs struct {
	LOID    naming.LOID
	Address naming.Address
}

// AgentSetArgs are MethodAgentRegisterSet's arguments.
type AgentSetArgs struct {
	LOID naming.LOID
	Set  naming.ReplicaSet
}

// AgentPolicyArgs are MethodAgentSetPolicy's arguments. The document
// travels in its wire form.
type AgentPolicyArgs struct {
	LOID   naming.LOID
	Policy policy.DistributionPolicy
}

// The binding agent's exported interface. Only lookup reads. Register and
// registerSet answer the effective incarnation and generation.
var (
	MethodAgentLookup = Method[naming.LOID, naming.Binding]{Name: "agent.lookup", Idempotent: true,
		Args: LOIDCodec, Result: NewCodec(putBinding, getBinding)}
	MethodAgentRegister = Method[AgentRegisterArgs, uint64]{Name: "agent.register",
		Args: NewCodec(putRegisterArgs, getRegisterArgs), Result: UvarintCodec}
	MethodAgentDeregister = Method[naming.LOID, None]{Name: "agent.deregister",
		Args: LOIDCodec, Result: NoneCodec}
	MethodAgentRegisterSet = Method[AgentSetArgs, uint64]{Name: "agent.registerSet",
		Args: NewCodec(putSetArgs, getSetArgs), Result: UvarintCodec}
	MethodAgentSetPolicy = Method[AgentPolicyArgs, None]{Name: "agent.setPolicy",
		Args: NewCodec(putPolicyArgs, getPolicyArgs), Result: NoneCodec}
)

// NewAgentService returns the method table serving agent.
func NewAgentService(agent *naming.Agent) Table {
	return Serve(
		MethodAgentLookup.Handle(func(_ context.Context, loid naming.LOID) (naming.Binding, error) {
			return agent.Lookup(loid)
		}),
		MethodAgentRegister.Handle(func(_ context.Context, a AgentRegisterArgs) (uint64, error) {
			return agent.Register(a.LOID, a.Address).Incarnation, nil
		}),
		MethodAgentDeregister.Handle(func(_ context.Context, loid naming.LOID) (None, error) {
			agent.Deregister(loid)
			return None{}, nil
		}),
		MethodAgentRegisterSet.Handle(func(_ context.Context, a AgentSetArgs) (uint64, error) {
			eff, ok := agent.RegisterSet(a.LOID, a.Set)
			if !ok {
				return 0, &RemoteError{Code: wire.CodeFenced,
					Message: fmt.Sprintf("replica set generation %d not newer than %d", a.Set.Generation, eff.Generation)}
			}
			return eff.Generation, nil
		}),
		MethodAgentSetPolicy.Handle(func(_ context.Context, a AgentPolicyArgs) (None, error) {
			agent.RegisterPolicy(a.LOID, a.Policy)
			return None{}, nil
		}),
	)
}

// putBinding writes a lookup result. The replica-set and policy extensions
// are appended after the original fields, so a decoder that predates one
// stops before it.
func putBinding(e *wire.Encoder, b naming.Binding) {
	e.PutString(b.Address.Endpoint)
	e.PutUvarint(b.Address.Incarnation)
	e.PutUvarint(b.Set.Generation)
	PutRun(e, b.Set.Backups, (*wire.Encoder).PutString)
	if b.Policy != nil {
		e.PutUvarint(1)
		e.PutBytes(b.Policy.EncodeWire())
	} else {
		e.PutUvarint(0)
	}
}

// getBinding reads a putBinding result. Only the address is required: a
// reply that ends before an extension, or carries one this decoder cannot
// read, resolves to the address alone (a singleton-era agent's replicated
// LOIDs resolve to their primary). The caller fills in the LOID.
func getBinding(d *wire.Decoder) (b naming.Binding, err error) {
	if b.Address.Endpoint, err = d.String(); err != nil {
		return b, err
	}
	if b.Address.Incarnation, err = d.Uvarint(); err != nil {
		return b, err
	}
	if d.Remaining() > 0 {
		if generation, err := d.Uvarint(); err == nil {
			if backups, err := GetRun(d, (*wire.Decoder).String); err == nil && (generation > 0 || len(backups) > 0) {
				b.Set = naming.ReplicaSet{Primary: b.Address.Endpoint, Backups: backups, Generation: generation}
			}
		}
	}
	if d.Remaining() > 0 {
		if has, err := d.Uvarint(); err == nil && has == 1 {
			if raw, err := d.Bytes(); err == nil {
				if pol, err := policy.DecodeWire(raw); err == nil {
					b.Policy = &pol
				}
			}
		}
	}
	return b, nil
}

func putRegisterArgs(e *wire.Encoder, a AgentRegisterArgs) {
	PutLOID(e, a.LOID)
	e.PutString(a.Address.Endpoint)
	e.PutUvarint(a.Address.Incarnation)
}

func getRegisterArgs(d *wire.Decoder) (a AgentRegisterArgs, err error) {
	if a.LOID, err = GetLOID(d); err != nil {
		return a, err
	}
	if a.Address.Endpoint, err = d.String(); err != nil {
		return a, err
	}
	a.Address.Incarnation, err = d.Uvarint()
	return a, err
}

func putSetArgs(e *wire.Encoder, a AgentSetArgs) {
	PutLOID(e, a.LOID)
	e.PutString(a.Set.Primary)
	e.PutUvarint(a.Set.Generation)
	PutRun(e, a.Set.Backups, (*wire.Encoder).PutString)
}

func getSetArgs(d *wire.Decoder) (a AgentSetArgs, err error) {
	if a.LOID, err = GetLOID(d); err != nil {
		return a, err
	}
	if a.Set.Primary, err = d.String(); err != nil {
		return a, err
	}
	if a.Set.Generation, err = d.Uvarint(); err != nil {
		return a, err
	}
	a.Set.Backups, err = GetRun(d, (*wire.Decoder).String)
	return a, err
}

func putPolicyArgs(e *wire.Encoder, a AgentPolicyArgs) {
	PutLOID(e, a.LOID)
	e.PutBytes(a.Policy.EncodeWire())
}

func getPolicyArgs(d *wire.Decoder) (a AgentPolicyArgs, err error) {
	if a.LOID, err = GetLOID(d); err != nil {
		return a, err
	}
	raw, err := d.Bytes()
	if err != nil {
		return a, err
	}
	a.Policy, err = policy.DecodeWire(raw)
	return a, err
}

// RemoteAgent resolves and registers bindings against an agent service at a
// fixed, well-known endpoint. It implements naming.Authority, so nodes in
// other processes plug it in wherever an in-memory agent would go.
// naming.Authority is deliberately context-free (binding resolution is a
// substrate concern with its own short timeout), so the proxy calls under a
// background context; Timeout still bounds each call.
type RemoteAgent struct {
	// Dialer reaches the agent's endpoint.
	Dialer transport.Dialer
	// Endpoint is the agent service's dialable endpoint.
	Endpoint string
	// Timeout bounds each agent call. Zero means 5 s.
	Timeout time.Duration
}

var _ naming.Authority = (*RemoteAgent)(nil)

// Lookup implements naming.Resolver.
func (r *RemoteAgent) Lookup(loid naming.LOID) (naming.Binding, error) {
	b, err := MethodAgentLookup.CallAt(context.Background(), r.Dialer, r.Endpoint, AgentLOID, r.Timeout, loid)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.Code == wire.CodeInternal {
			// The service transmits naming.ErrNotBound as an internal
			// error; surface the matching sentinel for callers.
			return naming.Binding{}, fmt.Errorf("%w: %s", naming.ErrNotBound, loid)
		}
		return naming.Binding{}, err
	}
	b.LOID = loid
	return b, nil
}

// RegisterSet registers a replica group for loid against the remote agent
// and returns the effective set. A generation at or below the agent's
// current one is rejected with ErrFenced (the caller is a deposed primary).
func (r *RemoteAgent) RegisterSet(loid naming.LOID, set naming.ReplicaSet) (naming.ReplicaSet, error) {
	gen, err := MethodAgentRegisterSet.CallAt(context.Background(), r.Dialer, r.Endpoint, AgentLOID, r.Timeout,
		AgentSetArgs{LOID: loid, Set: set})
	if err != nil {
		return naming.ReplicaSet{}, err
	}
	set.Generation = gen
	return set, nil
}

// RegisterPolicy publishes a distribution-policy document to the remote
// agent. It satisfies manager.PolicyPublisher for managers whose naming
// plane lives in another process; failures are swallowed like Register's —
// the journal is the durable authority, and the next republish (takeover,
// explicit SetPolicy) retries.
func (r *RemoteAgent) RegisterPolicy(loid naming.LOID, pol policy.DistributionPolicy) {
	_, _ = MethodAgentSetPolicy.CallAt(context.Background(), r.Dialer, r.Endpoint, AgentLOID, r.Timeout,
		AgentPolicyArgs{LOID: loid, Policy: pol})
}

// Register implements naming.Authority. Registration against an
// unreachable agent leaves the intended address in place; the next lookup
// will fail loudly instead.
func (r *RemoteAgent) Register(loid naming.LOID, addr naming.Address) naming.Address {
	inc, err := MethodAgentRegister.CallAt(context.Background(), r.Dialer, r.Endpoint, AgentLOID, r.Timeout,
		AgentRegisterArgs{LOID: loid, Address: addr})
	if err == nil {
		addr.Incarnation = inc
	}
	return addr
}

// Deregister implements naming.Authority.
func (r *RemoteAgent) Deregister(loid naming.LOID) {
	_, _ = MethodAgentDeregister.CallAt(context.Background(), r.Dialer, r.Endpoint, AgentLOID, r.Timeout, loid)
}
