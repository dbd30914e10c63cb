package naming

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/policy"
	"godcdo/internal/vclock"
)

// ErrNotBound is returned when a LOID has no registered address.
var ErrNotBound = errors.New("naming: object not bound")

// ReplicaSet describes the replica group serving one LOID: the primary
// endpoint, the backups in failover order, and a generation number that
// increases on every membership or leadership change. A zero ReplicaSet
// (Primary == "") marks an ordinary singleton binding.
type ReplicaSet struct {
	Primary    string
	Backups    []string
	Generation uint64
}

// Replicated reports whether the set describes a replica group (as opposed
// to the zero value carried by singleton bindings).
func (s ReplicaSet) Replicated() bool { return s.Primary != "" }

// Endpoints returns the set's endpoints, primary first.
func (s ReplicaSet) Endpoints() []string {
	if !s.Replicated() {
		return nil
	}
	out := make([]string, 0, 1+len(s.Backups))
	out = append(out, s.Primary)
	return append(out, s.Backups...)
}

// Contains reports whether endpoint is a member of the set.
func (s ReplicaSet) Contains(endpoint string) bool {
	if s.Primary == endpoint {
		return true
	}
	for _, b := range s.Backups {
		if b == endpoint {
			return true
		}
	}
	return false
}

// Without returns a copy of the set with endpoint removed and reports
// whether it was a member. Removing the primary promotes the first backup,
// so a client can fail over locally without re-consulting the agent. The
// returned set's Primary is "" when no endpoints remain.
func (s ReplicaSet) Without(endpoint string) (ReplicaSet, bool) {
	if !s.Contains(endpoint) {
		return s, false
	}
	out := ReplicaSet{Generation: s.Generation}
	survivors := make([]string, 0, len(s.Backups))
	if s.Primary != endpoint {
		out.Primary = s.Primary
	}
	for _, b := range s.Backups {
		if b == endpoint {
			continue
		}
		if out.Primary == "" {
			out.Primary = b
			continue
		}
		survivors = append(survivors, b)
	}
	if len(survivors) > 0 {
		out.Backups = survivors
	}
	return out, true
}

// Clone deep-copies the set so agent-held state never aliases caller slices.
func (s ReplicaSet) Clone() ReplicaSet {
	if len(s.Backups) > 0 {
		s.Backups = append([]string(nil), s.Backups...)
	}
	return s
}

// Binding associates a LOID with the address it resolved to and when. For
// replicated LOIDs, Set carries the full replica group; Address.Endpoint
// always equals the primary endpoint, so unreplicated callers keep working
// untouched. Policy, when non-nil, is the object's distribution-policy
// document as registered with the agent — clients learn read routing on
// resolve instead of through configuration. The pointed-to
// document is immutable by convention (the agent clones on registration);
// nil means the implicit policy.Default().
type Binding struct {
	LOID       LOID
	Address    Address
	Set        ReplicaSet
	Policy     *policy.DistributionPolicy
	ResolvedAt time.Time
}

// Resolver resolves LOIDs to bindings. The in-memory Agent implements it
// directly; remote binding agents are reached through a proxy implementing
// the same interface.
type Resolver interface {
	Lookup(loid LOID) (Binding, error)
}

// Authority is the full binding-agent interface: resolution plus
// registration. Nodes register hosted objects through an Authority.
type Authority interface {
	Resolver
	// Register binds loid to addr; when addr.Incarnation is zero the agent
	// assigns the next incarnation. The effective address is returned.
	Register(loid LOID, addr Address) Address
	// Deregister removes loid's binding.
	Deregister(loid LOID)
}

// Agent is the authoritative LOID → Address registry (Legion's binding
// agent). Objects register on activation, update on migration, and
// deregister on destruction. Safe for concurrent use.
type Agent struct {
	clock vclock.Clock

	mu       sync.RWMutex
	bindings map[LOID]Address
	sets     map[LOID]ReplicaSet
	policies map[LOID]*policy.DistributionPolicy
	lookups  uint64
	updates  uint64
}

var _ Authority = (*Agent)(nil)

// NewAgent returns an empty binding agent using clock for timestamps.
func NewAgent(clock vclock.Clock) *Agent {
	return &Agent{clock: clock, bindings: make(map[LOID]Address), sets: make(map[LOID]ReplicaSet)}
}

// Register binds loid to addr, replacing any previous binding. The new
// binding's incarnation must not regress; Register increments it
// automatically when addr.Incarnation is zero.
func (a *Agent) Register(loid LOID, addr Address) Address {
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr.Incarnation == 0 {
		addr.Incarnation = a.bindings[loid].Incarnation + 1
	}
	a.bindings[loid] = addr
	delete(a.sets, loid) // a plain registration demotes the LOID to a singleton
	a.updates++
	return addr
}

// RegisterSet binds loid to a replica group. The primary endpoint becomes
// the binding's address. When set.Generation is zero the agent assigns the
// next generation; an explicit generation at or below the current one is
// rejected (the registrar is a deposed primary working from a stale view)
// and the live set is returned with ok=false. Generations never regress.
func (a *Agent) RegisterSet(loid LOID, set ReplicaSet) (ReplicaSet, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.sets[loid]
	if set.Generation == 0 {
		set.Generation = cur.Generation + 1
	} else if set.Generation <= cur.Generation {
		return cur.Clone(), false
	}
	set = set.Clone()
	a.sets[loid] = set
	a.bindings[loid] = Address{Endpoint: set.Primary, Incarnation: a.bindings[loid].Incarnation + 1}
	a.updates++
	return set.Clone(), true
}

// Set returns loid's current replica set (zero when loid is a singleton).
func (a *Agent) Set(loid LOID) ReplicaSet {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.sets[loid].Clone()
}

// RegisterPolicy attaches a distribution-policy document to loid: every
// subsequent Lookup carries it, so clients learn read routing on resolve.
// The document is cloned; later registrations replace it (documents are
// versionless — the manager journal is the authority on history).
// Registering for an unbound LOID is allowed: the policy waits for the
// binding.
func (a *Agent) RegisterPolicy(loid LOID, pol policy.DistributionPolicy) {
	cloned := pol.Clone()
	a.mu.Lock()
	if a.policies == nil {
		a.policies = make(map[LOID]*policy.DistributionPolicy)
	}
	a.policies[loid] = &cloned
	a.updates++
	a.mu.Unlock()
}

// PolicyOf returns loid's registered policy document. ok is false when none
// is registered (the implicit policy.Default() applies).
func (a *Agent) PolicyOf(loid LOID) (policy.DistributionPolicy, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	p, ok := a.policies[loid]
	if !ok {
		return policy.DistributionPolicy{}, false
	}
	return p.Clone(), true
}

// Lookup resolves loid to its current address (and replica set, if any).
func (a *Agent) Lookup(loid LOID) (Binding, error) {
	a.mu.Lock()
	a.lookups++
	addr, ok := a.bindings[loid]
	set := a.sets[loid].Clone()
	pol := a.policies[loid]
	a.mu.Unlock()
	if !ok {
		return Binding{}, fmt.Errorf("%w: %s", ErrNotBound, loid)
	}
	return Binding{LOID: loid, Address: addr, Set: set, Policy: pol, ResolvedAt: a.clock.Now()}, nil
}

// Deregister removes loid's binding; removing an unbound LOID is a no-op.
// The policy document goes with it — a destroyed object's policy must not
// ambush the next tenant of the LOID.
func (a *Agent) Deregister(loid LOID) {
	a.mu.Lock()
	delete(a.bindings, loid)
	delete(a.sets, loid)
	delete(a.policies, loid)
	a.updates++
	a.mu.Unlock()
}

// Current reports loid's live incarnation, or 0 if unbound. Transports use
// this to reject calls carrying stale incarnations.
func (a *Agent) Current(loid LOID) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.bindings[loid].Incarnation
}

// Stats reports the number of lookups and registration updates served.
func (a *Agent) Stats() (lookups, updates uint64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.lookups, a.updates
}

// CacheStats counts cache effectiveness for the experiments.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// Cache is a client-side binding cache. Callers resolve LOIDs through the
// cache; on a stale-binding failure they call Invalidate and re-resolve,
// which consults the agent. TTL of zero means entries never expire by time
// (the Legion default — staleness is discovered by failed calls, which is
// exactly what experiment E4 measures).
type Cache struct {
	agent Resolver
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	entries map[LOID]Binding
	stats   CacheStats
}

// NewCache returns an empty cache backed by agent.
func NewCache(agent Resolver, clock vclock.Clock, ttl time.Duration) *Cache {
	return &Cache{agent: agent, clock: clock, ttl: ttl, entries: make(map[LOID]Binding)}
}

// Resolve returns a binding for loid, from cache when fresh, otherwise from
// the agent.
func (c *Cache) Resolve(loid LOID) (Binding, error) {
	c.mu.Lock()
	if b, ok := c.entries[loid]; ok {
		if c.ttl == 0 || c.clock.Now().Sub(b.ResolvedAt) < c.ttl {
			c.stats.Hits++
			c.mu.Unlock()
			return b, nil
		}
		delete(c.entries, loid)
	}
	c.stats.Misses++
	c.mu.Unlock()

	b, err := c.agent.Lookup(loid)
	if err != nil {
		return Binding{}, err
	}
	c.mu.Lock()
	c.entries[loid] = b
	c.mu.Unlock()
	return b, nil
}

// Invalidate drops any cached binding for loid. Callers invoke it after a
// call fails with a stale-binding error.
func (c *Cache) Invalidate(loid LOID) {
	c.mu.Lock()
	if _, ok := c.entries[loid]; ok {
		delete(c.entries, loid)
		c.stats.Invalidations++
	}
	c.mu.Unlock()
}

// InvalidateEndpoint invalidates the dead endpoint within loid's cached
// binding and reports whether anything changed. For singleton bindings the
// whole entry is dropped (as before). For multi-endpoint bindings only the
// failed endpoint is trimmed from the replica set — the primary's death
// promotes the first cached backup — so failover proceeds from cache
// without a round trip to the agent; the entry is dropped only when no
// endpoints survive. Concurrent callers that all failed against the same
// endpoint perform one logical invalidation: whoever loses the race sees
// false and knows another caller already handled it (rpc.Client uses this
// to keep rebind counts bounded under concurrency).
func (c *Cache) InvalidateEndpoint(loid LOID, endpoint string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[loid]
	if !ok {
		return false
	}
	if b.Set.Replicated() {
		trimmed, member := b.Set.Without(endpoint)
		if !member {
			return false
		}
		if !trimmed.Replicated() {
			delete(c.entries, loid)
		} else {
			b.Set = trimmed
			b.Address.Endpoint = trimmed.Primary
			c.entries[loid] = b
		}
		c.stats.Invalidations++
		return true
	}
	if b.Address.Endpoint != endpoint {
		return false
	}
	delete(c.entries, loid)
	c.stats.Invalidations++
	return true
}

// Stats returns a copy of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of cached bindings.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// DiscoverySchedule models how long a Legion client takes to *realize* that
// a cached binding is stale: each attempt against the dead address blocks
// for Timeout, the client retries Attempts times with Backoff between
// attempts, and only then consults the binding agent. The paper reports
// 25–35 s for this discovery on Centurion.
type DiscoverySchedule struct {
	Timeout  time.Duration // per-attempt call timeout against the stale address
	Attempts int           // attempts before giving up on the cached address
	Backoff  time.Duration // pause between attempts
}

// DefaultDiscoverySchedule reproduces the paper's observed 25–35 s window:
// three 10-second timeouts separated by one-second backoffs totals 32 s.
func DefaultDiscoverySchedule() DiscoverySchedule {
	return DiscoverySchedule{Timeout: 10 * time.Second, Attempts: 3, Backoff: time.Second}
}

// TotalDiscoveryTime returns the modelled time from first failed call to the
// moment the client abandons the cached address.
func (s DiscoverySchedule) TotalDiscoveryTime() time.Duration {
	if s.Attempts <= 0 {
		return 0
	}
	return time.Duration(s.Attempts)*s.Timeout + time.Duration(s.Attempts-1)*s.Backoff
}
